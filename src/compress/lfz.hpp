// The lfz lossless codec: LZ77 + canonical Huffman in a checksummed
// container.
//
// This plays the role zlib plays in the paper ("the generator also
// compresses each view set with the lossless scheme zlib") — same algorithm
// family (DEFLATE), same ratio regime on ray-cast imagery, real CPU cost on
// decompression. The format is ours and intentionally simpler than RFC 1951:
// one block, code lengths stored as plain 4-bit values, DEFLATE's
// length/distance symbol tables, and an Adler-32 of the original data that
// decompress() verifies.
//
// Layout:
//   "LFZ1"  magic
//   u64     original size
//   u32     adler32(original)
//   u8      method: 0 = stored, 1 = lz77+huffman
//   method 0: original bytes
//   method 1: 286 literal/length code lengths (4 bits each, packed),
//             30 distance code lengths (4 bits each),
//             Huffman-coded token stream terminated by the EOB symbol.
#pragma once

#include <cstdint>
#include <span>

#include "compress/lz77.hpp"
#include "util/bytes.hpp"
#include "util/thread_pool.hpp"

namespace lon::lfz {

struct CompressOptions {
  /// Skip entropy coding entirely and emit a stored (method 0) block — for
  /// payloads known to be incompressible (publisher filler) and for the
  /// "stored" row of bench_compression.
  bool store_only = false;
};

/// Compresses data; never fails (falls back to stored blocks when expansion
/// would occur).
Bytes compress(std::span<const std::uint8_t> data, const CompressOptions& options = {});

/// Decompresses an lfz container, verifying magic, sizes and checksum.
/// Throws DecodeError on any corruption.
Bytes decompress(std::span<const std::uint8_t> compressed);

/// In-place variant: decodes directly into `out`, which must be exactly
/// decompressed_size(compressed) bytes — the zero-copy demand path decodes
/// chunks straight into their slice of the pooled destination slab. Stored
/// (method 0) payloads are copied through the payload-copy meter; LZ output
/// is written once, with 8-byte-wide match copies when the distance allows.
/// Throws DecodeError on any corruption; `out` contents are then unspecified.
void decompress_into(std::span<const std::uint8_t> compressed,
                     std::span<std::uint8_t> out);

/// Peeks at the original size without decompressing.
std::uint64_t decompressed_size(std::span<const std::uint8_t> compressed);

// --- chunked containers -------------------------------------------------------
//
// Figure 8 shows view-set decompression becoming the interactive bottleneck
// at 500^2; the paper remarks "alternatively, a more efficient compression
// scheme can be used". The chunked container is the simplest such scheme on
// a multicore client: the input is split into independently-compressed
// chunks ("LFZC" magic, chunk directory, one lfz stream per chunk) so both
// sides can run across a thread pool. Slightly worse ratio (per-chunk
// dictionaries reset), near-linear (de)compression speedup.
//
// "LFZ2" is byte-for-byte the same chunk layout under a distinct magic; the
// magic marks that the *payload* is an inter-view-predicted view-set
// serialization (SerializeMode::kAdaptive in lightfield/viewset.hpp), so the
// wire format is observable per mode while every chunked-container consumer
// (decompress_chunked, and through it the client) handles both transparently.

/// Compresses in `chunk_bytes` chunks, in parallel when a pool is given.
Bytes compress_chunked(std::span<const std::uint8_t> data,
                       std::uint64_t chunk_bytes = 1 << 20,
                       const CompressOptions& options = {}, ThreadPool* pool = nullptr);

/// Same chunk layout under the "LFZ2" magic (inter-view-predicted payload).
Bytes compress_lfz2(std::span<const std::uint8_t> data, std::uint64_t chunk_bytes = 1 << 20,
                    const CompressOptions& options = {}, ThreadPool* pool = nullptr);

/// Decompresses a chunked container (LFZC or LFZ2), in parallel when a pool
/// is given.
Bytes decompress_chunked(std::span<const std::uint8_t> compressed,
                         ThreadPool* pool = nullptr);

/// True if the bytes carry either chunked-container magic (LFZC or LFZ2).
bool is_chunked(std::span<const std::uint8_t> compressed);

/// True if the bytes carry the LFZ2 magic specifically.
bool is_lfz2(std::span<const std::uint8_t> compressed);

/// Wire-format label for metrics: "stored", "lfz1", "lfzc", "lfz2" or
/// "unknown". Never throws.
const char* wire_label(std::span<const std::uint8_t> compressed);

}  // namespace lon::lfz

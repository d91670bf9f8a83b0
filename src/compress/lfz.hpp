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

/// Wire-format label for metrics: "stored", "lfz1" or "unknown". Never
/// throws.
const char* wire_label(std::span<const std::uint8_t> compressed);

}  // namespace lon::lfz

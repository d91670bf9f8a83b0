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

#include <array>
#include <cstdint>
#include <span>

#include "compress/lz77.hpp"
#include "util/bytes.hpp"

namespace lon::lfz {

/// A DEFLATE length or distance code: its base value and extra-bit count.
struct LengthCode {
  std::uint32_t base;
  int extra;
};

/// DEFLATE length codes: base length and extra bits for symbols 257..285.
inline constexpr std::array<LengthCode, 29> kLengthCodes = {{
    {3, 0},   {4, 0},   {5, 0},   {6, 0},   {7, 0},   {8, 0},   {9, 0},   {10, 0},
    {11, 1},  {13, 1},  {15, 1},  {17, 1},  {19, 2},  {23, 2},  {27, 2},  {31, 2},
    {35, 3},  {43, 3},  {51, 3},  {59, 3},  {67, 4},  {83, 4},  {99, 4},  {115, 4},
    {131, 5}, {163, 5}, {195, 5}, {227, 5}, {258, 0},
}};

/// DEFLATE distance codes: base distance and extra bits for symbols 0..29.
inline constexpr std::array<LengthCode, 30> kDistCodes = {{
    {1, 0},     {2, 0},     {3, 0},     {4, 0},     {5, 1},     {7, 1},
    {9, 2},     {13, 2},    {17, 3},    {25, 3},    {33, 4},    {49, 4},
    {65, 5},    {97, 5},    {129, 6},   {193, 6},   {257, 7},   {385, 7},
    {513, 8},   {769, 8},   {1025, 9},  {1537, 9},  {2049, 10}, {3073, 10},
    {4097, 11}, {6145, 11}, {8193, 12}, {12289, 12},{16385, 13},{24577, 13},
}};

/// Symbol (257..285) of a match length in [3, 258], by table lookup.
std::uint32_t length_symbol(std::uint32_t length);

/// Symbol (0..29) of a distance in [1, 32768], by table lookup.
std::uint32_t distance_symbol(std::uint32_t distance);

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

#include "compress/lfz.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "compress/bitio.hpp"
#include "compress/huffman.hpp"
#include "util/buffer_pool.hpp"
#include "util/checksum.hpp"

namespace lon::lfz {

namespace {

constexpr std::uint8_t kMagic[4] = {'L', 'F', 'Z', '1'};
constexpr std::uint32_t kEob = 256;
constexpr std::size_t kLitAlphabet = 286;  // 0..255 literals, 256 EOB, 257..285 lengths
constexpr std::size_t kDistAlphabet = 30;

/// The last code in `codes` whose base does not exceed `value`.
template <std::size_t N>
constexpr std::uint8_t code_of(const std::array<LengthCode, N>& codes,
                               std::uint32_t value) {
  std::size_t i = N - 1;
  while (i > 0 && codes[i].base > value) --i;
  return static_cast<std::uint8_t>(i);
}

/// zlib's _length_code: the code index of every length up to 258.
constexpr std::array<std::uint8_t, kMaxMatch + 1> kLengthIndex = [] {
  std::array<std::uint8_t, kMaxMatch + 1> table{};
  for (std::uint32_t len = 0; len <= kMaxMatch; ++len) {
    table[len] = code_of(kLengthCodes, len);
  }
  return table;
}();

/// zlib's _dist_code: distance d's code index sits at d - 1 for d <= 256 and
/// at 256 + ((d - 1) >> 7) above, because every code past that starts where
/// d - 1 is a multiple of 128.
constexpr std::array<std::uint8_t, 512> kDistIndex = [] {
  std::array<std::uint8_t, 512> table{};
  for (std::uint32_t i = 0; i < 256; ++i) table[i] = code_of(kDistCodes, i + 1);
  for (std::uint32_t i = 2; i < 256; ++i) {
    table[256 + i] = code_of(kDistCodes, (i << 7) + 1);
  }
  return table;
}();

void write_lengths_packed(ByteWriter& out, std::span<const std::uint8_t> lengths) {
  // Two 4-bit lengths per byte (code lengths never exceed 15).
  for (std::size_t i = 0; i < lengths.size(); i += 2) {
    const std::uint8_t lo = lengths[i];
    const std::uint8_t hi = (i + 1 < lengths.size()) ? lengths[i + 1] : 0;
    out.u8(static_cast<std::uint8_t>(lo | (hi << 4)));
  }
}

std::vector<std::uint8_t> read_lengths_packed(ByteReader& in, std::size_t count) {
  std::vector<std::uint8_t> lengths(count);
  for (std::size_t i = 0; i < count; i += 2) {
    const std::uint8_t byte = in.u8();
    lengths[i] = byte & 0x0f;
    if (i + 1 < count) lengths[i + 1] = byte >> 4;
  }
  return lengths;
}

}  // namespace

std::uint32_t length_symbol(std::uint32_t length) { return 257 + kLengthIndex[length]; }

std::uint32_t distance_symbol(std::uint32_t distance) {
  return kDistIndex[distance <= 256 ? distance - 1 : 256 + ((distance - 1) >> 7)];
}

Bytes compress(std::span<const std::uint8_t> data, const CompressOptions& options) {
  ByteWriter header;
  header.raw(std::span(kMagic));
  header.u64(data.size());
  header.u32(adler32(data));

  if (options.store_only) {
    header.u8(0);
    header.raw(data);
    return header.take();
  }

  const std::vector<Token> tokens = lz77_tokenize(data);

  // Gather symbol statistics.
  std::vector<std::uint64_t> lit_freq(kLitAlphabet, 0);
  std::vector<std::uint64_t> dist_freq(kDistAlphabet, 0);
  for (const Token& t : tokens) {
    if (t.is_literal()) {
      ++lit_freq[t.literal];
    } else {
      ++lit_freq[length_symbol(t.length)];
      ++dist_freq[distance_symbol(t.distance)];
    }
  }
  ++lit_freq[kEob];

  const auto lit_lengths = build_code_lengths(lit_freq);
  const auto dist_lengths = build_code_lengths(dist_freq);
  const HuffmanEncoder lit_enc(lit_lengths);
  const HuffmanEncoder dist_enc(dist_lengths);

  BitWriter bits;
  for (const Token& t : tokens) {
    if (t.is_literal()) {
      lit_enc.encode(bits, t.literal);
      continue;
    }
    const std::uint32_t lsym = length_symbol(t.length);
    lit_enc.encode(bits, lsym);
    const LengthCode& lc = kLengthCodes[lsym - 257];
    if (lc.extra > 0) bits.put(t.length - lc.base, lc.extra);
    const std::uint32_t dsym = distance_symbol(t.distance);
    dist_enc.encode(bits, dsym);
    const LengthCode& dc = kDistCodes[dsym];
    if (dc.extra > 0) bits.put(t.distance - dc.base, dc.extra);
  }
  lit_enc.encode(bits, kEob);
  const Bytes body = bits.take();

  const std::size_t packed_tables = (kLitAlphabet + 1) / 2 + (kDistAlphabet + 1) / 2;
  if (body.size() + packed_tables >= data.size()) {
    // Stored block: compression would not pay off.
    header.u8(0);
    header.raw(data);
    return header.take();
  }
  header.u8(1);
  write_lengths_packed(header, lit_lengths);
  write_lengths_packed(header, dist_lengths);
  header.raw(body);
  return header.take();
}

namespace {

struct Header {
  std::uint64_t original_size = 0;
  std::uint32_t checksum = 0;
  std::uint8_t method = 0;
};

Header read_header(ByteReader& in) {
  const auto magic = in.raw(4);
  if (!std::equal(magic.begin(), magic.end(), kMagic)) {
    throw DecodeError("lfz: bad magic");
  }
  Header h;
  h.original_size = in.u64();
  h.checksum = in.u32();
  h.method = in.u8();
  if (h.method > 1) throw DecodeError("lfz: unknown method");
  return h;
}

/// LZ match copy into a flat destination. When the match distance allows,
/// copy 8 bytes per stride: with distance >= 8 every 8-byte load reads bytes
/// strictly before the current write frontier, so the stride sees exactly the
/// bytes the byte-at-a-time reference would — bit-exact, ~8x fewer ops on the
/// long matches smooth imagery produces. distance == 1 is a run (memset);
/// distances 2..7 must replicate byte-by-byte.
void copy_match(std::uint8_t* dst, std::uint32_t distance, std::uint32_t length) {
  const std::uint8_t* src = dst - distance;
  if (distance >= 8) {
    std::uint32_t k = 0;
    for (; k + 8 <= length; k += 8) std::memcpy(dst + k, src + k, 8);
    for (; k < length; ++k) dst[k] = src[k];
  } else if (distance == 1) {
    std::memset(dst, src[0], length);
  } else {
    for (std::uint32_t k = 0; k < length; ++k) dst[k] = src[k];
  }
}

}  // namespace

Bytes decompress(std::span<const std::uint8_t> compressed) {
  ByteReader in(compressed);
  const Header h = read_header(in);
  // A corrupt header can claim any original size; bound it (stored blocks by
  // the remaining input, lz77+huffman by the maximum token expansion — a
  // 2-bit match token emits <= 258 bytes, so ~1032x) before allocating, so
  // length overflows throw instead of attempting absurd allocations.
  if (h.method == 0) {
    if (h.original_size > in.remaining()) throw DecodeError("lfz: truncated stored block");
  } else if (h.original_size > (static_cast<std::uint64_t>(in.remaining()) + 16) * 1032) {
    throw DecodeError("lfz: implausible original size");
  }
  Bytes result(h.original_size);
  // The decode loop writes through a local span: a byte store through it
  // cannot alias the span itself, while one through `result` could alias the
  // vector's own pointers and force a reload per byte.
  const std::span<std::uint8_t> out(result);
  if (h.method == 0) {
    // Stored bodies pay one pass through the payload-copy meter.
    const auto raw = in.raw(h.original_size);
    util::copy_payload(out.data(), raw.data(), raw.size());
  } else {
    // LZ output is written once, straight into `out`.
    const auto lit_lengths = read_lengths_packed(in, kLitAlphabet);
    const auto dist_lengths = read_lengths_packed(in, kDistAlphabet);
    const HuffmanDecoder lit_dec(lit_lengths);
    const HuffmanDecoder dist_dec(dist_lengths);

    BitReader bits(compressed.subspan(in.position()));
    std::size_t pos = 0;
    for (;;) {
      const std::uint32_t sym = lit_dec.decode(bits);
      if (sym == kEob) break;
      if (sym < 256) {
        if (pos >= out.size()) throw DecodeError("lfz: output overrun");
        out[pos++] = static_cast<std::uint8_t>(sym);
        continue;
      }
      if (sym >= 257 + kLengthCodes.size()) throw DecodeError("lfz: bad length symbol");
      const LengthCode& lc = kLengthCodes[sym - 257];
      const std::uint32_t length =
          lc.base + (lc.extra > 0 ? bits.get(lc.extra) : 0);
      const std::uint32_t dsym = dist_dec.decode(bits);
      if (dsym >= kDistCodes.size()) throw DecodeError("lfz: bad distance symbol");
      const LengthCode& dc = kDistCodes[dsym];
      const std::uint32_t distance = dc.base + (dc.extra > 0 ? bits.get(dc.extra) : 0);
      if (distance == 0 || distance > pos) {
        throw DecodeError("lfz: reference before start of stream");
      }
      if (length > out.size() - pos) throw DecodeError("lfz: output overrun");
      copy_match(out.data() + pos, distance, length);
      pos += length;
    }
    if (pos != h.original_size) throw DecodeError("lfz: size mismatch");
  }

  if (adler32(out) != h.checksum) throw DecodeError("lfz: checksum mismatch");
  return result;
}

const char* wire_label(std::span<const std::uint8_t> compressed) {
  if (compressed.size() < 4 ||
      !std::equal(compressed.begin(), compressed.begin() + 4, kMagic)) {
    return "unknown";
  }
  // Offset 16 is the method byte (after magic, u64 size, u32 checksum).
  if (compressed.size() > 16 && compressed[16] == 0) return "stored";
  return "lfz1";
}

}  // namespace lon::lfz

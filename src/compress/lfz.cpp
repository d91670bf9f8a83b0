#include "compress/lfz.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
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

// DEFLATE length codes: base length and extra bits for symbols 257..285.
struct LengthCode {
  std::uint32_t base;
  int extra;
};
constexpr std::array<LengthCode, 29> kLengthCodes = {{
    {3, 0},   {4, 0},   {5, 0},   {6, 0},   {7, 0},   {8, 0},   {9, 0},   {10, 0},
    {11, 1},  {13, 1},  {15, 1},  {17, 1},  {19, 2},  {23, 2},  {27, 2},  {31, 2},
    {35, 3},  {43, 3},  {51, 3},  {59, 3},  {67, 4},  {83, 4},  {99, 4},  {115, 4},
    {131, 5}, {163, 5}, {195, 5}, {227, 5}, {258, 0},
}};

// DEFLATE distance codes: base distance and extra bits for symbols 0..29.
constexpr std::array<LengthCode, 30> kDistCodes = {{
    {1, 0},     {2, 0},     {3, 0},     {4, 0},     {5, 1},     {7, 1},
    {9, 2},     {13, 2},    {17, 3},    {25, 3},    {33, 4},    {49, 4},
    {65, 5},    {97, 5},    {129, 6},   {193, 6},   {257, 7},   {385, 7},
    {513, 8},   {769, 8},   {1025, 9},  {1537, 9},  {2049, 10}, {3073, 10},
    {4097, 11}, {6145, 11}, {8193, 12}, {12289, 12},{16385, 13},{24577, 13},
}};

/// Symbol for a match length in [3, 258].
std::uint32_t length_symbol(std::uint32_t length) {
  // Linear scan is fine: 29 entries, called once per token.
  for (std::size_t i = kLengthCodes.size(); i-- > 0;) {
    if (length >= kLengthCodes[i].base) return static_cast<std::uint32_t>(257 + i);
  }
  throw DecodeError("lfz: match length out of range");
}

/// Symbol for a distance in [1, 32768].
std::uint32_t distance_symbol(std::uint32_t distance) {
  for (std::size_t i = kDistCodes.size(); i-- > 0;) {
    if (distance >= kDistCodes[i].base) return static_cast<std::uint32_t>(i);
  }
  throw DecodeError("lfz: distance out of range");
}

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

/// Shared decode core: `in` is positioned just past the header, `out` is
/// exactly h.original_size bytes.
void decompress_body(ByteReader& in, std::span<const std::uint8_t> compressed,
                     const Header& h, std::span<std::uint8_t> out) {
  if (h.method == 0) {
    const auto raw = in.raw(h.original_size);
    util::copy_payload(out.data(), raw.data(), raw.size());
  } else {
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
  Bytes out(h.original_size);
  decompress_body(in, compressed, h, out);
  return out;
}

void decompress_into(std::span<const std::uint8_t> compressed, std::span<std::uint8_t> out) {
  ByteReader in(compressed);
  const Header h = read_header(in);
  if (out.size() != h.original_size) throw DecodeError("lfz: destination size mismatch");
  decompress_body(in, compressed, h, out);
}

std::uint64_t decompressed_size(std::span<const std::uint8_t> compressed) {
  ByteReader in(compressed);
  return read_header(in).original_size;
}

// --- chunked containers --------------------------------------------------------

namespace {

constexpr std::uint8_t kChunkedMagic[4] = {'L', 'F', 'Z', 'C'};
constexpr std::uint8_t kLfz2Magic[4] = {'L', 'F', 'Z', '2'};

bool has_magic(std::span<const std::uint8_t> data, const std::uint8_t (&magic)[4]) {
  return data.size() >= 4 && std::equal(data.begin(), data.begin() + 4, magic);
}

Bytes compress_chunked_as(std::span<const std::uint8_t> data, std::uint64_t chunk_bytes,
                          const CompressOptions& options, ThreadPool* pool,
                          const std::uint8_t (&magic)[4]) {
  if (chunk_bytes == 0) throw std::invalid_argument("compress_chunked: zero chunk size");
  const std::size_t chunks =
      data.empty() ? 0
                   : static_cast<std::size_t>((data.size() + chunk_bytes - 1) / chunk_bytes);
  std::vector<Bytes> compressed(chunks);
  auto one = [&](std::size_t c) {
    const std::uint64_t offset = c * chunk_bytes;
    const std::uint64_t length =
        std::min<std::uint64_t>(chunk_bytes, data.size() - offset);
    compressed[c] = compress(data.subspan(offset, length), options);
  };
  if (pool != nullptr && chunks > 1) {
    pool->parallel_for(0, chunks, one);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) one(c);
  }

  ByteWriter out;
  out.raw(std::span(magic));
  out.u64(data.size());
  out.u32(static_cast<std::uint32_t>(chunks));
  for (const auto& chunk : compressed) out.blob(chunk);
  return out.take();
}

}  // namespace

bool is_chunked(std::span<const std::uint8_t> compressed) {
  return has_magic(compressed, kChunkedMagic) || has_magic(compressed, kLfz2Magic);
}

bool is_lfz2(std::span<const std::uint8_t> compressed) {
  return has_magic(compressed, kLfz2Magic);
}

const char* wire_label(std::span<const std::uint8_t> compressed) {
  if (has_magic(compressed, kLfz2Magic)) return "lfz2";
  if (has_magic(compressed, kChunkedMagic)) return "lfzc";
  if (has_magic(compressed, kMagic)) {
    // Offset 16 is the method byte (after magic, u64 size, u32 checksum).
    if (compressed.size() > 16 && compressed[16] == 0) return "stored";
    return "lfz1";
  }
  return "unknown";
}

Bytes compress_chunked(std::span<const std::uint8_t> data, std::uint64_t chunk_bytes,
                       const CompressOptions& options, ThreadPool* pool) {
  return compress_chunked_as(data, chunk_bytes, options, pool, kChunkedMagic);
}

Bytes compress_lfz2(std::span<const std::uint8_t> data, std::uint64_t chunk_bytes,
                    const CompressOptions& options, ThreadPool* pool) {
  return compress_chunked_as(data, chunk_bytes, options, pool, kLfz2Magic);
}

Bytes decompress_chunked(std::span<const std::uint8_t> compressed, ThreadPool* pool) {
  ByteReader in(compressed);
  const auto magic = in.raw(4);
  if (!std::equal(magic.begin(), magic.end(), kChunkedMagic) &&
      !std::equal(magic.begin(), magic.end(), kLfz2Magic)) {
    throw DecodeError("lfz: bad chunked magic");
  }
  const std::uint64_t original = in.u64();
  const std::uint32_t chunks = in.u32();
  // Every chunk carries at least a length prefix, so the count is bounded by
  // the remaining bytes — reject overflowed directories before reserving.
  if (chunks > in.remaining()) throw DecodeError("lfz: implausible chunk count");

  // Walk the directory once: chunk bodies stay spans over the input (no
  // staging copies), and each chunk's LFZ1 header gives its decoded size, so
  // output offsets are a prefix sum computable before any decode runs.
  struct ChunkRef {
    std::span<const std::uint8_t> body;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
  };
  std::vector<ChunkRef> refs;
  refs.reserve(chunks);
  std::uint64_t total = 0;
  for (std::uint32_t c = 0; c < chunks; ++c) {
    const std::uint32_t length = in.u32();
    const auto body = in.raw(length);
    const std::uint64_t size = decompressed_size(body);
    // Re-apply decompress()'s expansion bound here: the prefix sum drives the
    // output allocation, so a forged chunk header must throw before it can
    // inflate `total` past anything the body could actually produce.
    if (size > (static_cast<std::uint64_t>(body.size()) + 16) * 1032) {
      throw DecodeError("lfz: implausible original size");
    }
    if (size > original - total) throw DecodeError("lfz: chunked size mismatch");
    refs.push_back({body, total, size});
    total += size;
  }
  if (!in.done()) throw DecodeError("lfz: trailing bytes in chunked container");
  if (total != original) throw DecodeError("lfz: chunked size mismatch");

  // Decode each chunk in place into its output slice — disjoint regions, so
  // the parallel path is race-free. Exceptions from workers must surface on
  // the caller's thread.
  Bytes out(total);
  std::vector<std::exception_ptr> errors(chunks);
  auto one = [&](std::size_t c) {
    try {
      decompress_into(refs[c].body,
                      std::span(out).subspan(refs[c].offset, refs[c].size));
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  if (pool != nullptr && chunks > 1) {
    pool->parallel_for(0, chunks, one);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) one(c);
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return out;
}

}  // namespace lon::lfz

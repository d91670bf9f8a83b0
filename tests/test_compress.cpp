// Unit and property tests for the lfz codec: bit I/O, Huffman, LZ77,
// container round-trips, corruption detection and image predictor filters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "compress/bitio.hpp"
#include "compress/filters.hpp"
#include "compress/huffman.hpp"
#include "compress/lfz.hpp"
#include "compress/lz77.hpp"
#include "util/buffer_pool.hpp"
#include "util/rng.hpp"

namespace lon::lfz {
namespace {

// --- bit I/O --------------------------------------------------------------------

TEST(BitIo, RoundTripMixedWidths) {
  BitWriter w;
  w.put(0b1, 1);
  w.put(0b1010, 4);
  w.put(0xdead, 16);
  w.put(0x7fffffff, 31);
  const Bytes data = w.take();

  BitReader r(data);
  EXPECT_EQ(r.get(1), 0b1u);
  EXPECT_EQ(r.get(4), 0b1010u);
  EXPECT_EQ(r.get(16), 0xdeadu);
  EXPECT_EQ(r.get(31), 0x7fffffffu);
}

TEST(BitIo, AlignSkipsToByteBoundary) {
  BitWriter w;
  w.put(0b101, 3);
  w.align();
  w.put(0xff, 8);
  const Bytes data = w.take();
  ASSERT_EQ(data.size(), 2u);

  BitReader r(data);
  EXPECT_EQ(r.get(3), 0b101u);
  r.align();
  EXPECT_EQ(r.get(8), 0xffu);
}

TEST(BitIo, TruncatedStreamThrows) {
  BitWriter w;
  w.put(0x3, 2);
  const Bytes data = w.take();
  BitReader r(data);
  r.get(8);
  EXPECT_THROW(r.get(8), DecodeError);
}

TEST(BitIo, HuffCodeMsbFirstOrder) {
  BitWriter w;
  w.put_code(0b110, 3);  // written as bits 1,1,0
  const Bytes data = w.take();
  BitReader r(data);
  EXPECT_EQ(r.bit(), 1u);
  EXPECT_EQ(r.bit(), 1u);
  EXPECT_EQ(r.bit(), 0u);
}

// --- huffman --------------------------------------------------------------------

TEST(Huffman, CodeLengthsFollowFrequencies) {
  // Symbol 0 dominates: it must get the (a) shortest code.
  const std::uint64_t freqs[] = {1000, 10, 10, 10, 1};
  const auto lengths = build_code_lengths(freqs);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[1], lengths[4]);
  for (const auto l : lengths) EXPECT_LE(l, kMaxCodeLength);
}

TEST(Huffman, UnusedSymbolsGetZeroLength) {
  const std::uint64_t freqs[] = {5, 0, 3, 0};
  const auto lengths = build_code_lengths(freqs);
  EXPECT_GT(lengths[0], 0);
  EXPECT_EQ(lengths[1], 0);
  EXPECT_GT(lengths[2], 0);
  EXPECT_EQ(lengths[3], 0);
}

TEST(Huffman, SingleSymbolGetsLengthOne) {
  const std::uint64_t freqs[] = {0, 7, 0};
  const auto lengths = build_code_lengths(freqs);
  EXPECT_EQ(lengths[1], 1);
}

TEST(Huffman, KraftInequalityHolds) {
  Rng rng(11);
  std::vector<std::uint64_t> freqs(200);
  for (auto& f : freqs) f = rng.below(10'000);
  const auto lengths = build_code_lengths(freqs);
  double kraft = 0.0;
  for (const auto l : lengths) {
    if (l > 0) kraft += std::pow(2.0, -static_cast<double>(l));
  }
  EXPECT_LE(kraft, 1.0 + 1e-12);
}

TEST(Huffman, LengthLimitingKicksInOnSkewedDistributions) {
  // Fibonacci-like frequencies force very deep optimal trees.
  std::vector<std::uint64_t> freqs(40);
  std::uint64_t a = 1, b = 1;
  for (auto& f : freqs) {
    f = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = build_code_lengths(freqs);
  for (const auto l : lengths) {
    EXPECT_GT(l, 0);
    EXPECT_LE(l, kMaxCodeLength);
  }
}

TEST(Huffman, EncodeDecodeRoundTrip) {
  Rng rng(17);
  std::vector<std::uint64_t> freqs(64);
  for (auto& f : freqs) f = 1 + rng.below(500);
  const auto lengths = build_code_lengths(freqs);
  const HuffmanEncoder enc(lengths);
  const HuffmanDecoder dec(lengths);

  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 5000; ++i) symbols.push_back(static_cast<std::uint32_t>(rng.below(64)));

  BitWriter w;
  for (const auto s : symbols) enc.encode(w, s);
  const Bytes data = w.take();
  BitReader r(data);
  for (const auto s : symbols) EXPECT_EQ(dec.decode(r), s);
}

// --- lz77 -----------------------------------------------------------------------

Bytes expand_via_tokens(const Bytes& input) {
  const auto tokens = lz77_tokenize(input);
  return lz77_expand(tokens, input.size());
}

TEST(Lz77, RoundTripText) {
  const std::string text =
      "the quick brown fox jumps over the lazy dog; "
      "the quick brown fox jumps over the lazy dog again and again and again";
  const Bytes input(text.begin(), text.end());
  EXPECT_EQ(expand_via_tokens(input), input);
  // Repetitive text must actually produce matches.
  const auto tokens = lz77_tokenize(input);
  EXPECT_LT(tokens.size(), input.size());
}

TEST(Lz77, RoundTripEmptyAndTiny) {
  EXPECT_TRUE(expand_via_tokens({}).empty());
  EXPECT_EQ(expand_via_tokens({42}), (Bytes{42}));
  EXPECT_EQ(expand_via_tokens({1, 2}), (Bytes{1, 2}));
}

TEST(Lz77, HighlyRepetitiveInputCompressesToFewTokens) {
  const Bytes input(100'000, 0xaa);
  const auto tokens = lz77_tokenize(input);
  EXPECT_LT(tokens.size(), 500u);  // ~100k/258 matches plus the seed literal
  EXPECT_EQ(lz77_expand(tokens, input.size()), input);
}

TEST(Lz77, OverlappingMatchesExpandCorrectly) {
  // "abcabcabc..." exercises distance < length copies.
  Bytes input;
  for (int i = 0; i < 1000; ++i) input.push_back(static_cast<std::uint8_t>('a' + i % 3));
  EXPECT_EQ(expand_via_tokens(input), input);
}

TEST(Lz77, RandomDataRoundTrips) {
  Rng rng(23);
  Bytes input(50'000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.below(256));
  EXPECT_EQ(expand_via_tokens(input), input);
}

TEST(Lz77, ExpandRejectsBadReferences) {
  std::vector<Token> tokens = {Token::make_literal('x'),
                               Token::make_match(5, 10)};  // distance 10 > output size 1
  EXPECT_THROW(lz77_expand(tokens), DecodeError);
  tokens = {Token::make_literal('x'), Token::make_match(300, 1)};  // length > 258
  EXPECT_THROW(lz77_expand(tokens), DecodeError);
}

// --- lfz container ----------------------------------------------------------------

class LfzRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LfzRoundTrip, RandomBytes) {
  Rng rng(GetParam() + 1);
  Bytes input(GetParam());
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.below(256));
  const Bytes packed = compress(input);
  EXPECT_EQ(decompress(packed), input);
  EXPECT_EQ(decompressed_size(packed), input.size());
}

TEST_P(LfzRoundTrip, CompressibleBytes) {
  Rng rng(GetParam() + 99);
  Bytes input(GetParam());
  std::uint8_t value = 0;
  for (auto& b : input) {
    if (rng.below(16) == 0) value = static_cast<std::uint8_t>(rng.below(256));
    b = value;  // long runs
  }
  const Bytes packed = compress(input);
  EXPECT_EQ(decompress(packed), input);
  if (input.size() > 4096) {
    EXPECT_LT(packed.size(), input.size() / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LfzRoundTrip,
                         ::testing::Values(0, 1, 2, 3, 255, 4096, 65'537, 1'000'000));

TEST(Lfz, EmptyInput) {
  const Bytes packed = compress({});
  EXPECT_TRUE(decompress(packed).empty());
}

TEST(Lfz, IncompressibleFallsBackToStored) {
  Rng rng(3);
  Bytes input(10'000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.below(256));
  const Bytes packed = compress(input);
  // Stored overhead is just the header.
  EXPECT_LE(packed.size(), input.size() + 32);
  EXPECT_EQ(decompress(packed), input);
}

TEST(Lfz, SmoothDataReachesPaperRatios) {
  // A smooth 2-D field similar in character to a ray-cast sample view:
  // the paper reports 5-7x with zlib on such content.
  const std::size_t w = 256, h = 256;
  Bytes image(w * h * 3);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const double v =
          0.5 + 0.5 * std::sin(static_cast<double>(x) * 0.05) *
                    std::cos(static_cast<double>(y) * 0.04);
      const auto byte = static_cast<std::uint8_t>(v * 255.0);
      image[(y * w + x) * 3 + 0] = byte;
      image[(y * w + x) * 3 + 1] = byte / 2;
      image[(y * w + x) * 3 + 2] = static_cast<std::uint8_t>(255 - byte);
    }
  }
  const Bytes filtered = filter_image(image, w, h, 3);
  const Bytes packed = compress(filtered);
  EXPECT_GT(static_cast<double>(image.size()) / static_cast<double>(packed.size()), 5.0);
  EXPECT_EQ(unfilter_image(decompress(packed), w, h, 3), image);
}

TEST(Lfz, DetectsCorruptMagic) {
  Bytes packed = compress(Bytes{1, 2, 3, 4, 5});
  packed[0] = 'X';
  EXPECT_THROW(decompress(packed), DecodeError);
}

TEST(Lfz, DetectsBodyCorruption) {
  Bytes base(20'000);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<std::uint8_t>(i % 64);
  }
  const Bytes packed = compress(base);
  int detected = 0;
  // Flip a byte at several positions; every corruption must be caught.
  for (std::size_t pos = 20; pos < packed.size(); pos += packed.size() / 7 + 1) {
    Bytes evil = packed;
    evil[pos] ^= 0x55;
    try {
      const Bytes out = decompress(evil);
      if (out != base) ++detected;  // wrong data should have thrown, count anyway
    } catch (const DecodeError&) {
      ++detected;
    }
  }
  EXPECT_GE(detected, 1);
}

TEST(Lfz, DetectsTruncation) {
  const Bytes packed = compress(Bytes(5000, 7));
  const Bytes cut(packed.begin(), packed.begin() + static_cast<long>(packed.size() / 2));
  EXPECT_THROW(decompress(cut), DecodeError);
}

// --- chunked lfz ------------------------------------------------------------------

TEST(ChunkedLfz, RoundTripWithAndWithoutPool) {
  Rng rng(5);
  Bytes data(3'000'000);
  std::uint8_t value = 0;
  for (auto& b : data) {
    if (rng.below(50) == 0) value = static_cast<std::uint8_t>(rng.next());
    b = value;
  }
  const Bytes packed = compress_chunked(data, 512 * 1024);
  EXPECT_TRUE(is_chunked(packed));
  EXPECT_FALSE(is_chunked(compress(Bytes{1, 2, 3})));
  EXPECT_EQ(decompress_chunked(packed), data);

  ThreadPool pool(4);
  const Bytes packed_par = compress_chunked(data, 512 * 1024, {}, &pool);
  EXPECT_EQ(packed_par, packed);  // parallelism never changes the bytes
  EXPECT_EQ(decompress_chunked(packed_par, &pool), data);
}

TEST(ChunkedLfz, EmptyAndSingleChunk) {
  EXPECT_TRUE(decompress_chunked(compress_chunked({}, 1024)).empty());
  const Bytes tiny = {1, 2, 3};
  EXPECT_EQ(decompress_chunked(compress_chunked(tiny, 1024)), tiny);
}

TEST(ChunkedLfz, CorruptionIsDetectedAcrossChunkBoundaries) {
  Bytes data(200'000, 0x42);
  Bytes packed = compress_chunked(data, 64 * 1024);
  packed[packed.size() / 2] ^= 0xff;  // damage some interior chunk
  EXPECT_THROW(decompress_chunked(packed), DecodeError);
  EXPECT_THROW(compress_chunked(data, 0), std::invalid_argument);
  EXPECT_THROW(decompress_chunked(Bytes{1, 2, 3, 4, 5}), DecodeError);
}

TEST(ChunkedLfz, RatioCostOfChunkingIsModest) {
  Rng rng(8);
  Bytes data(2'000'000);
  std::uint8_t value = 0;
  for (auto& b : data) {
    if (rng.below(30) == 0) value = static_cast<std::uint8_t>(rng.next());
    b = value;
  }
  const std::size_t whole = compress(data).size();
  // Pooled chunks are byte-identical to serial ones (RoundTripWithAndWithoutPool).
  ThreadPool pool(4);
  const std::size_t chunked = compress_chunked(data, 256 * 1024, {}, &pool).size();
  EXPECT_LT(static_cast<double>(chunked), 1.15 * static_cast<double>(whole));
}

// --- filters --------------------------------------------------------------------

TEST(Filters, PaethMatchesPngSpec) {
  // From the PNG spec: choose the neighbour closest to p = left + up - upleft.
  EXPECT_EQ(paeth_predict(10, 20, 30), 10);   // p = 0 -> closest is left
  EXPECT_EQ(paeth_predict(100, 100, 100), 100);
  EXPECT_EQ(paeth_predict(0, 50, 10), 0 + 40 == 40 ? 50 : 50);  // p = 40, up closest
}

TEST(Filters, RoundTripAllContentTypes) {
  Rng rng(41);
  for (const std::size_t w : {1u, 7u, 64u}) {
    for (const std::size_t h : {1u, 5u, 32u}) {
      Bytes image(w * h * 3);
      for (auto& b : image) b = static_cast<std::uint8_t>(rng.below(256));
      const Bytes filtered = filter_image(image, w, h, 3);
      EXPECT_EQ(filtered.size(), h * (w * 3 + 1));
      EXPECT_EQ(unfilter_image(filtered, w, h, 3), image);
    }
  }
}

TEST(Filters, SmoothGradientFiltersToNearZero) {
  const std::size_t w = 128, h = 1;
  Bytes image(w * 3);
  for (std::size_t x = 0; x < w; ++x) {
    image[x * 3] = image[x * 3 + 1] = image[x * 3 + 2] = static_cast<std::uint8_t>(x);
  }
  const Bytes filtered = filter_image(image, w, h, 3);
  // A ramp is perfectly predicted by Sub: almost all residuals are constant.
  int nonzero = 0;
  for (std::size_t i = 1; i < filtered.size(); ++i) nonzero += filtered[i] != 1 ? 1 : 0;
  EXPECT_LT(nonzero, 8);
}

TEST(Filters, SizeMismatchThrows) {
  EXPECT_THROW(filter_image(Bytes(10), 4, 4, 3), std::invalid_argument);
  EXPECT_THROW(unfilter_image(Bytes(10), 4, 4, 3), DecodeError);
}

TEST(Filters, BadFilterTypeThrows) {
  Bytes filtered(1 + 4 * 3, 0);
  filtered[0] = 9;  // invalid type
  EXPECT_THROW(unfilter_image(filtered, 4, 1, 3), DecodeError);
}

// --- fast decode path ----------------------------------------------------------------

TEST(BitIo, Put32BitValueRoundTrips) {
  BitWriter w;
  w.put(0xdeadbeefu, 32);  // the full-width case: (1 << 32) would be UB
  w.put(0xffffffffu, 32);
  const Bytes data = w.take();
  BitReader r(data);
  EXPECT_EQ(r.get(32), 0xdeadbeefu);
  EXPECT_EQ(r.get(32), 0xffffffffu);
}

TEST(BitIo, PeekZeroPadsPastEndButConsumeThrows) {
  BitWriter w;
  w.put(0b101, 3);
  const Bytes data = w.take();  // one byte
  BitReader r(data);
  EXPECT_EQ(r.peek(15) & 0x7u, 0b101u);  // peek beyond the stream zero-pads
  r.consume(8);                          // the byte that exists
  EXPECT_EQ(r.peek(10), 0u);
  EXPECT_THROW(r.consume(1), DecodeError);  // but consuming padding is truncation
}

TEST(BitIo, BulkRefillMatchesByteAtATime) {
  // Cross the 8-byte fast-refill path at several stream alignments and check
  // every extracted octet against a scalar bit extractor.
  Bytes data(67);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const auto bit_at = [&](std::size_t j) {
    return static_cast<std::uint32_t>(data[j >> 3] >> (j & 7)) & 1u;
  };
  for (const int lead : {1, 3, 7, 11}) {
    BitReader r(data);
    (void)r.get(lead);
    std::size_t pos = static_cast<std::size_t>(lead);
    const std::size_t total = data.size() * 8;
    while (total - pos >= 8) {
      std::uint32_t want = 0;
      for (int b = 0; b < 8; ++b) want |= bit_at(pos + static_cast<std::size_t>(b)) << b;
      ASSERT_EQ(r.get(8), want) << "lead " << lead << " pos " << pos;
      pos += 8;
    }
  }
}

TEST(Huffman, TableDecodeMatchesBitwiseOnRandomCodeSets) {
  Rng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t alphabet = 2 + rng.below(285);
    std::vector<std::uint64_t> freqs(alphabet);
    for (auto& f : freqs) {
      // Skewed frequencies (and some zeros) exercise long codes + subtables.
      f = rng.below(4) == 0 ? 0 : (1ull << rng.below(16));
    }
    freqs[rng.below(alphabet)] = 1;  // guarantee at least one used symbol
    const auto lengths = build_code_lengths(freqs);
    const HuffmanEncoder encoder(lengths);
    const HuffmanDecoder decoder(lengths);

    std::vector<std::uint32_t> symbols;
    BitWriter w;
    for (int i = 0; i < 2000; ++i) {
      const auto s = static_cast<std::uint32_t>(rng.below(alphabet));
      if (lengths[s] == 0) continue;
      symbols.push_back(s);
      encoder.encode(w, s);
    }
    const Bytes encoded = w.take();
    BitReader table_reader(encoded);
    BitReader bitwise_reader(encoded);
    for (const auto want : symbols) {
      EXPECT_EQ(decoder.decode(table_reader), want);
      EXPECT_EQ(decoder.decode_bitwise(bitwise_reader), want);
    }
    EXPECT_EQ(table_reader.bytes_consumed(), bitwise_reader.bytes_consumed());
  }
}

TEST(Huffman, SingleSymbolAlphabetRoundTrips) {
  // Degenerate but legal: one used symbol gets a 1-bit code and both
  // decoders must resolve it (the table fill must cover the whole root).
  std::vector<std::uint64_t> freqs(30, 0);
  freqs[17] = 123;
  const auto lengths = build_code_lengths(freqs);
  ASSERT_EQ(lengths[17], 1);
  const HuffmanEncoder encoder(lengths);
  const HuffmanDecoder decoder(lengths);
  BitWriter w;
  for (int i = 0; i < 64; ++i) encoder.encode(w, 17);
  const Bytes encoded = w.take();
  BitReader r(encoded);
  BitReader rb(encoded);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(decoder.decode(r), 17u);
    EXPECT_EQ(decoder.decode_bitwise(rb), 17u);
  }
}

TEST(Huffman, FullDeflateAlphabetAllNonzeroRespectsMaxLength) {
  // All 286 literal/length symbols in use with wildly skewed counts: the
  // halving fallback must land every code within kMaxCodeLength, and the
  // canonical set must stay decodable (not over-subscribed).
  std::vector<std::uint64_t> freqs(286);
  std::uint64_t fib_a = 1, fib_b = 1;
  for (auto& f : freqs) {
    f = fib_a;
    const std::uint64_t next = fib_a + fib_b;
    fib_a = fib_b;
    fib_b = next;
    if (fib_b > (1ull << 40)) fib_a = fib_b = 1;  // keep counts finite, re-skew
  }
  const auto lengths = build_code_lengths(freqs);
  for (const auto l : lengths) {
    ASSERT_GT(l, 0);
    ASSERT_LE(l, kMaxCodeLength);
  }
  double kraft = 0.0;
  for (const auto l : lengths) kraft += std::ldexp(1.0, -l);
  EXPECT_LE(kraft, 1.0 + 1e-9);

  const HuffmanEncoder encoder(lengths);
  const HuffmanDecoder decoder(lengths);
  BitWriter w;
  for (std::uint32_t s = 0; s < 286; ++s) encoder.encode(w, s);
  const Bytes encoded = w.take();
  BitReader r(encoded);
  for (std::uint32_t s = 0; s < 286; ++s) EXPECT_EQ(decoder.decode(r), s);
}

TEST(Huffman, OverSubscribedLengthsRejected) {
  // Three 1-bit codes cannot coexist; a corrupt container could smuggle such
  // a length array in, which must fail table construction, not overflow it.
  const std::vector<std::uint8_t> three_ones{1, 1, 1};
  EXPECT_THROW(HuffmanDecoder{three_ones}, DecodeError);
  std::vector<std::uint8_t> deep(65, 6);  // 65 codes of length 6 > 2^6 = 64
  EXPECT_THROW(HuffmanDecoder{deep}, DecodeError);
}

// --- codec hardening -----------------------------------------------------------------

namespace {

/// Compressible-but-structured payload for the corruption sweeps.
Bytes hardening_payload(std::size_t size) {
  Bytes data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::uint8_t>((i * 7) % 251 < 100 ? 42 : (i / 13) % 256);
  }
  return data;
}

/// A corrupted container must throw DecodeError — or, for flips the checksum
/// provably cannot distinguish, still produce the original bytes. Anything
/// else (crash, garbage output, std::bad_alloc from a forged size field)
/// fails the test.
void expect_rejected_or_intact(const Bytes& corrupted, const Bytes& original) {
  try {
    const Bytes out = is_chunked(corrupted) ? decompress_chunked(corrupted)
                                            : decompress(corrupted);
    EXPECT_EQ(out, original);
  } catch (const DecodeError&) {
    // expected
  }
}

}  // namespace

TEST(LfzHardening, TruncationsNeverCrash) {
  const Bytes input = hardening_payload(20000);
  for (const Bytes& container :
       {compress(input), compress_chunked(input, 4096), compress_lfz2(input, 4096)}) {
    for (std::size_t keep = 0; keep < container.size();
         keep += std::max<std::size_t>(1, container.size() / 97)) {
      const Bytes cut(container.begin(),
                      container.begin() + static_cast<std::ptrdiff_t>(keep));
      expect_rejected_or_intact(cut, input);
    }
  }
}

TEST(LfzHardening, BitFlipsNeverCrash) {
  const Bytes input = hardening_payload(20000);
  for (const Bytes& container :
       {compress(input), compress_chunked(input, 4096), compress_lfz2(input, 4096)}) {
    for (std::size_t pos = 0; pos < container.size();
         pos += std::max<std::size_t>(1, container.size() / 211)) {
      for (const int bit : {0, 3, 7}) {
        Bytes flipped = container;
        flipped[pos] = static_cast<std::uint8_t>(flipped[pos] ^ (1u << bit));
        expect_rejected_or_intact(flipped, input);
      }
    }
  }
}

TEST(LfzHardening, ForgedLengthFieldsThrowInsteadOfAllocating) {
  const Bytes input = hardening_payload(4096);

  // LFZ1: the u64 original-size field at offset 4 claims 2^60 bytes.
  Bytes huge = compress(input);
  for (int i = 0; i < 8; ++i) huge[4 + i] = i == 7 ? 0x10 : 0x00;
  EXPECT_THROW((void)decompress(huge), DecodeError);

  for (Bytes container : {compress_chunked(input, 1024), compress_lfz2(input, 1024)}) {
    // Chunked: forge the u32 chunk count at offset 12 to ~4 billion.
    Bytes many = container;
    many[12] = many[13] = many[14] = many[15] = 0xff;
    EXPECT_THROW((void)decompress_chunked(many), DecodeError);

    // And the u64 claimed original size at offset 4.
    Bytes big = container;
    for (int i = 0; i < 8; ++i) big[4 + i] = 0xff;
    EXPECT_THROW((void)decompress_chunked(big), DecodeError);
  }
}

TEST(LfzHardening, WireLabelNeverThrows) {
  const Bytes input = hardening_payload(4096);
  EXPECT_STREQ(wire_label(compress(input)), "lfz1");
  CompressOptions stored;
  stored.store_only = true;
  EXPECT_STREQ(wire_label(compress(input, stored)), "stored");
  EXPECT_STREQ(wire_label(compress_chunked(input, 1024)), "lfzc");
  EXPECT_STREQ(wire_label(compress_lfz2(input, 1024)), "lfz2");
  EXPECT_STREQ(wire_label(Bytes{}), "unknown");
  EXPECT_STREQ(wire_label(Bytes{'L', 'F'}), "unknown");
  EXPECT_STREQ(wire_label(Bytes(3, 0xff)), "unknown");
}

TEST(LfzHardening, StoreOnlyRoundTrips) {
  const Bytes input = hardening_payload(10000);
  CompressOptions opt;
  opt.store_only = true;
  const Bytes packed = compress(input, opt);
  EXPECT_EQ(packed.size(), input.size() + 17);  // header only, no coding
  EXPECT_EQ(decompress(packed), input);
}

TEST(LfzHardening, Lfz2ContainerRoundTripsArbitraryBytes) {
  // compress_lfz2 is byte-transparent: the inter-view prediction lives in
  // the serialization layer above, so any payload must survive.
  Rng rng(8181);
  for (const std::size_t size : {0ul, 1ul, 4095ul, 70000ul}) {
    Bytes data(size);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    const Bytes packed = compress_lfz2(data, 16 * 1024);
    EXPECT_TRUE(is_lfz2(packed));
    EXPECT_TRUE(is_chunked(packed));
    EXPECT_EQ(decompress_chunked(packed), data);
  }
}

TEST(LfzHardening, PooledChunkedRoundTripsMatchSerial) {
  // TSan target: the same chunks compressed/decompressed across a pool must
  // produce byte-identical containers and outputs.
  const Bytes input = hardening_payload(150000);
  ThreadPool pool(3);
  const Bytes serial_c = compress_chunked(input, 16 * 1024);
  const Bytes pooled_c = compress_chunked(input, 16 * 1024, {}, &pool);
  EXPECT_EQ(serial_c, pooled_c);
  const Bytes serial_2 = compress_lfz2(input, 16 * 1024);
  const Bytes pooled_2 = compress_lfz2(input, 16 * 1024, {}, &pool);
  EXPECT_EQ(serial_2, pooled_2);
  EXPECT_EQ(decompress_chunked(pooled_c, &pool), input);
  EXPECT_EQ(decompress_chunked(pooled_2, &pool), input);
}

// --- golden containers ---------------------------------------------------------------

// Captured from the encoder before the table-driven decode path landed; the
// decoder must keep accepting historical LFZ1/LFZC containers bit-for-bit.
#include "golden_lfz_blobs.inc"

TEST(LfzGolden, SeedEncoderContainersStillDecode) {
  const Bytes want = hardening_payload(6000);
  const Bytes lfz1(kGoldenLfz1, kGoldenLfz1 + sizeof(kGoldenLfz1));
  EXPECT_STREQ(wire_label(lfz1), "lfz1");
  EXPECT_EQ(decompress(lfz1), want);

  const Bytes lfzc(kGoldenLfzc, kGoldenLfzc + sizeof(kGoldenLfzc));
  EXPECT_STREQ(wire_label(lfzc), "lfzc");
  EXPECT_EQ(decompress_chunked(lfzc), want);
}

// --- fast vs scalar kernel equivalence --------------------------------------
//
// The vectorized row kernels must be bit-exact against the per-byte scalar
// reference for every filter type, any bpp, and any row length — including
// rows shorter than one pixel. Property-tested over random content.

constexpr FilterType kAllFilters[] = {FilterType::kNone, FilterType::kSub,
                                      FilterType::kUp, FilterType::kAverage,
                                      FilterType::kPaeth};

TEST(FilterKernels, FilterRowFastMatchesScalarOnRandomRows) {
  Rng rng(2026);
  const std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 255, 1024};
  for (const std::size_t bpp : {1u, 2u, 3u, 4u}) {
    for (const std::size_t n : lengths) {
      Bytes row(n), prev(n);
      for (auto& b : row) b = static_cast<std::uint8_t>(rng.below(256));
      for (auto& b : prev) b = static_cast<std::uint8_t>(rng.below(256));
      for (const FilterType type : kAllFilters) {
        for (const bool first_row : {true, false}) {
          const std::span<const std::uint8_t> above =
              first_row ? std::span<const std::uint8_t>{} : std::span<const std::uint8_t>(prev);
          Bytes fast(n, 0xCC), scalar(n, 0x33);
          filter_row(type, row, above, bpp, fast);
          filter_row_scalar(type, row, above, bpp, scalar);
          ASSERT_EQ(fast, scalar)
              << "filter type=" << static_cast<int>(type) << " bpp=" << bpp
              << " n=" << n << " first_row=" << first_row;
        }
      }
    }
  }
}

TEST(FilterKernels, UnfilterRowFastMatchesScalarOnRandomRows) {
  Rng rng(4052);
  const std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 255, 1024};
  for (const std::size_t bpp : {1u, 2u, 3u, 4u}) {
    for (const std::size_t n : lengths) {
      Bytes src(n), prev(n);
      for (auto& b : src) b = static_cast<std::uint8_t>(rng.below(256));
      for (auto& b : prev) b = static_cast<std::uint8_t>(rng.below(256));
      for (const FilterType type : kAllFilters) {
        for (const bool first_row : {true, false}) {
          const std::uint8_t* above = first_row ? nullptr : prev.data();
          Bytes fast(n, 0xCC), scalar(n, 0x33);
          unfilter_row(type, src, fast.data(), above, bpp);
          unfilter_row_scalar(type, src, scalar.data(), above, bpp);
          ASSERT_EQ(fast, scalar)
              << "filter type=" << static_cast<int>(type) << " bpp=" << bpp
              << " n=" << n << " first_row=" << first_row;
        }
      }
    }
  }
}

TEST(FilterKernels, UnfilterImageFastMatchesScalarAndRoundTrips) {
  Rng rng(77);
  for (const auto& [width, height, bpp] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{64, 48, 3},
        {1, 1, 4}, {17, 5, 1}, {2, 300, 2}}) {
    Bytes image(width * height * bpp);
    // Mix of smooth gradient and noise so every filter type gets picked
    // somewhere in the image.
    for (std::size_t i = 0; i < image.size(); ++i) {
      image[i] = static_cast<std::uint8_t>((i % 251) + rng.below(9));
    }
    const Bytes filtered = filter_image(image, width, height, bpp);
    const Bytes fast = unfilter_image(filtered, width, height, bpp);
    const Bytes scalar = unfilter_image_scalar(filtered, width, height, bpp);
    EXPECT_EQ(fast, scalar);
    EXPECT_EQ(fast, image);
  }
}

TEST(FilterKernels, RowShorterThanOnePixelStillMatches) {
  // width*bpp < bpp can't happen per-image, but the row kernels are exposed
  // directly and must handle n < bpp (the head peel covers the whole row).
  const Bytes src{200, 17};
  const Bytes prev{9, 250};
  for (const FilterType type : kAllFilters) {
    Bytes fast(2, 0), scalar(2, 0);
    unfilter_row(type, src, fast.data(), prev.data(), 4);
    unfilter_row_scalar(type, src, scalar.data(), prev.data(), 4);
    EXPECT_EQ(fast, scalar) << "type=" << static_cast<int>(type);
  }
}

TEST(Lfz, DecompressIntoMatchesDecompressAndCountsNoCopiesForLz) {
  const Bytes data = hardening_payload(40000);
  const Bytes packed = compress(data);
  ASSERT_EQ(decompressed_size(packed), data.size());
  Bytes out(data.size(), 0xEE);
  const std::uint64_t before = util::payload_bytes_copied();
  decompress_into(packed, out);
  EXPECT_EQ(out, data);
  // LZ-coded bodies decode straight into the destination: zero meter traffic.
  EXPECT_EQ(util::payload_bytes_copied() - before, 0u);
}

TEST(Lfz, DecompressIntoStoredBodyChargesExactlyOnePass) {
  Rng rng(99);
  Bytes noise(5000);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.below(256));
  const Bytes packed = compress(noise);  // incompressible -> stored method
  Bytes out(noise.size(), 0);
  const std::uint64_t before = util::payload_bytes_copied();
  decompress_into(packed, out);
  EXPECT_EQ(out, noise);
  EXPECT_EQ(util::payload_bytes_copied() - before, noise.size());
}

TEST(Lfz, DecompressIntoRejectsWrongSizedDestination) {
  const Bytes data = hardening_payload(3000);
  const Bytes packed = compress(data);
  Bytes small(data.size() - 1);
  EXPECT_THROW(decompress_into(packed, small), DecodeError);
  Bytes big(data.size() + 1);
  EXPECT_THROW(decompress_into(packed, big), DecodeError);
}

TEST(Lfz, WideMatchCopyExpandsOverlappingRunsExactly) {
  // Exercise the widened match-copy paths: distance 1 (memset), short
  // distances 2..7 (byte loop), and >=8 (8-byte strides), incl. overlap.
  Bytes data;
  for (int d = 1; d <= 40; ++d) {
    for (int i = 0; i < d; ++i) data.push_back(static_cast<std::uint8_t>(i * 13 + d));
    for (int rep = 0; rep < 90; ++rep)
      data.push_back(data[data.size() - static_cast<std::size_t>(d)]);
  }
  const Bytes packed = compress(data);
  EXPECT_EQ(decompress(packed), data);
  Bytes out(data.size());
  decompress_into(packed, out);
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace lon::lfz

#include "compress/lz77.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace lon::lfz {

namespace {

constexpr std::uint32_t kHashBits = 15;
constexpr std::uint32_t kHashSize = 1u << kHashBits;
constexpr std::int32_t kNil = -1;
// Maximum hash-chain positions examined per match attempt. Higher finds
// better matches but costs time (zlib levels span roughly 4..4096).
constexpr int kMaxChain = 128;
// Stop searching early once a match at least this long is found.
constexpr std::uint32_t kGoodEnough = 128;

inline std::uint32_t hash3(const std::uint8_t* p) {
  // Multiplicative hash of a 3-byte window.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint32_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                                  std::uint32_t limit) {
  // Compare eight bytes at a time; the xor of the first mismatching word
  // locates the differing byte with a count-zeros. The match loop dominates
  // compression time on view-set data (long smooth runs), so the wide
  // compare is worth the endian fiddling.
  std::uint32_t n = 0;
  while (n + 8 <= limit) {
    const std::uint64_t diff = load64(a + n) ^ load64(b + n);
    if (diff != 0) {
      const int zeros = std::endian::native == std::endian::little
                            ? std::countr_zero(diff)
                            : std::countl_zero(diff);
      return n + static_cast<std::uint32_t>(zeros >> 3);
    }
    n += 8;
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

}  // namespace

std::vector<Token> lz77_tokenize(std::span<const std::uint8_t> data) {
  std::vector<Token> tokens;
  const std::size_t n = data.size();
  if (n == 0) return tokens;
  tokens.reserve(n / 3);

  std::vector<std::int32_t> head(kHashSize, kNil);
  std::vector<std::int32_t> prev(n, kNil);

  auto insert = [&](std::size_t pos) {
    if (pos + kMinMatch > n) return;
    const std::uint32_t h = hash3(data.data() + pos);
    prev[pos] = head[h];
    head[h] = static_cast<std::int32_t>(pos);
  };

  auto find_match = [&](std::size_t pos) -> Token {
    if (pos + kMinMatch > n) return Token::make_literal(data[pos]);
    const std::uint32_t limit =
        static_cast<std::uint32_t>(std::min<std::size_t>(kMaxMatch, n - pos));
    std::uint32_t best_len = 0;
    std::uint32_t best_dist = 0;
    std::int32_t candidate = head[hash3(data.data() + pos)];
    int chain = kMaxChain;
    while (candidate != kNil && chain-- > 0) {
      const auto cpos = static_cast<std::size_t>(candidate);
      if (pos - cpos > kWindowSize) break;
      const std::uint32_t len = match_length(data.data() + cpos, data.data() + pos, limit);
      if (len > best_len) {
        best_len = len;
        best_dist = static_cast<std::uint32_t>(pos - cpos);
        if (len >= kGoodEnough || len == limit) break;
      }
      candidate = prev[cpos];
    }
    if (best_len >= kMinMatch) return Token::make_match(best_len, best_dist);
    return Token::make_literal(data[pos]);
  };

  std::size_t pos = 0;
  while (pos < n) {
    Token token = find_match(pos);
    if (!token.is_literal() && pos + 1 < n) {
      // One-step lazy evaluation: emit a literal instead if the next
      // position has a strictly longer match.
      insert(pos);
      const Token next = find_match(pos + 1);
      if (!next.is_literal() && next.length > token.length) {
        tokens.push_back(Token::make_literal(data[pos]));
        ++pos;
        token = next;
        insert(pos);  // the deferred position was never inserted
      }
      // pos is in the hash chains by now, one way or the other.
      const std::size_t advance = token.is_literal() ? 1 : token.length;
      tokens.push_back(token);
      // Insert the remaining covered positions (the first is already in).
      for (std::size_t k = 1; k < advance; ++k) insert(pos + k);
      pos += advance;
      continue;
    }
    const std::size_t advance = token.is_literal() ? 1 : token.length;
    tokens.push_back(token);
    for (std::size_t k = 0; k < advance; ++k) insert(pos + k);
    pos += advance;
  }
  return tokens;
}

Bytes lz77_expand(std::span<const Token> tokens, std::size_t size_hint) {
  Bytes out;
  out.reserve(size_hint);
  for (const Token& token : tokens) {
    if (token.is_literal()) {
      out.push_back(token.literal);
      continue;
    }
    if (token.distance == 0 || token.distance > out.size()) {
      throw DecodeError("lz77: reference before start of stream");
    }
    if (token.length < kMinMatch || token.length > kMaxMatch) {
      throw DecodeError("lz77: invalid match length");
    }
    std::size_t from = out.size() - token.distance;
    for (std::uint32_t k = 0; k < token.length; ++k) {
      out.push_back(out[from + k]);  // overlapping copies must run byte-wise
    }
  }
  return out;
}

}  // namespace lon::lfz

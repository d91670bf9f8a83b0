// LZ77 string matching with hash chains (the DEFLATE matcher).
//
// Produces a token stream of literals and (length, distance) references with
// lengths in [3, 258] and distances in [1, 32768]. Greedy matching with a
// one-step lazy evaluation and a bounded hash-chain search.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace lon::lfz {

inline constexpr std::uint32_t kMinMatch = 3;
inline constexpr std::uint32_t kMaxMatch = 258;
inline constexpr std::uint32_t kWindowSize = 32 * 1024;

struct Token {
  // literal when length == 0, reference otherwise.
  std::uint32_t length = 0;
  std::uint32_t distance = 0;
  std::uint8_t literal = 0;

  [[nodiscard]] bool is_literal() const { return length == 0; }

  static Token make_literal(std::uint8_t byte) { return Token{0, 0, byte}; }
  static Token make_match(std::uint32_t length, std::uint32_t distance) {
    return Token{length, distance, 0};
  }
};

/// Tokenizes `data`. The output always reproduces `data` exactly when
/// expanded.
std::vector<Token> lz77_tokenize(std::span<const std::uint8_t> data);

/// Expands a token stream produced by lz77_tokenize. Throws DecodeError on
/// references reaching before the start of output.
Bytes lz77_expand(std::span<const Token> tokens, std::size_t size_hint = 0);

}  // namespace lon::lfz

#include "compress/lz77.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/thread_pool.hpp"

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
// The parallel parse cuts its input into at most kMaxSegments segments of at
// least kSegmentBytes each.
constexpr std::size_t kSegmentBytes = 128 * 1024;
constexpr std::size_t kMaxSegments = 8;

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

/// Hash chains over the last window: head_[h] holds the latest inserted
/// position with hash h, and ring_[p % kWindowSize] the one inserted before p
/// with the same hash. A ring slot is overwritten only by the position one
/// window later, and a chain walk from before that position never reaches
/// back more than a window, so the ring answers exactly what a full-length
/// `prev` array would.
class Matcher {
 public:
  explicit Matcher(std::span<const std::uint8_t> data)
      : data_(data), head_(kHashSize, kNil), ring_(kWindowSize, kNil) {}

  /// Inserts the window before `pos`, so that a parse can start a step there
  /// with the chains a parse from 0 would have.
  void warm(std::size_t pos) {
    for (std::size_t p = pos > kWindowSize ? pos - kWindowSize : 0; p < pos; ++p) insert(p);
  }

  /// Parses one step from `pos`, appends its tokens and returns where the
  /// next step starts. A step is a literal, a match, or a lazily deferred
  /// literal followed by the longer match one byte on. Every position the
  /// step covers is inserted, so the chains always hold every position
  /// from the warm-up start to the next step.
  std::size_t step(std::size_t pos, std::vector<Token>& tokens) {
    const std::size_t n = data_.size();
    Token token = find_match(pos);
    if (!token.is_literal() && pos + 1 < n) {
      // One-step lazy evaluation: emit a literal instead if the next
      // position has a strictly longer match.
      insert(pos);
      const Token next = find_match(pos + 1);
      if (!next.is_literal() && next.length > token.length) {
        tokens.push_back(Token::make_literal(data_[pos]));
        ++pos;
        token = next;
        insert(pos);  // the deferred position was never inserted
      }
      // pos is in the hash chains by now, one way or the other.
      const std::size_t advance = token.is_literal() ? 1 : token.length;
      tokens.push_back(token);
      // Insert the remaining covered positions (the first is already in).
      for (std::size_t k = 1; k < advance; ++k) insert(pos + k);
      return pos + advance;
    }
    const std::size_t advance = token.is_literal() ? 1 : token.length;
    tokens.push_back(token);
    for (std::size_t k = 0; k < advance; ++k) insert(pos + k);
    return pos + advance;
  }

 private:
  void insert(std::size_t pos) {
    if (pos + kMinMatch > data_.size()) return;
    const std::uint32_t h = hash3(data_.data() + pos);
    ring_[pos & (kWindowSize - 1)] = head_[h];
    head_[h] = static_cast<std::int32_t>(pos);
  }

  [[nodiscard]] Token find_match(std::size_t pos) const {
    const std::size_t n = data_.size();
    if (pos + kMinMatch > n) return Token::make_literal(data_[pos]);
    const std::uint32_t limit =
        static_cast<std::uint32_t>(std::min<std::size_t>(kMaxMatch, n - pos));
    std::uint32_t best_len = 0;
    std::uint32_t best_dist = 0;
    std::int32_t candidate = head_[hash3(data_.data() + pos)];
    int chain = kMaxChain;
    while (candidate != kNil && chain-- > 0) {
      const auto cpos = static_cast<std::size_t>(candidate);
      if (pos - cpos > kWindowSize) break;
      const std::uint32_t len =
          match_length(data_.data() + cpos, data_.data() + pos, limit);
      if (len > best_len) {
        best_len = len;
        best_dist = static_cast<std::uint32_t>(pos - cpos);
        if (len >= kGoodEnough || len == limit) break;
      }
      candidate = ring_[cpos & (kWindowSize - 1)];
    }
    if (best_len >= kMinMatch) return Token::make_match(best_len, best_dist);
    return Token::make_literal(data_[pos]);
  }

  std::span<const std::uint8_t> data_;
  std::vector<std::int32_t> head_;
  std::vector<std::int32_t> ring_;
};

/// Where one parse step starts, and the index of its first token.
struct Step {
  std::uint32_t pos;
  std::uint32_t token;
};

/// The parse of the steps that start in [begin, end), begun at `begin` with
/// warmed chains. The constructor, run by the caller, allocates everything
/// parse() writes; parse() runs on a pool worker and allocates nothing.
struct Segment {
  Segment(std::span<const std::uint8_t> data, std::size_t begin, std::size_t end)
      : begin(begin), end(end), matcher(data) {
    // Each step starts at its own position below `end`, and each token at
    // its own position up to `end` (a deferral's match may start there).
    steps.reserve(end - begin);
    tokens.reserve(end - begin + 1);
  }

  void parse() {
    matcher.warm(begin);
    std::size_t pos = begin;
    while (pos < end) {
      steps.push_back(
          {static_cast<std::uint32_t>(pos), static_cast<std::uint32_t>(tokens.size())});
      pos = matcher.step(pos, tokens);
    }
    stop = pos;
  }

  std::size_t begin;
  std::size_t end;
  std::size_t stop = 0;  // where the step after the last one starts
  Matcher matcher;
  std::vector<Step> steps;
  std::vector<Token> tokens;
};

}  // namespace

std::vector<Token> lz77_tokenize(std::span<const std::uint8_t> data) {
  std::vector<Token> out;
  const std::size_t n = data.size();
  if (n == 0) return out;
  if (n > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw std::length_error("lz77: input of 2 GiB or more");
  }

  // Cut by size alone, so every host parses the same segments. A step's
  // tokens depend only on where it starts (the chains hold the whole window
  // before it either way), so each segment is parsed from its own start.
  const std::size_t count = std::clamp<std::size_t>(n / kSegmentBytes, 1, kMaxSegments);
  const std::size_t per = (n + count - 1) / count;
  std::vector<Segment> segments;
  segments.reserve(count);
  for (std::size_t begin = 0; begin < n; begin += per) {
    segments.emplace_back(data, begin, std::min(n, begin + per));
  }
  ThreadPool::shared().parallel_for(
      0, segments.size(), [&](std::size_t k) { segments[k].parse(); }, segments.size());

  // Join: continue the parse so far, on the matcher that made it, until it
  // starts a step where the next segment started one; from there the two
  // parses agree, so take that segment's tokens. A segment whose steps the
  // continuation never meets is parsed over, serially.
  std::size_t total = 0;
  for (const Segment& seg : segments) total += seg.tokens.size();
  out.reserve(total);
  std::size_t pos = 0;
  Matcher* live = nullptr;  // segment 0 joins at position 0, before any step
  for (Segment& seg : segments) {
    auto step = std::lower_bound(seg.steps.begin(), seg.steps.end(), pos,
                                 [](const Step& s, std::size_t p) { return s.pos < p; });
    while (step != seg.steps.end()) {
      if (step->pos == pos) {
        out.insert(out.end(), seg.tokens.begin() + step->token, seg.tokens.end());
        pos = seg.stop;
        live = &seg.matcher;
        break;
      }
      pos = live->step(pos, out);
      while (step != seg.steps.end() && step->pos < pos) ++step;
    }
  }
  while (pos < n) pos = live->step(pos, out);
  return out;
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

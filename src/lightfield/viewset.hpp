// View sets: the unit of light-field storage and transmission.
//
// A view set holds the span x span block of sample views around one patch of
// the camera sphere (6 x 6 views covering 15 degrees in the paper). On the
// wire a view set is serialized (header + predictor-filtered scanlines) and
// lfz-compressed as a single object — "the view sets remain losslessly
// compressed until received by the client".
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lightfield/lattice.hpp"
#include "render/image.hpp"
#include "util/bytes.hpp"

namespace lon::lightfield {

/// How a view set's pixels are arranged before entropy coding.
///
/// kIntra filters each sample view independently (PNG-style predictors).
/// kInterView exploits the *view coherence* the paper builds view sets
/// around ("a view set provides a natural mechanism to exploit view
/// coherence", section 3.2): the first view is intra-coded, every later view
/// is stored as its per-pixel difference from the previous view in the
/// block, which is near-zero for 2.5-degree-apart cameras.
/// The enum value is the mode byte on the wire; deserialize() refuses any
/// other byte.
enum class SerializeMode : std::uint8_t { kIntra = 0, kInterView = 1 };

class ViewSet {
 public:
  ViewSet() = default;
  /// Creates an empty (black) view set of span x span views at the given
  /// resolution.
  ViewSet(ViewSetId id, int span, std::size_t resolution);

  /// The one all-black set of this shape, id {0, 0}, shared by every caller
  /// in the process while any of them holds it. The cache holds each set
  /// weakly, so the last holder frees it. Thread-safe.
  static std::shared_ptr<const ViewSet> blank(int span, std::size_t resolution);

  [[nodiscard]] ViewSetId id() const { return id_; }
  [[nodiscard]] int span() const { return span_; }
  [[nodiscard]] std::size_t resolution() const { return resolution_; }
  [[nodiscard]] std::size_t view_count() const { return views_.size(); }

  /// Sample view at block-local (row, col), 0 <= row, col < span.
  [[nodiscard]] const render::ImageRGB8& view(int row, int col) const;
  [[nodiscard]] render::ImageRGB8& view(int row, int col);

  /// Uncompressed payload size: span^2 * resolution^2 * 3 bytes.
  [[nodiscard]] std::uint64_t pixel_bytes() const;

  /// Serializes (header + pixels arranged per `mode`). Lossless either way.
  [[nodiscard]] Bytes serialize(SerializeMode mode = SerializeMode::kIntra) const;
  static ViewSet deserialize(const Bytes& data);

  /// serialize() + lfz compression in one step.
  [[nodiscard]] Bytes compress(SerializeMode mode = SerializeMode::kIntra) const;

  /// Inverse of compress(): accepts an LFZ1 container of either mode.
  static ViewSet decompress(const Bytes& compressed);

  bool operator==(const ViewSet&) const = default;

 private:
  ViewSetId id_;
  int span_ = 0;
  std::size_t resolution_ = 0;
  std::vector<render::ImageRGB8> views_;  // row-major within the block
};

}  // namespace lon::lightfield

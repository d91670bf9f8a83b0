#include "lightfield/viewset.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "compress/filters.hpp"
#include "compress/lfz.hpp"

namespace lon::lightfield {

namespace {

constexpr std::uint32_t kViewSetMagic = 0x4c465653;  // "LFVS"

}  // namespace

ViewSet::ViewSet(ViewSetId id, int span, std::size_t resolution)
    : id_(id), span_(span), resolution_(resolution) {
  if (span < 1 || resolution < 1) throw std::invalid_argument("ViewSet: bad shape");
  views_.assign(static_cast<std::size_t>(span) * static_cast<std::size_t>(span),
                render::ImageRGB8(resolution, resolution));
}

std::shared_ptr<const ViewSet> ViewSet::blank(int span, std::size_t resolution) {
  static std::mutex mutex;
  static std::map<std::pair<int, std::size_t>, std::weak_ptr<const ViewSet>> sets;
  const std::lock_guard lock(mutex);
  std::weak_ptr<const ViewSet>& slot = sets[{span, resolution}];
  std::shared_ptr<const ViewSet> set = slot.lock();
  if (set == nullptr) {
    set = std::make_shared<const ViewSet>(ViewSetId{}, span, resolution);
    slot = set;
  }
  return set;
}

const render::ImageRGB8& ViewSet::view(int row, int col) const {
  if (row < 0 || col < 0 || row >= span_ || col >= span_) {
    throw std::out_of_range("ViewSet::view: index out of block");
  }
  return views_[static_cast<std::size_t>(row) * static_cast<std::size_t>(span_) +
                static_cast<std::size_t>(col)];
}

render::ImageRGB8& ViewSet::view(int row, int col) {
  return const_cast<render::ImageRGB8&>(std::as_const(*this).view(row, col));
}

std::uint64_t ViewSet::pixel_bytes() const {
  return static_cast<std::uint64_t>(views_.size()) * resolution_ * resolution_ * 3;
}

Bytes ViewSet::serialize(SerializeMode mode) const {
  ByteWriter out(pixel_bytes() + 64);
  out.u32(kViewSetMagic);
  out.u32(static_cast<std::uint32_t>(id_.row));
  out.u32(static_cast<std::uint32_t>(id_.col));
  out.u32(static_cast<std::uint32_t>(span_));
  out.u32(static_cast<std::uint32_t>(resolution_));
  out.u8(static_cast<std::uint8_t>(mode));
  if (mode == SerializeMode::kIntra) {
    for (const auto& image : views_) {
      // Predictor-filter each view so the entropy coder sees residuals.
      out.raw(lfz::filter_image(image.bytes(), resolution_, resolution_, 3));
    }
  } else {
    // View 0 intra; views 1..n-1 as per-pixel differences from the previous
    // view — angular coherence makes these residuals near-zero. The residual
    // planes keep spatial structure (parallax edges), so they go through the
    // scanline predictors as well (the per-row None fallback caps the cost).
    out.raw(lfz::filter_image(views_.front().bytes(), resolution_, resolution_, 3));
    for (std::size_t v = 1; v < views_.size(); ++v) {
      const Bytes& cur = views_[v].bytes();
      const Bytes& prev = views_[v - 1].bytes();
      Bytes residual(cur.size());
      for (std::size_t i = 0; i < cur.size(); ++i) {
        residual[i] = static_cast<std::uint8_t>(cur[i] - prev[i]);
      }
      out.raw(lfz::filter_image(residual, resolution_, resolution_, 3));
    }
  }
  return out.take();
}

ViewSet ViewSet::deserialize(const Bytes& data) {
  ByteReader in(data);
  if (in.u32() != kViewSetMagic) throw DecodeError("ViewSet: bad magic");
  ViewSetId id;
  id.row = static_cast<int>(in.u32());
  id.col = static_cast<int>(in.u32());
  const auto span = static_cast<int>(in.u32());
  const std::size_t resolution = in.u32();
  if (span < 1 || span > 64 || resolution < 1 || resolution > 8192) {
    throw DecodeError("ViewSet: implausible shape");
  }
  const auto mode_byte = in.u8();
  if (mode_byte > static_cast<std::uint8_t>(SerializeMode::kInterView)) {
    throw DecodeError("ViewSet: unknown serialize mode");
  }
  const auto mode = static_cast<SerializeMode>(mode_byte);

  // Check the claimed shape against the body before allocating it: a short
  // forged header may claim hundreds of gigabytes. An exact match also
  // rejects trailing bytes.
  const std::size_t views = static_cast<std::size_t>(span) * static_cast<std::size_t>(span);
  const std::size_t filtered_size = resolution * (resolution * 3 + 1);
  if (in.remaining() != views * filtered_size) {
    throw DecodeError("ViewSet: body size does not match shape");
  }
  ViewSet vs(id, span, resolution);
  const std::size_t plane_size = resolution * resolution * 3;
  for (std::size_t v = 0; v < vs.views_.size(); ++v) {
    if (mode == SerializeMode::kIntra || v == 0) {
      const auto filtered = in.raw(filtered_size);
      vs.views_[v].bytes() = lfz::unfilter_image(filtered, resolution, resolution, 3);
    } else {
      const Bytes residual =
          lfz::unfilter_image(in.raw(filtered_size), resolution, resolution, 3);
      const Bytes& prev = vs.views_[v - 1].bytes();
      Bytes& cur = vs.views_[v].bytes();
      for (std::size_t i = 0; i < plane_size; ++i) {
        cur[i] = static_cast<std::uint8_t>(prev[i] + residual[i]);
      }
    }
  }
  return vs;
}

Bytes ViewSet::compress(SerializeMode mode) const { return lfz::compress(serialize(mode)); }

ViewSet ViewSet::decompress(const Bytes& compressed) {
  return deserialize(lfz::decompress(compressed));
}

}  // namespace lon::lightfield

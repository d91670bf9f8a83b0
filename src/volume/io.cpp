#include "volume/io.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util/bytes.hpp"

namespace lon::volume {

namespace {
constexpr std::uint32_t kLvolMagic = 0x4c564f4c;  // "LVOL"
}

void save_raw_u8(const ScalarVolume& volume, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_raw_u8: cannot open " + path);
  for (const float v : volume.data()) {
    // Quantize through unsigned char: values above 127 do not fit a signed
    // char, and a float-to-char cast out of range is undefined.
    const auto byte =
        static_cast<unsigned char>(std::clamp(v, 0.0f, 1.0f) * 255.0f + 0.5f);
    out.put(static_cast<char>(byte));
  }
}

ScalarVolume load_raw_u8(const std::string& path, std::size_t nx, std::size_t ny,
                         std::size_t nz) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_raw_u8: cannot open " + path);
  Bytes data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (data.size() != nx * ny * nz) {
    throw std::runtime_error("load_raw_u8: file holds " + std::to_string(data.size()) +
                             " voxels, expected " + std::to_string(nx * ny * nz));
  }
  ScalarVolume volume(nx, ny, nz);
  for (std::size_t i = 0; i < data.size(); ++i) {
    volume.data()[i] = static_cast<float>(data[i]) / 255.0f;
  }
  return volume;
}

void save_lvol(const ScalarVolume& volume, const std::string& path) {
  ByteWriter out;
  out.u32(kLvolMagic);
  out.u32(static_cast<std::uint32_t>(volume.nx()));
  out.u32(static_cast<std::uint32_t>(volume.ny()));
  out.u32(static_cast<std::uint32_t>(volume.nz()));
  for (const float v : volume.data()) out.f32(v);

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw std::runtime_error("save_lvol: cannot open " + path);
  file.write(reinterpret_cast<const char*>(out.bytes().data()),
             static_cast<std::streamsize>(out.size()));
}

ScalarVolume load_lvol(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("load_lvol: cannot open " + path);
  Bytes data((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  try {
    ByteReader in(data);
    if (in.u32() != kLvolMagic) throw std::runtime_error("load_lvol: bad magic");
    const std::size_t nx = in.u32();
    const std::size_t ny = in.u32();
    const std::size_t nz = in.u32();
    ScalarVolume volume(nx, ny, nz);
    for (float& v : volume.data()) v = in.f32();
    if (!in.done()) throw std::runtime_error("load_lvol: trailing bytes");
    return volume;
  } catch (const DecodeError& e) {
    throw std::runtime_error(std::string("load_lvol: truncated file: ") + e.what());
  }
}

}  // namespace lon::volume

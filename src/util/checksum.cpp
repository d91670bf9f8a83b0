#include "util/checksum.hpp"

#include <array>

namespace lon {
namespace {

constexpr std::uint32_t kAdlerMod = 65521;  // largest prime below 2^16

// table[0] is the classic byte table. table[k][b] is the CRC contribution of
// byte b followed by k zero bytes, so sixteen lookups fold sixteen bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

CrcTables make_crc_tables() {
  CrcTables table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[0][i] = c;
  }
  for (std::size_t k = 1; k < table.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = table[k - 1][i];
      table[k][i] = (prev >> 8) ^ table[0][prev & 0xff];
    }
  }
  return table;
}

const CrcTables& crc_tables() {
  static const auto tables = make_crc_tables();
  return tables;
}

/// Little-endian 32-bit word from four bytes, whatever the host byte order.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t adler32(std::span<const std::uint8_t> data, std::uint32_t adler) {
  std::uint32_t a = adler & 0xffff;
  std::uint32_t b = (adler >> 16) & 0xffff;
  std::size_t i = 0;
  while (i < data.size()) {
    // 5552 is the largest n such that 255*n*(n+1)/2 + (n+1)*(kAdlerMod-1)
    // fits in 32 bits; defer the modulo until then (zlib's trick).
    std::size_t chunk = std::min<std::size_t>(5552, data.size() - i);
    for (std::size_t j = 0; j < chunk; ++j) {
      a += data[i + j];
      b += a;
    }
    a %= kAdlerMod;
    b %= kAdlerMod;
    i += chunk;
  }
  return (b << 16) | a;
}

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t crc) {
  const auto& t = crc_tables();
  std::uint32_t c = crc ^ 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 16; n -= 16, p += 16) {
    // The running CRC folds into the first word; byte i of the block still
    // has 15 - i bytes after it, so it is looked up in table[15 - i].
    const std::uint32_t w0 = load_le32(p) ^ c;
    const std::uint32_t w1 = load_le32(p + 4);
    const std::uint32_t w2 = load_le32(p + 8);
    const std::uint32_t w3 = load_le32(p + 12);
    c = t[15][w0 & 0xff] ^ t[14][(w0 >> 8) & 0xff] ^ t[13][(w0 >> 16) & 0xff] ^
        t[12][w0 >> 24] ^ t[11][w1 & 0xff] ^ t[10][(w1 >> 8) & 0xff] ^
        t[9][(w1 >> 16) & 0xff] ^ t[8][w1 >> 24] ^ t[7][w2 & 0xff] ^
        t[6][(w2 >> 8) & 0xff] ^ t[5][(w2 >> 16) & 0xff] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xff] ^ t[2][(w3 >> 8) & 0xff] ^ t[1][(w3 >> 16) & 0xff] ^
        t[0][w3 >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data, std::uint32_t crc) {
  const auto& table = crc_tables()[0];
  std::uint32_t c = crc ^ 0xffffffffu;
  for (std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace lon

// Checksums used by the lfz compressed container (Adler-32, as in zlib) and
// by LoRS as the per-block exNode checksum (CRC-32, IEEE polynomial): it is
// computed for every block at upload, stored as the extent's `crc32`
// attribute, and verified on each download.
#pragma once

#include <cstdint>
#include <span>

namespace lon {

/// Adler-32 over the given bytes, continuing from a previous value.
/// Start with adler = 1 (the zlib convention).
std::uint32_t adler32(std::span<const std::uint8_t> data, std::uint32_t adler = 1);

/// CRC-32 (IEEE 802.3 polynomial, reflected), continuing from a previous
/// value. Start with crc = 0. Slicing-by-16: sixteen input bytes per table
/// step, byte-at-a-time for the tail.
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t crc = 0);

/// The byte-at-a-time table loop: the reference that tests and benches
/// compare crc32() against. Returns exactly what crc32() returns.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data, std::uint32_t crc = 0);

}  // namespace lon

// Synthetic scientific datasets.
//
// The paper evaluates on negHip — the 64^3 electrical potential of a
// negative high-energy protein. We do not have that file, so
// make_neghip_like() builds a field with the same size and character: the
// summed Coulomb potential of a seeded arrangement of positive and negative
// point charges, normalized to [0, 1].
#pragma once

#include <cstddef>
#include <cstdint>

#include "volume/volume.hpp"

namespace lon::volume {

/// Coulomb potential of `charges` point charges (alternating sign) placed
/// pseudo-randomly inside the unit cube. Deterministic per seed.
ScalarVolume make_neghip_like(std::size_t n = 64, std::uint64_t seed = 2003,
                              int charges = 14);

}  // namespace lon::volume

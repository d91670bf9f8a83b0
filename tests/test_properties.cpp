// Property-based tests: invariants checked over parameter sweeps and
// seeded random workloads (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>

#include "compress/lfz.hpp"
#include "exnode/exnode.hpp"
#include "ibp/depot.hpp"
#include "lightfield/lattice.hpp"
#include "simnet/network.hpp"
#include "util/rng.hpp"

namespace lon {
namespace {

// --- lattice geometry invariants over many configurations ------------------------

// GoogleTest names each instance by a byte dump of its parameter, so the
// parameter structs are laid out without padding: padding bytes hold whatever
// was on the stack, and the test names would change from run to run.
struct LatticeParam {
  double step;
  std::int64_t span;
};
static_assert(sizeof(LatticeParam) == sizeof(double) + sizeof(std::int64_t));

class LatticeProperties : public ::testing::TestWithParam<LatticeParam> {
 protected:
  lightfield::SphericalLattice make() const {
    lightfield::LatticeConfig cfg;
    cfg.angular_step_deg = GetParam().step;
    cfg.view_set_span = static_cast<int>(GetParam().span);
    cfg.view_resolution = 8;
    return lightfield::SphericalLattice(cfg);
  }
};

TEST_P(LatticeProperties, EveryDirectionMapsToAValidViewSet) {
  const auto lattice = make();
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const Spherical dir{rng.uniform(1e-6, kPi - 1e-6), rng.uniform(0.0, 2 * kPi)};
    const auto id = lattice.view_set_of(dir);
    EXPECT_TRUE(lattice.valid(id));
    const int q = lattice.quadrant_of(dir);
    EXPECT_GE(q, 0);
    EXPECT_LE(q, 3);
    for (const auto& target : lattice.prefetch_targets(id, q)) {
      EXPECT_TRUE(lattice.valid(target));
    }
  }
}

TEST_P(LatticeProperties, ViewSetsPartitionTheLattice) {
  const auto lattice = make();
  std::map<std::pair<int, int>, std::size_t> counts;
  for (std::size_t r = 0; r < lattice.rows(); ++r) {
    for (std::size_t c = 0; c < lattice.cols(); ++c) {
      const auto id = lattice.view_set_of(r, c);
      EXPECT_TRUE(lattice.valid(id));
      ++counts[{id.row, id.col}];
    }
  }
  // Every view set holds exactly span^2 samples; together they cover all.
  const auto span = static_cast<std::size_t>(GetParam().span);
  EXPECT_EQ(counts.size(), lattice.view_set_count());
  for (const auto& [id, n] : counts) EXPECT_EQ(n, span * span);
}

TEST_P(LatticeProperties, NeighborsAreMutual) {
  const auto lattice = make();
  for (const auto& id : lattice.all_view_sets()) {
    for (const auto& n : lattice.neighbors(id)) {
      const auto back = lattice.neighbors(n);
      EXPECT_NE(std::find(back.begin(), back.end(), id), back.end())
          << id.key() << " <-> " << n.key();
    }
  }
}

TEST_P(LatticeProperties, PrefetchTargetsAreNeighborsOfTheCenter) {
  const auto lattice = make();
  for (const auto& id : lattice.all_view_sets()) {
    const auto neighbors = lattice.neighbors(id);
    for (int q = 0; q < 4; ++q) {
      for (const auto& target : lattice.prefetch_targets(id, q)) {
        EXPECT_NE(std::find(neighbors.begin(), neighbors.end(), target),
                  neighbors.end());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LatticeProperties,
                         ::testing::Values(LatticeParam{15.0, 3}, LatticeParam{7.5, 3},
                                           LatticeParam{15.0, 2}, LatticeParam{22.5, 2},
                                           LatticeParam{5.0, 6}, LatticeParam{2.5, 6}));

// --- depot invariants under random operation sequences -----------------------------

class DepotFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DepotFuzz, AccountingStaysConsistent) {
  sim::Simulator sim;
  ibp::DepotConfig cfg;
  cfg.capacity_bytes = 50'000;
  cfg.max_alloc_bytes = 8'000;
  cfg.max_lease = 60 * kSecond;
  ibp::Depot depot(sim, "fuzz", cfg);
  Rng rng(GetParam());

  struct Live {
    ibp::CapabilitySet caps;
    std::uint64_t size;
    Bytes shadow;  // what we believe is stored
  };
  std::vector<Live> live;

  for (int op = 0; op < 3000; ++op) {
    switch (rng.below(6)) {
      case 0: {  // allocate
        ibp::AllocRequest req;
        req.size = 1 + rng.below(10'000);  // sometimes over the admission cap
        req.lease = kSecond * (1 + rng.below(100));
        req.type = rng.below(3) == 0 ? ibp::AllocType::kSoft : ibp::AllocType::kHard;
        const auto result = depot.allocate(req);
        if (result.status == ibp::IbpStatus::kOk) {
          live.push_back({result.caps, req.size, Bytes(req.size, 0)});
        } else {
          EXPECT_TRUE(result.status == ibp::IbpStatus::kRefused ||
                      result.status == ibp::IbpStatus::kNoCapacity);
        }
        break;
      }
      case 1: {  // store
        if (live.empty()) break;
        Live& target = live[rng.below(live.size())];
        const std::uint64_t offset = rng.below(target.size);
        const std::uint64_t len = 1 + rng.below(target.size - offset);
        Bytes data(len);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
        if (depot.store(target.caps.write, offset, data) == ibp::IbpStatus::kOk) {
          std::copy(data.begin(), data.end(),
                    target.shadow.begin() + static_cast<long>(offset));
        }
        break;
      }
      case 2: {  // load and verify against the shadow copy
        if (live.empty()) break;
        Live& target = live[rng.below(live.size())];
        Bytes out;
        const auto status = depot.load(target.caps.read, 0, target.size, out);
        if (status == ibp::IbpStatus::kOk) {
          EXPECT_EQ(out, target.shadow);
        }
        break;
      }
      case 3: {  // release
        if (live.empty()) break;
        const std::size_t index = rng.below(live.size());
        (void)depot.release(live[index].caps.manage);
        live.erase(live.begin() + static_cast<long>(index));
        break;
      }
      case 4: {  // time passes; leases may lapse
        sim.run_until(sim.now() + kSecond * rng.below(20));
        break;
      }
      case 5: {  // sweep
        depot.sweep_expired();
        break;
      }
    }
    // Invariants after every operation.
    ASSERT_LE(depot.bytes_used(), cfg.capacity_bytes);
    ASSERT_EQ(depot.bytes_used() + depot.bytes_free(), cfg.capacity_bytes);
  }

  // Whatever is still alive must carry exactly the bytes we wrote, or have
  // been reclaimed for one of the legal reasons.
  for (const Live& entry : live) {
    Bytes out;
    const auto status = depot.load(entry.caps.read, 0, entry.size, out);
    if (status == ibp::IbpStatus::kOk) {
      EXPECT_EQ(out, entry.shadow);
    } else {
      EXPECT_TRUE(status == ibp::IbpStatus::kExpired ||
                  status == ibp::IbpStatus::kRevoked)
          << "unexpected: " << ibp::to_string(status);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DepotFuzz, ::testing::Values(1, 2, 3, 4, 5));

// --- network conservation laws -----------------------------------------------------

class NetworkConservation : public ::testing::TestWithParam<int> {};

TEST_P(NetworkConservation, RatesNeverExceedLinkCapacity) {
  sim::Simulator sim;
  sim::Network net(sim);
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  constexpr double kCapacityBps = 80e6;  // 10 MB/s
  net.add_link(a, b, {kCapacityBps, kMillisecond, 0.0});

  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<sim::FlowId> flows;
  int completed = 0;
  // A staggered mix of sizes, weights and stream counts.
  for (int i = 0; i < 25; ++i) {
    sim.after(kMillisecond * rng.below(2000), [&, i] {
      sim::TransferOptions opts;
      opts.weight = 0.5 + rng.uniform() * 3.0;
      opts.streams = 1 + static_cast<int>(rng.below(8));
      opts.window_bytes = 1 << 22;
      flows.push_back(net.start_transfer(
          a, b, 100'000 + rng.below(5'000'000), opts,
          [&](const sim::TransferResult&) { ++completed; }));
    });
  }
  // Interleave capacity checks with execution.
  for (int checks = 0; checks < 500 && !sim.idle(); ++checks) {
    sim.step();
    double total_rate = 0.0;
    for (const auto id : flows) total_rate += net.flow_rate(id);
    ASSERT_LE(total_rate, kCapacityBps / 8.0 * 1.0001)
        << "aggregate allocation exceeds the link";
  }
  sim.run();
  EXPECT_EQ(completed, 25);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkConservation, ::testing::Values(11, 22, 33));

// --- exnode completeness is equivalent to gap-free replica coverage ------------------

class ExNodeCoverage : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExNodeCoverage, CompleteIffNoGapsAndAllReplicated) {
  Rng rng(GetParam());
  const std::uint64_t length = 1000;
  // Random partition of [0, length) into extents.
  std::vector<std::uint64_t> cuts = {0, length};
  for (int i = 0; i < 6; ++i) cuts.push_back(1 + rng.below(length - 1));
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Randomly drop one extent or one extent's replicas.
  const bool drop_extent = rng.below(2) == 0;
  const std::size_t victim = rng.below(cuts.size() - 1);

  exnode::ExNode node(length);
  bool damaged = false;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    if (drop_extent && i == victim) {
      damaged = true;
      continue;
    }
    exnode::Extent extent;
    extent.offset = cuts[i];
    extent.length = cuts[i + 1] - cuts[i];
    if (!drop_extent && i == victim) {
      damaged = true;  // extent exists but has no replica
    } else {
      exnode::Replica rep;
      rep.read.depot = "d";
      rep.read.depot += std::to_string(i % 3);
      rep.read.allocation = i;
      rep.read.key = 1;
      extent.replicas.push_back(rep);
    }
    node.add_extent(std::move(extent));
  }
  EXPECT_EQ(node.complete(), !damaged);
  // XML round trip preserves completeness verdict.
  EXPECT_EQ(exnode::ExNode::from_xml(node.to_xml()).complete(), !damaged);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExNodeCoverage,
                         ::testing::Values(7, 8, 9, 10, 11, 12, 13, 14));

// --- codec: compression never loses data across content types ------------------------

struct CodecParam {
  std::uint64_t seed;
  std::int64_t kind;  // 0 random, 1 runs, 2 text-ish, 3 gradient
};
static_assert(sizeof(CodecParam) == 2 * sizeof(std::int64_t));

class CodecProperty : public ::testing::TestWithParam<CodecParam> {};

TEST_P(CodecProperty, RoundTripAndSizeSanity) {
  Rng rng(GetParam().seed);
  Bytes data(64'000);
  switch (GetParam().kind) {
    case 0:
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
      break;
    case 1: {
      std::uint8_t value = 0;
      for (auto& b : data) {
        if (rng.below(40) == 0) value = static_cast<std::uint8_t>(rng.next());
        b = value;
      }
      break;
    }
    case 2:
      for (auto& b : data) b = static_cast<std::uint8_t>('a' + rng.below(26));
      break;
    case 3:
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>((i / 64) & 0xff);
      }
      break;
  }
  const Bytes packed = lfz::compress(data);
  EXPECT_EQ(lfz::decompress(packed), data);
  // Never catastrophically larger (stored fallback caps the overhead).
  EXPECT_LE(packed.size(), data.size() + 32);
  if (GetParam().kind == 1 || GetParam().kind == 3) {
    EXPECT_LT(packed.size(), data.size() / 4);  // runs/gradients must shrink
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, CodecProperty,
                         ::testing::Values(CodecParam{1, 0}, CodecParam{2, 0},
                                           CodecParam{3, 1}, CodecParam{4, 1},
                                           CodecParam{5, 2}, CodecParam{6, 2},
                                           CodecParam{7, 3}, CodecParam{8, 3}));

}  // namespace
}  // namespace lon

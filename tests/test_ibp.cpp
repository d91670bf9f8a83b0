// Unit tests for IBP: capability encoding, depot storage semantics (leases,
// admission control, soft revocation, copy-on-write buffer sharing) and
// network-facing fabric operations including third-party copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>

#include "ibp/capability.hpp"
#include "ibp/depot.hpp"
#include "ibp/service.hpp"
#include "simnet/network.hpp"

namespace lon::ibp {
namespace {

// --- capabilities -------------------------------------------------------------

TEST(Capability, UriRoundTrip) {
  Capability cap;
  cap.depot = "ca-depot-1";
  cap.allocation = 42;
  cap.key = 0xdeadbeefcafef00dULL;
  cap.kind = CapKind::kWrite;
  const auto parsed = Capability::parse(cap.to_uri());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, cap);
}

TEST(Capability, AllKindsRoundTrip) {
  for (const CapKind kind : {CapKind::kRead, CapKind::kWrite, CapKind::kManage}) {
    Capability cap;
    cap.depot = "d";
    cap.allocation = 1;
    cap.key = 7;
    cap.kind = kind;
    const auto parsed = Capability::parse(cap.to_uri());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->kind, kind);
  }
}

TEST(Capability, ParseRejectsMalformedUris) {
  EXPECT_FALSE(Capability::parse("http://depot/1#a/read").has_value());
  EXPECT_FALSE(Capability::parse("ibp://depot").has_value());
  EXPECT_FALSE(Capability::parse("ibp:///1#a/read").has_value());
  EXPECT_FALSE(Capability::parse("ibp://depot/xyz#a/read").has_value());
  EXPECT_FALSE(Capability::parse("ibp://depot/1#zz_bad/read").has_value());
  EXPECT_FALSE(Capability::parse("ibp://depot/1#a/owner").has_value());
  EXPECT_FALSE(Capability::parse("").has_value());
}

// --- depot ---------------------------------------------------------------------

class DepotTest : public ::testing::Test {
 protected:
  DepotTest() : depot_(sim_, "d1", make_config()) {}

  static DepotConfig make_config() {
    DepotConfig cfg;
    cfg.capacity_bytes = 10'000;
    cfg.max_alloc_bytes = 4'000;
    cfg.max_lease = 100 * kSecond;
    return cfg;
  }

  CapabilitySet must_allocate(std::uint64_t size, SimDuration lease = 10 * kSecond,
                              AllocType type = AllocType::kHard) {
    const auto result = depot_.allocate({size, lease, type});
    EXPECT_EQ(result.status, IbpStatus::kOk);
    return result.caps;
  }

  sim::Simulator sim_;
  Depot depot_;
};

TEST_F(DepotTest, AllocateStoreLoadRoundTrip) {
  const auto caps = must_allocate(100);
  const Bytes data = {10, 20, 30, 40, 50};
  EXPECT_EQ(depot_.store(caps.write, 0, data), IbpStatus::kOk);
  Bytes out;
  EXPECT_EQ(depot_.load(caps.read, 0, 5, out), IbpStatus::kOk);
  EXPECT_EQ(out, data);
}

TEST_F(DepotTest, StoreAtOffsetAndPartialLoad) {
  const auto caps = must_allocate(100);
  const Bytes data = {1, 2, 3, 4};
  EXPECT_EQ(depot_.store(caps.write, 10, data), IbpStatus::kOk);
  Bytes out;
  EXPECT_EQ(depot_.load(caps.read, 11, 2, out), IbpStatus::kOk);
  EXPECT_EQ(out, (Bytes{2, 3}));
}

TEST_F(DepotTest, WrongKindOrKeyIsRejected) {
  const auto caps = must_allocate(100);
  Bytes out;
  // Read with the write capability.
  EXPECT_EQ(depot_.load(caps.write, 0, 1, out), IbpStatus::kBadCapability);
  // Store with the read capability.
  EXPECT_EQ(depot_.store(caps.read, 0, Bytes{1}), IbpStatus::kBadCapability);
  // Forged key.
  Capability forged = caps.read;
  forged.key ^= 1;
  EXPECT_EQ(depot_.load(forged, 0, 1, out), IbpStatus::kBadCapability);
  // Wrong depot name.
  Capability other = caps.read;
  other.depot = "elsewhere";
  EXPECT_EQ(depot_.load(other, 0, 1, out), IbpStatus::kBadCapability);
}

TEST_F(DepotTest, OutOfRangeAccess) {
  const auto caps = must_allocate(100);
  Bytes out;
  EXPECT_EQ(depot_.load(caps.read, 90, 20, out), IbpStatus::kBadRange);
  EXPECT_EQ(depot_.load(caps.read, 200, 1, out), IbpStatus::kBadRange);
  EXPECT_EQ(depot_.store(caps.write, 99, Bytes{1, 2}), IbpStatus::kBadRange);
}

TEST_F(DepotTest, AdmissionRefusesOversizeAndOverlongRequests) {
  EXPECT_EQ(depot_.allocate({5'000, kSecond, AllocType::kHard}).status, IbpStatus::kRefused);
  EXPECT_EQ(depot_.allocate({100, 1'000 * kSecond, AllocType::kHard}).status,
            IbpStatus::kRefused);
  EXPECT_EQ(depot_.allocate({0, kSecond, AllocType::kHard}).status, IbpStatus::kRefused);
  EXPECT_EQ(depot_.stats().allocations_refused, 3u);
}

TEST_F(DepotTest, CapacityExhaustionReportsNoCapacity) {
  must_allocate(4'000);
  must_allocate(4'000);
  EXPECT_EQ(depot_.allocate({4'000, kSecond, AllocType::kHard}).status,
            IbpStatus::kNoCapacity);
  EXPECT_EQ(depot_.bytes_used(), 8'000u);
}

TEST_F(DepotTest, LeaseExpiryReclaimsLazily) {
  const auto caps = must_allocate(100, 5 * kSecond);
  sim_.run_until(4 * kSecond);
  Bytes out;
  EXPECT_EQ(depot_.load(caps.read, 0, 1, out), IbpStatus::kOk);
  sim_.run_until(6 * kSecond);
  EXPECT_EQ(depot_.load(caps.read, 0, 1, out), IbpStatus::kExpired);
  EXPECT_EQ(depot_.allocation_count(), 0u);
  // A second access still reports expired (tombstone), not not-found.
  EXPECT_EQ(depot_.load(caps.read, 0, 1, out), IbpStatus::kExpired);
}

TEST_F(DepotTest, SweepReclaimsAllExpired) {
  must_allocate(100, 2 * kSecond);
  must_allocate(100, 3 * kSecond);
  must_allocate(100, 50 * kSecond);
  sim_.run_until(10 * kSecond);
  EXPECT_EQ(depot_.sweep_expired(), 2u);
  EXPECT_EQ(depot_.allocation_count(), 1u);
  EXPECT_EQ(depot_.bytes_used(), 100u);
}

TEST_F(DepotTest, ExtendRenewsLease) {
  const auto caps = must_allocate(100, 5 * kSecond);
  sim_.run_until(4 * kSecond);
  EXPECT_EQ(depot_.extend(caps.manage, 10 * kSecond), IbpStatus::kOk);
  sim_.run_until(9 * kSecond);
  Bytes out;
  EXPECT_EQ(depot_.load(caps.read, 0, 1, out), IbpStatus::kOk);
  // Extension beyond the admission cap is refused.
  EXPECT_EQ(depot_.extend(caps.manage, 1'000 * kSecond), IbpStatus::kRefused);
}

TEST_F(DepotTest, ProbeReportsMetadata) {
  const auto caps = must_allocate(100, 5 * kSecond, AllocType::kSoft);
  depot_.store(caps.write, 0, Bytes{1, 2, 3});
  AllocInfo info;
  ASSERT_EQ(depot_.probe(caps.manage, info), IbpStatus::kOk);
  EXPECT_EQ(info.size, 100u);
  EXPECT_EQ(info.bytes_written, 3u);
  EXPECT_EQ(info.type, AllocType::kSoft);
  EXPECT_EQ(info.expires, 5 * kSecond);
}

TEST_F(DepotTest, ReleaseFreesSpace) {
  const auto caps = must_allocate(4'000);
  EXPECT_EQ(depot_.release(caps.manage), IbpStatus::kOk);
  EXPECT_EQ(depot_.bytes_used(), 0u);
  Bytes out;
  EXPECT_EQ(depot_.load(caps.read, 0, 1, out), IbpStatus::kNotFound);
}

TEST_F(DepotTest, SoftAllocationsAreRevokedUnderPressure) {
  // Fill with soft allocations, then ask for a hard one.
  const auto s1 = must_allocate(4'000, 50 * kSecond, AllocType::kSoft);
  sim_.run_until(kSecond);
  const auto s2 = must_allocate(4'000, 50 * kSecond, AllocType::kSoft);
  sim_.run_until(2 * kSecond);
  const auto hard = depot_.allocate({4'000, 10 * kSecond, AllocType::kHard});
  EXPECT_EQ(hard.status, IbpStatus::kOk);
  // The least recently accessed soft allocation (s1) was the victim.
  Bytes out;
  EXPECT_EQ(depot_.load(s1.read, 0, 1, out), IbpStatus::kRevoked);
  EXPECT_EQ(depot_.load(s2.read, 0, 1, out), IbpStatus::kOk);
  EXPECT_EQ(depot_.stats().soft_revoked, 1u);
}

TEST_F(DepotTest, LruOrderRespectsAccessTime) {
  const auto s1 = must_allocate(4'000, 50 * kSecond, AllocType::kSoft);
  sim_.run_until(kSecond);
  const auto s2 = must_allocate(4'000, 50 * kSecond, AllocType::kSoft);
  sim_.run_until(2 * kSecond);
  // Touch s1 so s2 becomes the LRU victim.
  Bytes out;
  EXPECT_EQ(depot_.load(s1.read, 0, 1, out), IbpStatus::kOk);
  const auto hard = depot_.allocate({4'000, 10 * kSecond, AllocType::kHard});
  EXPECT_EQ(hard.status, IbpStatus::kOk);
  EXPECT_EQ(depot_.load(s1.read, 0, 1, out), IbpStatus::kOk);
  EXPECT_EQ(depot_.load(s2.read, 0, 1, out), IbpStatus::kRevoked);
}

TEST_F(DepotTest, HardAllocationsAreNeverRevoked) {
  must_allocate(4'000, 50 * kSecond, AllocType::kHard);
  must_allocate(4'000, 50 * kSecond, AllocType::kHard);
  EXPECT_EQ(depot_.allocate({4'000, kSecond, AllocType::kHard}).status,
            IbpStatus::kNoCapacity);
  EXPECT_EQ(depot_.stats().soft_revoked, 0u);
  EXPECT_EQ(depot_.allocation_count(), 2u);
}

TEST_F(DepotTest, StatsAccumulate) {
  const auto caps = must_allocate(100);
  depot_.store(caps.write, 0, Bytes{1, 2, 3});
  Bytes out;
  depot_.load(caps.read, 0, 2, out);
  EXPECT_EQ(depot_.stats().allocations_made, 1u);
  EXPECT_EQ(depot_.stats().bytes_stored, 3u);
  EXPECT_EQ(depot_.stats().bytes_loaded, 2u);
}

// --- copy-on-write storage -----------------------------------------------------

TEST_F(DepotTest, SnapshotKeepsItsBytesAcrossALaterStore) {
  const auto caps = must_allocate(4);
  ASSERT_EQ(depot_.store(caps.write, 0, Bytes{1, 2, 3, 4}), IbpStatus::kOk);
  Snapshot before;
  ASSERT_EQ(depot_.load(caps.read, 0, 4, before), IbpStatus::kOk);

  ASSERT_EQ(depot_.store(caps.write, 1, Bytes{9}), IbpStatus::kOk);
  ASSERT_EQ(depot_.store(caps.write, 0, Bytes{7, 7, 7, 7}), IbpStatus::kOk);
  EXPECT_EQ(before.to_bytes(), (Bytes{1, 2, 3, 4}));
  Bytes now;
  ASSERT_EQ(depot_.load(caps.read, 0, 4, now), IbpStatus::kOk);
  EXPECT_EQ(now, (Bytes{7, 7, 7, 7}));
}

TEST_F(DepotTest, UnwrittenBytesReadAsZeros) {
  const auto fresh = must_allocate(8);
  Snapshot never_written;
  ASSERT_EQ(depot_.load(fresh.read, 2, 5, never_written), IbpStatus::kOk);
  EXPECT_EQ(never_written.data(), nullptr);
  Bytes landed(5, 0xff);
  never_written.copy_to(landed.data());
  EXPECT_EQ(landed, Bytes(5, 0));
  Bytes out;
  ASSERT_EQ(depot_.load(fresh.read, 0, 8, out), IbpStatus::kOk);
  EXPECT_EQ(out, Bytes(8, 0));

  const auto partial = must_allocate(8);
  ASSERT_EQ(depot_.store(partial.write, 3, Bytes{5, 6}), IbpStatus::kOk);
  ASSERT_EQ(depot_.load(partial.read, 0, 8, out), IbpStatus::kOk);
  EXPECT_EQ(out, (Bytes{0, 0, 0, 5, 6, 0, 0, 0}));
}

// --- fabric ---------------------------------------------------------------------

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : net_(sim_), fabric_(sim_, net_) {
    client_ = net_.add_node("client");
    wan_node_ = net_.add_node("wan-depot");
    lan_node_ = net_.add_node("lan-depot");
    // Client to WAN depot: 100 Mb/s, 35 ms (coast-to-coast).
    net_.add_link(client_, wan_node_, {100e6, 35 * kMillisecond, 0.0});
    // Client to LAN depot: 1 Gb/s, 50 us.
    net_.add_link(client_, lan_node_, {1e9, 50 * kMicrosecond, 0.0});

    DepotConfig cfg;
    cfg.capacity_bytes = 1 << 30;
    cfg.max_alloc_bytes = 1 << 28;
    wan_ = &fabric_.add_depot(wan_node_, "wan", cfg);
    lan_ = &fabric_.add_depot(lan_node_, "lan", cfg);
  }

  CapabilitySet remote_allocate(const std::string& depot, std::uint64_t size) {
    std::optional<CapabilitySet> caps;
    fabric_.allocate_async(client_, depot, {size, 3600 * kSecond, AllocType::kHard},
                           [&](IbpStatus status, const CapabilitySet& c) {
                             ASSERT_EQ(status, IbpStatus::kOk);
                             caps = c;
                           });
    sim_.run();
    EXPECT_TRUE(caps.has_value());
    return *caps;
  }

  void store_remote(const Capability& write_cap, std::uint64_t offset, Bytes data) {
    std::optional<IbpStatus> stored;
    fabric_.store_async(client_, write_cap, offset, std::move(data), {},
                        [&](IbpStatus s) { stored = s; });
    sim_.run();
    EXPECT_EQ(stored, IbpStatus::kOk);
  }

  // Third-party copy of a whole WAN allocation into a new LAN allocation.
  CapabilitySet copy_to_lan(const Capability& src_read, std::uint64_t length) {
    Fabric::CopyRequest req;
    req.src_read = src_read;
    req.dst_depot = "lan";
    req.length = length;
    req.dst_alloc = {length, 3600 * kSecond, AllocType::kHard};
    std::optional<CapabilitySet> dst;
    fabric_.copy_async(client_, req, [&](IbpStatus s, const CapabilitySet& caps) {
      EXPECT_EQ(s, IbpStatus::kOk);
      dst = caps;
    });
    sim_.run();
    EXPECT_TRUE(dst.has_value());
    return dst.value_or(CapabilitySet{});
  }

  static Snapshot snapshot(Depot& depot, const Capability& read_cap, std::uint64_t length) {
    Snapshot out;
    EXPECT_EQ(depot.load(read_cap, 0, length, out), IbpStatus::kOk);
    return out;
  }

  Bytes load_remote(const Capability& read_cap, std::uint64_t length) {
    auto loaded = std::make_shared<Bytes>(length);
    fabric_.load_async(client_, read_cap, 0, length, {}, loaded, 0,
                       [&](IbpStatus s, std::size_t received) {
                         EXPECT_EQ(s, IbpStatus::kOk);
                         EXPECT_EQ(received, length);
                       });
    sim_.run();
    return *loaded;
  }

  sim::Simulator sim_;
  sim::Network net_;
  Fabric fabric_;
  sim::NodeId client_ = 0, wan_node_ = 0, lan_node_ = 0;
  Depot* wan_ = nullptr;
  Depot* lan_ = nullptr;
};

TEST_F(FabricTest, RemoteAllocateCostsOneRtt) {
  SimTime done = 0;
  fabric_.allocate_async(client_, "wan", {1024, kSecond, AllocType::kHard},
                         [&](IbpStatus status, const CapabilitySet&) {
                           EXPECT_EQ(status, IbpStatus::kOk);
                           done = sim_.now();
                         });
  sim_.run();
  // One RTT (70 ms) plus depot overhead.
  EXPECT_GE(done, 70 * kMillisecond);
  EXPECT_LE(done, 72 * kMillisecond);
}

TEST_F(FabricTest, UnknownDepotReportsNotFound) {
  std::optional<IbpStatus> status;
  fabric_.allocate_async(client_, "nope", {1, kSecond, AllocType::kHard},
                         [&](IbpStatus s, const CapabilitySet&) { status = s; });
  sim_.run();
  EXPECT_EQ(status, IbpStatus::kNotFound);
}

TEST_F(FabricTest, StoreThenLoadOverNetwork) {
  const auto caps = remote_allocate("wan", 1 << 20);
  Bytes payload(100'000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  std::optional<IbpStatus> stored;
  fabric_.store_async(client_, caps.write, 0, payload, {}, [&](IbpStatus s) { stored = s; });
  sim_.run();
  ASSERT_EQ(stored, IbpStatus::kOk);

  EXPECT_EQ(load_remote(caps.read, payload.size()), payload);
}

TEST_F(FabricTest, LoadIntoRefusesALandingOffsetThatWraps) {
  const auto caps = remote_allocate("lan", 16);
  std::optional<IbpStatus> stored;
  fabric_.store_async(client_, caps.write, 0, Bytes(16, 0xab), {},
                      [&](IbpStatus s) { stored = s; });
  sim_.run();
  ASSERT_EQ(stored, IbpStatus::kOk);

  // dest_offset + 16 wraps to 12, which a naive bound check would accept.
  auto dest = std::make_shared<Bytes>(16, 0x11);
  std::optional<IbpStatus> status;
  std::size_t received = 1;
  fabric_.load_async(client_, caps.read, 0, 16, {}, dest, UINT64_MAX - 3,
                     [&](IbpStatus s, std::size_t n) {
                       status = s;
                       received = n;
                     });
  sim_.run();
  EXPECT_EQ(status, IbpStatus::kRefused);
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(*dest, Bytes(16, 0x11));

  // The same bound, exactly met, lands.
  fabric_.load_async(client_, caps.read, 0, 16, {}, dest, 0,
                     [&](IbpStatus s, std::size_t) { status = s; });
  sim_.run();
  EXPECT_EQ(status, IbpStatus::kOk);
  EXPECT_EQ(*dest, Bytes(16, 0xab));
}

TEST_F(FabricTest, LanLoadIsMuchFasterThanWan) {
  const auto wan_caps = remote_allocate("wan", 1 << 21);
  const auto lan_caps = remote_allocate("lan", 1 << 21);
  const Bytes payload(1 << 20, 0x7e);

  std::optional<IbpStatus> s1, s2;
  fabric_.store_async(client_, wan_caps.write, 0, payload, {}, [&](IbpStatus s) { s1 = s; });
  fabric_.store_async(client_, lan_caps.write, 0, payload, {}, [&](IbpStatus s) { s2 = s; });
  sim_.run();
  ASSERT_EQ(s1, IbpStatus::kOk);
  ASSERT_EQ(s2, IbpStatus::kOk);

  auto timed_load = [&](const Capability& cap) {
    const SimTime start = sim_.now();
    SimTime end = 0;
    sim::TransferOptions opts;
    opts.streams = 4;
    fabric_.load_async(client_, cap, 0, 1 << 20, opts, std::make_shared<Bytes>(1 << 20), 0,
                       [&](IbpStatus s, std::size_t) {
                         ASSERT_EQ(s, IbpStatus::kOk);
                         end = sim_.now();
                       });
    sim_.run();
    return end - start;
  };
  const SimDuration wan_time = timed_load(wan_caps.read);
  const SimDuration lan_time = timed_load(lan_caps.read);
  // WAN ~ O(1 s): window-capped streams over 70 ms RTT. LAN ~ O(10 ms).
  EXPECT_GT(wan_time, 10 * lan_time);
  EXPECT_GT(wan_time, 200 * kMillisecond);
  EXPECT_LT(lan_time, 50 * kMillisecond);
}

TEST_F(FabricTest, ThirdPartyCopyMovesDataDepotToDepot) {
  const auto src = remote_allocate("wan", 4096);
  Bytes payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i & 0xff);
  }
  std::optional<IbpStatus> stored;
  fabric_.store_async(client_, src.write, 0, payload, {}, [&](IbpStatus s) { stored = s; });
  sim_.run();
  ASSERT_EQ(stored, IbpStatus::kOk);

  Fabric::CopyRequest req;
  req.src_read = src.read;
  req.dst_depot = "lan";
  req.length = 4096;
  req.dst_alloc = {4096, 3600 * kSecond, AllocType::kSoft};
  std::optional<CapabilitySet> dst_caps;
  fabric_.copy_async(client_, req, [&](IbpStatus s, const CapabilitySet& caps) {
    ASSERT_EQ(s, IbpStatus::kOk);
    dst_caps = caps;
  });
  sim_.run();
  ASSERT_TRUE(dst_caps.has_value());

  // The bytes really are on the LAN depot now.
  Bytes out;
  EXPECT_EQ(lan_->load(dst_caps->read, 0, 4096, out), IbpStatus::kOk);
  EXPECT_EQ(out, payload);
}

TEST_F(FabricTest, CopyFailsCleanlyWhenSourceExpired) {
  std::optional<CapabilitySet> src;
  fabric_.allocate_async(client_, "wan", {512, kSecond, AllocType::kHard},
                         [&](IbpStatus s, const CapabilitySet& c) {
                           ASSERT_EQ(s, IbpStatus::kOk);
                           src = c;
                         });
  sim_.run();
  ASSERT_TRUE(src.has_value());
  sim_.run_until(5 * kSecond);  // let the lease lapse

  Fabric::CopyRequest req;
  req.src_read = src->read;
  req.dst_depot = "lan";
  req.length = 512;
  req.dst_alloc = {512, 10 * kSecond, AllocType::kHard};
  std::optional<IbpStatus> status;
  fabric_.copy_async(client_, req,
                     [&](IbpStatus s, const CapabilitySet&) { status = s; });
  sim_.run();
  EXPECT_EQ(status, IbpStatus::kExpired);
}

TEST_F(FabricTest, DiskContentionDelaysConcurrentReads) {
  // The paper's section 4.3 observation: during aggressive prestaging "the
  // latency of access to the LAN depot is significantly increased". Our
  // depots serialize data operations through a finite-bandwidth disk, so a
  // read queued behind bulk writes is measurably slower than on an idle
  // depot.
  const auto caps = remote_allocate("lan", 1 << 24);
  Bytes payload(4 << 20, 0x5c);
  std::optional<IbpStatus> stored;
  fabric_.store_async(client_, caps.write, 0, payload, {}, [&](IbpStatus s) { stored = s; });
  sim_.run();
  ASSERT_EQ(stored, IbpStatus::kOk);

  auto timed_read = [&]() {
    const SimTime start = sim_.now();
    SimTime end = 0;
    sim::TransferOptions opts;
    opts.window_bytes = 1 << 24;
    fabric_.load_async(client_, caps.read, 0, 1 << 20, opts,
                       std::make_shared<Bytes>(1 << 20), 0, [&](IbpStatus s, std::size_t) {
                         ASSERT_EQ(s, IbpStatus::kOk);
                         end = sim_.now();
                       });
    sim_.run();
    return end - start;
  };
  const SimDuration idle_read = timed_read();

  // Pile staging-like writes onto the same depot, then read immediately.
  const auto staging = remote_allocate("lan", 1 << 24);
  for (int i = 0; i < 4; ++i) {
    fabric_.store_async(client_, staging.write, static_cast<std::uint64_t>(i) << 22,
                        Bytes(4 << 20, 0x11), {}, [](IbpStatus) {});
  }
  // Let the write payloads arrive (booking the disk) but not the disk
  // itself drain, then read into the queue.
  sim_.run_until(sim_.now() + 250 * kMillisecond);
  const SimDuration busy_read = timed_read();
  EXPECT_GT(busy_read, 2 * idle_read);
}

TEST_F(FabricTest, WholeAllocationStoreKeepsTheMovedInBuffer) {
  const auto caps = remote_allocate("wan", 4096);
  Bytes payload(4096, 0x3c);
  const std::uint8_t* moved_in = payload.data();
  store_remote(caps.write, 0, std::move(payload));
  EXPECT_EQ(snapshot(*wan_, caps.read, 4096).data(), moved_in);
}

TEST_F(FabricTest, ThirdPartyCopySharesTheSourceBuffer) {
  const auto src = remote_allocate("wan", 4096);
  store_remote(src.write, 0, Bytes(4096, 0x5a));
  const auto dst = copy_to_lan(src.read, 4096);
  const Snapshot src_bytes = snapshot(*wan_, src.read, 4096);
  ASSERT_NE(src_bytes.buffer, nullptr);
  EXPECT_EQ(snapshot(*lan_, dst.read, 4096).buffer, src_bytes.buffer);
  // Capacity stays logical: each allocation charges its full size.
  EXPECT_EQ(wan_->bytes_used(), 4096u);
  EXPECT_EQ(lan_->bytes_used(), 4096u);
}

TEST_F(FabricTest, PartialStoreIntoASharedBufferClonesIt) {
  const auto src = remote_allocate("wan", 4096);
  store_remote(src.write, 0, Bytes(4096, 0x5a));
  const auto dst = copy_to_lan(src.read, 4096);
  const std::uint8_t* shared = snapshot(*wan_, src.read, 4096).data();

  store_remote(dst.write, 100, Bytes(8, 0xee));
  const Snapshot src_after = snapshot(*wan_, src.read, 4096);
  EXPECT_EQ(src_after.data(), shared);
  EXPECT_EQ(src_after.to_bytes(), Bytes(4096, 0x5a));
  const Snapshot dst_after = snapshot(*lan_, dst.read, 4096);
  EXPECT_NE(dst_after.data(), shared);
  Bytes want(4096, 0x5a);
  std::fill_n(want.begin() + 100, 8, 0xee);
  EXPECT_EQ(dst_after.to_bytes(), want);
}

TEST_F(FabricTest, CopiedAllocationsAreIsolatedFromEachOthersStores) {
  const auto src = remote_allocate("wan", 64);
  store_remote(src.write, 0, Bytes(64, 0x11));
  const auto dst = copy_to_lan(src.read, 64);

  store_remote(dst.write, 0, Bytes(32, 0x33));  // partial store
  EXPECT_EQ(load_remote(src.read, 64), Bytes(64, 0x11));
  store_remote(src.write, 0, Bytes(64, 0x22));  // whole-allocation store
  Bytes want(64, 0x11);
  std::fill_n(want.begin(), 32, 0x33);
  EXPECT_EQ(load_remote(dst.read, 64), want);
  EXPECT_EQ(load_remote(src.read, 64), Bytes(64, 0x22));
}

TEST_F(FabricTest, CorruptHookFlipsAPrivateCopyOnly) {
  const auto caps = remote_allocate("lan", 16);
  const Bytes stored(16, 0x40);
  store_remote(caps.write, 0, stored);

  fabric_.set_corrupt_hook([](const std::string&, Bytes& b) { b[3] ^= 0x01; });
  Bytes flipped = stored;
  flipped[3] ^= 0x01;
  EXPECT_EQ(load_remote(caps.read, 16), flipped);
  auto slab = std::make_shared<Bytes>(16, 0);
  fabric_.load_async(client_, caps.read, 0, 16, {}, slab, 0,
                     [](IbpStatus s, std::size_t) { EXPECT_EQ(s, IbpStatus::kOk); });
  sim_.run();
  EXPECT_EQ(*slab, flipped);

  fabric_.set_corrupt_hook(nullptr);
  EXPECT_EQ(load_remote(caps.read, 16), stored);
}

TEST_F(FabricTest, DuplicateDepotNameThrows) {
  DepotConfig cfg;
  EXPECT_THROW(fabric_.add_depot(lan_node_, "lan", cfg), std::invalid_argument);
}

}  // namespace
}  // namespace lon::ibp

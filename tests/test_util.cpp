// Unit tests for the util module: byte I/O, checksums, RNG determinism,
// thread pool, and 3-D / spherical math.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "util/buffer_pool.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"
#include "util/vec3.hpp"

namespace lon {
namespace {

// --- time ------------------------------------------------------------------

TEST(Time, SecondsRoundTrip) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_millis(2.5), 2'500'000);
}

TEST(Time, RoundsToNearest) {
  EXPECT_EQ(from_seconds(1e-9), 1);
  EXPECT_EQ(from_seconds(1.4e-9), 1);
  EXPECT_EQ(from_seconds(1.6e-9), 2);
}

// --- bytes -----------------------------------------------------------------

TEST(Bytes, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f32(3.5f);
  w.f64(-2.25);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_FLOAT_EQ(r.f32(), 3.5f);
  EXPECT_DOUBLE_EQ(r.f64(), -2.25);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(Bytes, StringAndBlobRoundTrip) {
  ByteWriter w;
  w.str("hello, depot");
  Bytes payload = {1, 2, 3, 4, 5};
  w.blob(payload);
  w.str("");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "hello, depot");
  EXPECT_EQ(r.blob(), payload);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_THROW(r.u32(), DecodeError);
}

TEST(Bytes, BogusLengthPrefixThrows) {
  ByteWriter w;
  w.u32(0xffffffffu);  // blob claiming 4 GiB
  ByteReader r(w.bytes());
  EXPECT_THROW(r.blob(), DecodeError);
}

TEST(Bytes, RemainingTracksPosition) {
  ByteWriter w;
  w.u64(1);
  w.u64(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 16u);
  r.u64();
  EXPECT_EQ(r.remaining(), 8u);
  EXPECT_EQ(r.position(), 8u);
}

// --- checksums ---------------------------------------------------------------

TEST(Checksum, Adler32KnownValues) {
  // Classic test vector.
  EXPECT_EQ(adler32(as_bytes("Wikipedia")), 0x11E60398u);
  EXPECT_EQ(adler32(as_bytes("")), 1u);
}

TEST(Checksum, Adler32Incremental) {
  const std::string s = "the quick brown fox jumps over the lazy dog";
  const auto whole = adler32(as_bytes(s));
  auto part = adler32(as_bytes(s.substr(0, 10)));
  part = adler32(as_bytes(s.substr(10)), part);
  EXPECT_EQ(part, whole);
}

TEST(Checksum, Adler32LargeInputDeferredModulo) {
  // Exercise the 5552-byte chunking path with bytes of maximal value.
  Bytes data(100'000, 0xff);
  const auto value = adler32(data);
  // Reference computation with per-byte modulo.
  std::uint32_t a = 1, b = 0;
  for (auto byte : data) {
    a = (a + byte) % 65521;
    b = (b + a) % 65521;
  }
  EXPECT_EQ(value, (b << 16) | a);
}

TEST(Checksum, Crc32KnownValues) {
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(as_bytes("")), 0u);
}

TEST(Checksum, Crc32DetectsBitFlip) {
  Bytes data(64, 0x5a);
  const auto clean = crc32(data);
  data[17] ^= 0x01;
  EXPECT_NE(crc32(data), clean);
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

TEST(Checksum, Crc32MatchesBytewiseAtEveryLengthAndAlignment) {
  const Bytes data = random_bytes(16 + 300, 0xc3c32);
  const std::span<const std::uint8_t> all(data);
  for (const std::uint32_t start : {0u, 0x9e3779b9u}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t length = 0; length <= 300; ++length) {
        const auto slice = all.subspan(offset, length);
        ASSERT_EQ(crc32(slice, start), crc32_bytewise(slice, start))
            << "offset " << offset << " length " << length << " start " << start;
      }
    }
  }
}

TEST(Checksum, Crc32MatchesBytewiseOnALargeBuffer) {
  const Bytes data = random_bytes((std::size_t{1} << 20) + 7, 77);
  EXPECT_EQ(crc32(data), crc32_bytewise(data));
}

TEST(Checksum, Crc32ContinuesAcrossEverySplit) {
  const Bytes data = random_bytes(100, 5);
  const std::span<const std::uint8_t> all(data);
  const std::uint32_t whole = crc32(all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    EXPECT_EQ(crc32(all.subspan(split), crc32(all.first(split))), whole) << split;
  }
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalHasUnitVariance) {
  Rng rng(5);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

// --- thread pool -------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, NestedParallelForRunsOnItsOwnWorker) {
  // Both workers run a task that itself calls parallel_for on the pool. Had
  // they queued their chunks behind themselves and waited, neither chunk
  // could ever start.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(16);
  auto task = [&](std::size_t t) {
    return [&, t] {
      pool.parallel_for(0, 8, [&](std::size_t i) { hits[t * 8 + i].fetch_add(1); });
    };
  };
  auto a = pool.submit(task(0));
  auto b = pool.submit(task(1));
  a.get();
  b.get();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManySmallTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  futures.reserve(500);
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

// --- vec3 / spherical ----------------------------------------------------------

TEST(Vec3, BasicAlgebra) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ((a + b).x, 5.0);
  EXPECT_DOUBLE_EQ((b - a).z, 3.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  const Vec3 c = a.cross(b);
  EXPECT_DOUBLE_EQ(c.x, -3.0);
  EXPECT_DOUBLE_EQ(c.y, 6.0);
  EXPECT_DOUBLE_EQ(c.z, -3.0);
  EXPECT_DOUBLE_EQ((2.0 * a).y, 4.0);
}

TEST(Vec3, NormalizedHasUnitLength) {
  const Vec3 v{3, 4, 12};
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Vec3{}.normalized().norm(), 0.0);
}

TEST(Spherical, UnitRoundTrip) {
  for (double theta : {0.3, 1.0, 1.5, 2.8}) {
    for (double phi : {0.0, 0.7, 3.1, 5.9}) {
      const Spherical s{theta, phi};
      const Spherical back = unit_to_spherical(spherical_to_unit(s));
      EXPECT_NEAR(back.theta, theta, 1e-10);
      EXPECT_NEAR(back.phi, phi, 1e-10);
    }
  }
}

TEST(Spherical, PolesMapToZAxis) {
  const Vec3 up = spherical_to_unit({0.0, 1.234});
  EXPECT_NEAR(up.z, 1.0, 1e-12);
  const Vec3 down = spherical_to_unit({kPi, 0.5});
  EXPECT_NEAR(down.z, -1.0, 1e-12);
}

TEST(Spherical, AngularDistance) {
  EXPECT_NEAR(angular_distance({kPi / 2, 0.0}, {kPi / 2, kPi / 2}), kPi / 2, 1e-12);
  EXPECT_NEAR(angular_distance({0.0, 0.0}, {kPi, 0.0}), kPi, 1e-12);
  EXPECT_NEAR(angular_distance({1.0, 2.0}, {1.0, 2.0}), 0.0, 1e-6);
}

TEST(Spherical, DegreeConversions) {
  EXPECT_NEAR(deg2rad(180.0), kPi, 1e-12);
  EXPECT_NEAR(rad2deg(kPi / 2), 90.0, 1e-12);
}

// --- buffer pool -----------------------------------------------------------

TEST(BufferPool, AcquireIsZeroFilledAndExactlySized) {
  util::BufferPool pool;
  const auto slab = pool.acquire(10'000);
  ASSERT_EQ(slab->size(), 10'000u);
  for (const std::uint8_t b : *slab) EXPECT_EQ(b, 0);
  EXPECT_EQ(pool.allocations(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
}

TEST(BufferPool, ReleaseRecyclesTheAllocationForTheSameSizeClass) {
  util::BufferPool pool;
  std::uint8_t* first = nullptr;
  {
    auto slab = pool.acquire(5'000);
    (*slab)[0] = 0xAB;
    first = slab->data();
  }
  EXPECT_GT(pool.retained_bytes(), 0u);
  // Same size class (8 KiB covers both) -> same backing allocation, re-zeroed.
  const auto again = pool.acquire(6'000);
  EXPECT_EQ(again->data(), first);
  EXPECT_EQ((*again)[0], 0);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.allocations(), 1u);
}

TEST(BufferPool, RefcountedSlabIsNotRecycledWhileAliased) {
  util::BufferPool pool;
  auto slab = pool.acquire(1'000);
  (*slab)[7] = 42;
  const std::shared_ptr<const Bytes> alias = slab;
  slab.reset();
  // The alias still owns the slab: nothing retained, contents intact.
  EXPECT_EQ(pool.retained_bytes(), 0u);
  EXPECT_EQ((*alias)[7], 42);
}

TEST(BufferPool, SlabOutlivesThePoolObject) {
  std::shared_ptr<Bytes> survivor;
  {
    util::BufferPool pool;
    survivor = pool.acquire(2'048);
    (*survivor)[100] = 9;
  }
  // Releasing after the pool is gone must be safe (deleter owns pool state).
  EXPECT_EQ((*survivor)[100], 9);
  survivor.reset();
}

TEST(BufferPool, RetainedBytesStayWithinTheConfiguredBudget) {
  util::BufferPool::Config config;
  config.min_class_bytes = 4'096;
  config.max_retained_bytes = 8'192;  // room for exactly two minimum slabs
  util::BufferPool pool(config);
  { const auto a = pool.acquire(100); const auto b = pool.acquire(100); const auto c = pool.acquire(100); }
  EXPECT_LE(pool.retained_bytes(), 8'192u);
}

TEST(BufferPool, ConcurrentAcquireReleaseHammer) {
  util::BufferPool pool;
  ThreadPool workers(4);
  std::vector<std::future<bool>> jobs;
  for (int t = 0; t < 4; ++t) {
    jobs.push_back(workers.submit([&pool, t]() -> bool {
      for (int i = 0; i < 500; ++i) {
        const std::size_t size = 64 + static_cast<std::size_t>((i * 37 + t * 101) % 20'000);
        const auto slab = pool.acquire(size);
        if (slab->size() != size) return false;
        // Every byte must arrive zeroed even when slabs are recycled across
        // threads; write a marker to catch sharing of live slabs.
        if ((*slab)[size / 2] != 0) return false;
        (*slab)[size / 2] = static_cast<std::uint8_t>(t + 1);
      }
      return true;
    }));
  }
  for (auto& job : jobs) EXPECT_TRUE(job.get());
  EXPECT_EQ(pool.reuses() + pool.allocations(), 2'000u);
}

TEST(BufferPool, CopyMeterCountsEveryCopyPayload) {
  const std::uint64_t before = util::payload_bytes_copied();
  Bytes src(1'234, 0x5A);
  Bytes dst(1'234, 0);
  util::copy_payload(dst.data(), src.data(), src.size());
  EXPECT_EQ(util::payload_bytes_copied() - before, 1'234u);
  EXPECT_EQ(dst, src);
  util::account_payload_copy(10);
  EXPECT_EQ(util::payload_bytes_copied() - before, 1'244u);
}

}  // namespace
}  // namespace lon

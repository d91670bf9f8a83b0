// Section 4.2 prose: client-side rendering frame rate.
//
// Paper: "After a view set is decompressed, it can be rendered at above 30
// frames per second on the client console due to the simplistic nature of
// light field rendering algorithms. Such frame rates remain above 30 frames
// per second even at large image resolutions of 500x500."
//
// google-benchmark over the lookup-based novel-view renderer; the counter
// reports frames/second.
#include <benchmark/benchmark.h>

#include "lightfield/procedural.hpp"
#include "lightfield/renderer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lon;

lightfield::LatticeConfig bench_config(std::size_t resolution) {
  lightfield::LatticeConfig cfg = lightfield::LatticeConfig::paper(resolution);
  return cfg;
}

void BM_NovelViewSynthesis(benchmark::State& state) {
  const auto resolution = static_cast<std::size_t>(state.range(0));
  const lightfield::LatticeConfig cfg = bench_config(resolution);
  lightfield::ProceduralSource source(cfg);
  lightfield::Renderer renderer(cfg);
  renderer.add_view_set(source.build({6, 12}));

  // A direction strictly inside view set (6,12): interpolation uses four
  // resident samples.
  const auto& lattice = source.lattice();
  const Spherical a = lattice.sample_direction(38, 74);
  const Spherical b = lattice.sample_direction(39, 75);
  double t = 0.25;
  for (auto _ : state) {
    const Spherical dir{a.theta + t * (b.theta - a.theta),
                        a.phi + t * (b.phi - a.phi)};
    benchmark::DoNotOptimize(renderer.render(dir, resolution));
    t = t < 0.7 ? t + 0.01 : 0.25;  // wander like a user would
  }
  state.counters["fps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
// Both synthesis benchmarks run on the wall clock: kIsRate divides by the
// main thread's CPU time otherwise, which leaves out the pooled workers.
BENCHMARK(BM_NovelViewSynthesis)->Arg(200)->Arg(300)->Arg(500)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_NovelViewSynthesisPooled(benchmark::State& state) {
  // Same synthesis, output rows interpolated across the shared worker pool
  // (pixels are identical to the serial path). The fps ratio against
  // BM_NovelViewSynthesis is the single-client render speedup the perf gate
  // checks on multi-core runners.
  const auto resolution = static_cast<std::size_t>(state.range(0));
  const lightfield::LatticeConfig cfg = bench_config(resolution);
  lightfield::ProceduralSource source(cfg);
  lightfield::Renderer renderer(cfg);
  renderer.add_view_set(source.build({6, 12}));
  ThreadPool& pool = ThreadPool::shared();

  const auto& lattice = source.lattice();
  const Spherical a = lattice.sample_direction(38, 74);
  const Spherical b = lattice.sample_direction(39, 75);
  double t = 0.25;
  for (auto _ : state) {
    const Spherical dir{a.theta + t * (b.theta - a.theta),
                        a.phi + t * (b.phi - a.phi)};
    benchmark::DoNotOptimize(renderer.render(dir, resolution, 1.0, &pool));
    t = t < 0.7 ? t + 0.01 : 0.25;
  }
  state.counters["fps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.counters["threads_used"] = static_cast<double>(pool.size());
}
BENCHMARK(BM_NovelViewSynthesisPooled)->Arg(200)->Arg(300)->Arg(500)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RenderAtExactSample(benchmark::State& state) {
  // Rendering exactly at a lattice sample degenerates to (nearly) one
  // bilinear fetch per pixel — the cheapest path.
  const auto resolution = static_cast<std::size_t>(state.range(0));
  const lightfield::LatticeConfig cfg = bench_config(resolution);
  lightfield::ProceduralSource source(cfg);
  lightfield::Renderer renderer(cfg);
  renderer.add_view_set(source.build({6, 12}));
  const Spherical dir = source.lattice().sample_direction(38, 74);
  for (auto _ : state) {
    benchmark::DoNotOptimize(renderer.render(dir, resolution));
  }
  state.counters["fps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RenderAtExactSample)->Arg(200)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_DigitalZoom(benchmark::State& state) {
  const std::size_t resolution = 300;
  const lightfield::LatticeConfig cfg = bench_config(resolution);
  lightfield::ProceduralSource source(cfg);
  lightfield::Renderer renderer(cfg);
  renderer.add_view_set(source.build({6, 12}));
  const Spherical dir = source.lattice().sample_direction(38, 74);
  for (auto _ : state) {
    benchmark::DoNotOptimize(renderer.render(dir, resolution, 2.0));
  }
  state.counters["fps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DigitalZoom)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

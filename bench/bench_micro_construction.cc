// Google-benchmark microbenchmarks for index construction: WC-INDEX
// variants (including the rank-batched parallel pipeline at 1/2/4/8
// threads) and baselines on small fixed datasets, so per-build costs are
// comparable run to run. Emits BENCH_micro_construction.json.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "bench/datasets.h"
#include "core/wc_index.h"
#include "labeling/lcr_adapt.h"
#include "labeling/naive_index.h"
#include "labeling/pll.h"

namespace wcsd {
namespace {

const Dataset& RoadDataset() {
  static const Dataset d = MakeRoadDataset("NY", 0.25);
  return d;
}

const Dataset& SocialDataset() {
  static const Dataset d = MakeSocialDataset("MV-10", 0.25);
  return d;
}

// The largest graph this suite builds on: the parallel-speedup subject.
const Dataset& LargeRoadDataset() {
  static const Dataset d = MakeRoadDataset("COL", 1.0);
  return d;
}

const Dataset& LargeSocialDataset() {
  static const Dataset d = MakeSocialDataset("MV-10", 1.0);
  return d;
}

void BM_BuildWcIndexPlus_Road(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        WcIndex::Build(RoadDataset().graph, WcIndexOptions::Plus()));
  }
}
BENCHMARK(BM_BuildWcIndexPlus_Road)->Unit(benchmark::kMillisecond);

void BM_BuildWcIndexBasic_Road(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        WcIndex::Build(RoadDataset().graph, WcIndexOptions::Basic()));
  }
}
BENCHMARK(BM_BuildWcIndexBasic_Road)->Unit(benchmark::kMillisecond);

void BM_BuildNaive_Road(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveWcsdIndex::Build(RoadDataset().graph));
  }
}
BENCHMARK(BM_BuildNaive_Road)->Unit(benchmark::kMillisecond);

void BM_BuildLcrAdapt_Road(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(LcrAdaptIndex::Build(RoadDataset().graph));
  }
}
BENCHMARK(BM_BuildLcrAdapt_Road)->Unit(benchmark::kMillisecond);

void BM_BuildWcIndexPlus_Social(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        WcIndex::Build(SocialDataset().graph, WcIndexOptions::Plus()));
  }
}
BENCHMARK(BM_BuildWcIndexPlus_Social)->Unit(benchmark::kMillisecond);

void BM_BuildPllSingleLevel_Social(benchmark::State& state) {
  // One classic PLL on the unfiltered graph: the per-level unit of work
  // inside the Naïve baseline.
  for (auto _ : state) {
    benchmark::DoNotOptimize(Pll::Build(SocialDataset().graph));
  }
}
BENCHMARK(BM_BuildPllSingleLevel_Social)->Unit(benchmark::kMillisecond);

// Parallel construction pipeline: same build, 1/2/4/8 worker threads.
// threads=1 goes through the exact sequential loop; every other setting
// produces the bit-identical index (tested in test_parallel_build.cc).
// Timed in wall-clock time, with the CPU column summed over every thread
// of the process: the main thread alone runs only the merge phase.
// `merge_ms` is that phase's wall time per build.
void BuildWithThreads(benchmark::State& state, const QualityGraph& g) {
  WcIndexOptions options = WcIndexOptions::Plus();
  options.num_threads = static_cast<size_t>(state.range(0));
  double merge_seconds = 0;
  for (auto _ : state) {
    WcIndex index = WcIndex::Build(g, options);
    merge_seconds += index.build_stats().merge_seconds;
    benchmark::DoNotOptimize(index);
  }
  state.counters["merge_ms"] = benchmark::Counter(
      merge_seconds * 1e3, benchmark::Counter::kAvgIterations);
}

void BM_BuildWcIndexPlusThreads_LargeRoad(benchmark::State& state) {
  BuildWithThreads(state, LargeRoadDataset().graph);
}
BENCHMARK(BM_BuildWcIndexPlusThreads_LargeRoad)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_BuildWcIndexPlusThreads_Social(benchmark::State& state) {
  BuildWithThreads(state, LargeSocialDataset().graph);
}
BENCHMARK(BM_BuildWcIndexPlusThreads_Social)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wcsd

WCSD_BENCH_JSON_MAIN("micro_construction")

// Google-benchmark microbenchmarks for the query paths: per-query latency
// of each implementation on both label backends (vector-of-vectors vs.
// flat CSR), of the default query (the hub-table join once flat), plus the
// baselines, on a mid-size social graph. Emits BENCH_micro_query.json for
// tracking across changes.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "bench/datasets.h"
#include "bench/workload.h"
#include "core/wc_index.h"
#include "labeling/naive_index.h"
#include "search/wc_bfs.h"

namespace wcsd {
namespace {

// Shared fixtures, built once.
const Dataset& SocialDataset() {
  static const Dataset d = MakeSocialDataset("EU", 0.25);
  return d;
}

const WcIndex& SharedIndex() {
  static const WcIndex index =
      WcIndex::Build(SocialDataset().graph, WcIndexOptions::Plus());
  return index;
}

const WcIndex& SharedFlatIndex() {
  static const WcIndex index = [] {
    WcIndex built = SharedIndex();  // copy: both backends serve one index
    built.Finalize();
    return built;
  }();
  return index;
}

const WcIndex& IndexForBackend(int backend) {
  return backend == 1 ? SharedFlatIndex() : SharedIndex();
}

const std::vector<WcsdQuery>& SharedWorkload() {
  static const std::vector<WcsdQuery> workload =
      MakeQueryWorkload(SocialDataset().graph, 4096, 7);
  return workload;
}

void BM_QueryImpl(benchmark::State& state) {
  const WcIndex& index = IndexForBackend(static_cast<int>(state.range(1)));
  const auto& workload = SharedWorkload();
  QueryImpl impl = static_cast<QueryImpl>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const WcsdQuery& q = workload[i++ & 4095];
    benchmark::DoNotOptimize(index.Query(q.s, q.t, q.w, impl));
  }
}
BENCHMARK(BM_QueryImpl)
    ->ArgsProduct({{static_cast<int>(QueryImpl::kScan),
                    static_cast<int>(QueryImpl::kHubGrouped),
                    static_cast<int>(QueryImpl::kBinary),
                    static_cast<int>(QueryImpl::kMerge)},
                   {0, 1}})
    ->ArgNames({"impl", "backend"});

// The default Query: the hub-table join on the flat backend, Algorithm 5
// (BM_QueryImpl's merge row) on the vector one.
void BM_Query(benchmark::State& state) {
  const WcIndex& index = IndexForBackend(static_cast<int>(state.range(0)));
  const auto& workload = SharedWorkload();
  size_t i = 0;
  for (auto _ : state) {
    const WcsdQuery& q = workload[i++ & 4095];
    benchmark::DoNotOptimize(index.Query(q.s, q.t, q.w));
  }
}
BENCHMARK(BM_Query)->Arg(0)->Arg(1)->ArgNames({"backend"});

void BM_QueryWithHub(benchmark::State& state) {
  const WcIndex& index = IndexForBackend(static_cast<int>(state.range(0)));
  const auto& workload = SharedWorkload();
  size_t i = 0;
  for (auto _ : state) {
    const WcsdQuery& q = workload[i++ & 4095];
    benchmark::DoNotOptimize(index.QueryWithHub(q.s, q.t, q.w));
  }
}
BENCHMARK(BM_QueryWithHub)->Arg(0)->Arg(1)->ArgNames({"backend"});

void BM_NaiveQuery(benchmark::State& state) {
  static const auto naive = NaiveWcsdIndex::Build(SocialDataset().graph);
  const auto& workload = SharedWorkload();
  size_t i = 0;
  for (auto _ : state) {
    const WcsdQuery& q = workload[i++ & 4095];
    benchmark::DoNotOptimize(naive.value().Query(q.s, q.t, q.w));
  }
}
BENCHMARK(BM_NaiveQuery);

void BM_ConstrainedBfs(benchmark::State& state) {
  static WcBfs bfs(&SocialDataset().graph);
  const auto& workload = SharedWorkload();
  size_t i = 0;
  for (auto _ : state) {
    const WcsdQuery& q = workload[i++ & 4095];
    benchmark::DoNotOptimize(bfs.Query(q.s, q.t, q.w));
  }
}
BENCHMARK(BM_ConstrainedBfs);

}  // namespace
}  // namespace wcsd

WCSD_BENCH_JSON_MAIN("micro_query")

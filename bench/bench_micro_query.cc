// Google-benchmark microbenchmarks for the query paths: per-query latency
// of each implementation on both label backends, of the default query and
// of the witness-hub query, plus the baselines, on a mid-size social graph.
// The vector backend (backend:0) times the span kernels (QueryLabels,
// QueryLabelsWithHub) over the index's labels unpacked into a LabelSet; the
// flat backend (backend:1) times the index itself, whose default query is
// the hub-table join. Emits BENCH_micro_query.json for tracking across
// changes.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "bench/datasets.h"
#include "bench/workload.h"
#include "core/wc_index.h"
#include "labeling/naive_index.h"
#include "labeling/query.h"
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

// The same labels in the vector form the span kernels read.
const LabelSet& SharedLabels() {
  static const LabelSet labels = SharedIndex().labels();
  return labels;
}

const std::vector<WcsdQuery>& SharedWorkload() {
  static const std::vector<WcsdQuery> workload =
      MakeQueryWorkload(SocialDataset().graph, 4096, 7);
  return workload;
}

// Runs `query` over the workload, one query per iteration.
template <typename Query>
void RunWorkload(benchmark::State& state, const Query& query) {
  const auto& workload = SharedWorkload();
  size_t i = 0;
  for (auto _ : state) {
    const WcsdQuery& q = workload[i++ & 4095];
    benchmark::DoNotOptimize(query(q));
  }
}

void BM_QueryImpl(benchmark::State& state) {
  const QueryImpl impl = static_cast<QueryImpl>(state.range(0));
  if (state.range(1) == 0) {
    const LabelSet& labels = SharedLabels();
    RunWorkload(state, [&](const WcsdQuery& q) {
      return QueryLabels(labels.For(q.s), labels.For(q.t), q.w, impl);
    });
  } else {
    const WcIndex& index = SharedIndex();
    RunWorkload(state, [&](const WcsdQuery& q) {
      return index.Query(q.s, q.t, q.w, impl);
    });
  }
}
BENCHMARK(BM_QueryImpl)
    ->ArgsProduct({{static_cast<int>(QueryImpl::kScan),
                    static_cast<int>(QueryImpl::kHubGrouped),
                    static_cast<int>(QueryImpl::kBinary),
                    static_cast<int>(QueryImpl::kMerge)},
                   {0, 1}})
    ->ArgNames({"impl", "backend"});

// The default query: the hub-table join on the flat backend, Algorithm 5
// (BM_QueryImpl's merge row) over the vector spans.
void BM_Query(benchmark::State& state) {
  if (state.range(0) == 0) {
    const LabelSet& labels = SharedLabels();
    RunWorkload(state, [&](const WcsdQuery& q) {
      return QueryLabels(labels.For(q.s), labels.For(q.t), q.w);
    });
  } else {
    const WcIndex& index = SharedIndex();
    RunWorkload(state,
                [&](const WcsdQuery& q) { return index.Query(q.s, q.t, q.w); });
  }
}
BENCHMARK(BM_Query)->Arg(0)->Arg(1)->ArgNames({"backend"});

void BM_QueryWithHub(benchmark::State& state) {
  if (state.range(0) == 0) {
    const LabelSet& labels = SharedLabels();
    RunWorkload(state, [&](const WcsdQuery& q) {
      return QueryLabelsWithHub(labels.For(q.s), labels.For(q.t), q.w);
    });
  } else {
    const WcIndex& index = SharedIndex();
    RunWorkload(state, [&](const WcsdQuery& q) {
      return index.QueryWithHub(q.s, q.t, q.w);
    });
  }
}
BENCHMARK(BM_QueryWithHub)->Arg(0)->Arg(1)->ArgNames({"backend"});

void BM_NaiveQuery(benchmark::State& state) {
  static const auto naive = NaiveWcsdIndex::Build(SocialDataset().graph);
  RunWorkload(state, [&](const WcsdQuery& q) {
    return naive.value().Query(q.s, q.t, q.w);
  });
}
BENCHMARK(BM_NaiveQuery);

void BM_ConstrainedBfs(benchmark::State& state) {
  static WcBfs bfs(&SocialDataset().graph);
  RunWorkload(state,
              [&](const WcsdQuery& q) { return bfs.Query(q.s, q.t, q.w); });
}
BENCHMARK(BM_ConstrainedBfs);

}  // namespace
}  // namespace wcsd

WCSD_BENCH_JSON_MAIN("micro_query")

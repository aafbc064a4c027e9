// Shared plumbing for the figure/table reproduction binaries.
//
// Every bench accepts:
//   --scale=<f>    dataset scale factor (default 1.0 = EXPERIMENTS.md size)
//   --queries=<n>  workload size for index methods (default 10000, §VI)
//   --online=<n>   workload size for online methods (default 200)
//   --budget_mb=<n> Naïve memory budget; exceeding it prints INF like the
//                   paper's out-of-memory cells (default 48 at scale 1.0,
//                   calibrated so Naïve fails on WST/CTR as in the paper)
//   --seed=<n>     workload seed (default 42)

#ifndef WCSD_BENCH_BENCH_COMMON_H_
#define WCSD_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/datasets.h"
#include "bench/harness.h"
#include "bench/workload.h"
#include "core/wc_index.h"
#include "labeling/naive_index.h"
#include "util/flags.h"
#include "util/timer.h"

namespace wcsd::bench {

/// Parsed common flags.
struct BenchConfig {
  double scale = 1.0;
  size_t queries = 10000;
  size_t online_queries = 200;
  size_t budget_mb = 1024;
  uint64_t seed = 42;

  static BenchConfig FromFlags(int argc, char** argv,
                               size_t default_budget_mb = 48) {
    Flags flags(argc, argv);
    BenchConfig config;
    config.scale = flags.GetDouble("scale", 1.0);
    config.queries = static_cast<size_t>(flags.GetInt("queries", 10000));
    config.online_queries =
        static_cast<size_t>(flags.GetInt("online", 200));
    config.budget_mb = static_cast<size_t>(
        flags.GetInt("budget_mb", static_cast<int64_t>(default_budget_mb)));
    config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    return config;
  }
};

/// Build outcome of one indexing method on one dataset.
struct BuildOutcome {
  double seconds = 0.0;
  size_t bytes = 0;
  bool failed = false;  // Rendered as the paper's INF cell.
};

/// Times a Naïve build under the configured budget.
inline BuildOutcome BuildNaive(const QualityGraph& g, size_t budget_mb) {
  NaiveWcsdIndex::Options options;
  options.memory_budget_bytes = budget_mb << 20;
  Timer timer;
  auto built = NaiveWcsdIndex::Build(g, options);
  BuildOutcome outcome;
  outcome.seconds = timer.Seconds();
  if (!built.ok()) {
    outcome.failed = true;
    return outcome;
  }
  outcome.bytes = built.value().MemoryBytes();
  return outcome;
}

/// Times a WC-INDEX build with the given options. The size is the vector
/// measure the PLL, Naïve and LCR baselines report (labels().MemoryBytes()),
/// not the served flat bytes: the baselines have nothing like the flat hub
/// directory.
inline BuildOutcome BuildWc(const QualityGraph& g,
                            const WcIndexOptions& options) {
  Timer timer;
  WcIndex index = WcIndex::Build(g, options);
  BuildOutcome outcome;
  outcome.seconds = timer.Seconds();
  outcome.bytes = index.labels().MemoryBytes();
  return outcome;
}

/// Average milliseconds per query for `fn` over `workload`.
inline double TimeQueriesMs(
    const std::vector<WcsdQuery>& workload,
    const std::function<Distance(Vertex, Vertex, Quality)>& fn) {
  // Touch a few queries first so lazily-allocated scratch is faulted in.
  size_t warmup = std::min<size_t>(8, workload.size());
  volatile Distance sink = 0;
  for (size_t i = 0; i < warmup; ++i) {
    sink = sink + fn(workload[i].s, workload[i].t, workload[i].w);
  }
  Timer timer;
  for (const WcsdQuery& q : workload) {
    sink = sink + fn(q.s, q.t, q.w);
  }
  double total_ms = timer.Millis();
  (void)sink;
  return workload.empty() ? 0.0
                          : total_ms / static_cast<double>(workload.size());
}

/// Prints the standard bench preamble.
inline void PrintPreamble(const char* figure, const BenchConfig& config,
                          const char* note) {
  std::printf("%s\n", figure);
  std::printf("scale=%.3g queries=%zu online=%zu budget=%zuMB seed=%llu\n",
              config.scale, config.queries, config.online_queries,
              config.budget_mb,
              static_cast<unsigned long long>(config.seed));
  if (note && note[0]) std::printf("%s\n", note);
}

}  // namespace wcsd::bench

#endif  // WCSD_BENCH_BENCH_COMMON_H_

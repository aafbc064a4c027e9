// Glue between google-benchmark and the harness's BENCH_*.json emitter.
//
// The micro benches replace BENCHMARK_MAIN() with WCSD_BENCH_JSON_MAIN(suite)
// so every run leaves a machine-readable BENCH_<suite>.json next to the
// console output. One record per benchmark: under
// --benchmark_repetitions=N its median_ns is the median over the N
// repetitions, with their minimum (min_ns) and coefficient of variation
// (cv) beside it, and its counters come from the median repetition.
// `threads` and `backend` are recovered from the benchmark name's Arg
// annotations ("/threads:4", "/backend:1" with 0 = vector, 1 = flat);
// benchmarks without the annotation record threads=1, backend "vector".

#ifndef WCSD_BENCH_BENCH_JSON_H_
#define WCSD_BENCH_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"

namespace wcsd::bench {

/// Extracts the integer following `key:` in a benchmark run name, or `def`.
inline long ArgFromRunName(const std::string& name, const std::string& key,
                           long def) {
  size_t pos = name.find(key + ":");
  if (pos == std::string::npos) return def;
  return std::strtol(name.c_str() + pos + key.size() + 1, nullptr, 10);
}

/// Console reporter that also feeds every benchmark into a BenchJsonWriter.
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonExportReporter(const std::string& suite) : writer_(suite) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Aggregate rows (mean/median/stddev/cv under --benchmark_repetitions)
      // are recomputed in Finalize from the raw repetitions.
      if (run.error_occurred || run.run_type == Run::RT_Aggregate) continue;
      const std::string name = run.benchmark_name();
      auto [it, inserted] = index_.try_emplace(name, benches_.size());
      if (inserted) benches_.push_back(Bench{name, {}});
      Repetition repetition;
      repetition.ns =
          run.GetAdjustedRealTime() *
          benchmark::GetTimeUnitMultiplier(benchmark::kNanosecond) /
          benchmark::GetTimeUnitMultiplier(run.time_unit);
      for (const auto& [counter, value] : run.counters) {
        repetition.counters.emplace_back(counter,
                                         static_cast<double>(value.value));
      }
      benches_[it->second].repetitions.push_back(std::move(repetition));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  // Framework hook, called once by RunSpecifiedBenchmarks after all runs.
  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    for (Bench& bench : benches_) writer_.Record(Summarize(&bench));
    std::string path;
    Status st = writer_.WriteFile(&path);
    if (st.ok()) {
      std::printf("wrote %s (%zu records)\n", path.c_str(),
                  writer_.records().size());
    } else {
      std::fprintf(stderr, "BENCH json: %s\n", st.ToString().c_str());
    }
  }

 private:
  struct Repetition {
    double ns = 0;
    std::vector<std::pair<std::string, double>> counters;
  };
  struct Bench {
    std::string name;
    std::vector<Repetition> repetitions;
  };

  static BenchRecord Summarize(Bench* bench) {
    std::vector<Repetition>& reps = bench->repetitions;
    std::sort(reps.begin(), reps.end(),
              [](const Repetition& a, const Repetition& b) {
                return a.ns < b.ns;
              });
    const size_t count = reps.size();
    const size_t mid = (count - 1) / 2;  // the lower middle when even
    BenchRecord record;
    record.name = bench->name;
    record.median_ns =
        count % 2 == 1 ? reps[mid].ns : (reps[mid].ns + reps[mid + 1].ns) / 2;
    record.min_ns = reps.front().ns;
    record.repetitions = count;
    if (count > 1) {
      double mean = 0;
      for (const Repetition& r : reps) mean += r.ns;
      mean /= static_cast<double>(count);
      double squares = 0;
      for (const Repetition& r : reps) {
        squares += (r.ns - mean) * (r.ns - mean);
      }
      record.cv =
          std::sqrt(squares / static_cast<double>(count - 1)) / mean;
    }
    record.threads =
        static_cast<size_t>(ArgFromRunName(record.name, "threads", 1));
    record.backend =
        ArgFromRunName(record.name, "backend", 0) == 1 ? "flat" : "vector";
    record.counters = std::move(reps[mid].counters);
    return record;
  }

  BenchJsonWriter writer_;
  std::vector<Bench> benches_;  // in first-report order
  std::map<std::string, size_t> index_;
};

}  // namespace wcsd::bench

#define WCSD_BENCH_JSON_MAIN(suite)                          \
  int main(int argc, char** argv) {                          \
    benchmark::Initialize(&argc, argv);                      \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) { \
      return 1;                                              \
    }                                                        \
    wcsd::bench::JsonExportReporter reporter(suite);         \
    benchmark::RunSpecifiedBenchmarks(&reporter);            \
    benchmark::Shutdown();                                   \
    return 0;                                                \
  }

#endif  // WCSD_BENCH_BENCH_JSON_H_

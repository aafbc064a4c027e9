// Output harness for the figure/table reproduction binaries: aligned tables
// with the same rows/series the paper reports, plus INF cells for methods
// that exceed their budget (as the paper renders Naïve on WST/CTR).

#ifndef WCSD_BENCH_HARNESS_H_
#define WCSD_BENCH_HARNESS_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace wcsd {

/// Fixed-width console table writer.
class TablePrinter {
 public:
  /// Columns with display widths; printing the header immediately.
  TablePrinter(const std::string& title,
               const std::vector<std::string>& columns,
               const std::vector<int>& widths);

  /// Prints one row; cells beyond `columns` are ignored.
  void Row(const std::vector<std::string>& cells);

 private:
  std::vector<int> widths_;
};

/// Formats seconds with 3 significant decimals ("12.345").
std::string FormatSeconds(double seconds);

/// Formats a time-per-query in milliseconds ("0.0031").
std::string FormatMillis(double millis);

/// Formats bytes as fractional GB with enough precision for small indexes.
std::string FormatGb(size_t bytes);

/// The paper's INF cell.
std::string InfCell();

/// One machine-readable benchmark measurement, so the perf trajectory can
/// be tracked across PRs without scraping console tables.
struct BenchRecord {
  std::string name;       // benchmark id, e.g. "BM_QueryImpl/impl:3"
  double median_ns = 0;   // median (or sole) wall time per iteration
  /// Over repeated runs (repetitions > 1): the fastest run's time and the
  /// coefficient of variation of all of them.
  size_t repetitions = 1;
  double min_ns = 0;
  double cv = 0;
  size_t threads = 1;     // worker threads the measured code used
  std::string backend;    // label storage backend: "vector" | "flat" | other
  /// Benchmark-reported counters (google-benchmark UserCounters), emitted
  /// as a nested JSON object — how non-latency results (byte skew,
  /// throughput) reach the BENCH_*.json files.
  std::vector<std::pair<std::string, double>> counters;
};

/// Collects BenchRecords and writes them as one JSON array to
/// BENCH_<suite>.json in the working directory.
class BenchJsonWriter {
 public:
  /// `suite` names the output file: BENCH_<suite>.json.
  explicit BenchJsonWriter(std::string suite) : suite_(std::move(suite)) {}

  void Record(BenchRecord record) { records_.push_back(std::move(record)); }

  const std::vector<BenchRecord>& records() const { return records_; }

  /// Writes BENCH_<suite>.json (overwriting) and reports the path chosen.
  Status WriteFile(std::string* out_path = nullptr) const;

 private:
  std::string suite_;
  std::vector<BenchRecord> records_;
};

}  // namespace wcsd

#endif  // WCSD_BENCH_HARNESS_H_

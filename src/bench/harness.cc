#include "bench/harness.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace wcsd {

namespace {
void PrintCell(const std::string& text, int width) {
  std::printf("%-*s", width, text.c_str());
}
}  // namespace

TablePrinter::TablePrinter(const std::string& title,
                           const std::vector<std::string>& columns,
                           const std::vector<int>& widths)
    : widths_(widths) {
  std::printf("\n== %s ==\n", title.c_str());
  for (size_t i = 0; i < columns.size(); ++i) {
    PrintCell(columns[i], i < widths_.size() ? widths_[i] : 12);
  }
  std::printf("\n");
  int total = 0;
  for (int w : widths_) total += w;
  for (int i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
}

void TablePrinter::Row(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    PrintCell(cells[i], i < widths_.size() ? widths_[i] : 12);
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  return buf;
}

std::string FormatMillis(double millis) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", millis);
  return buf;
}

std::string FormatGb(size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f",
                static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0));
  return buf;
}

std::string InfCell() { return "INF"; }

namespace {
// Minimal JSON string escaping: the names we emit are benchmark ids, but a
// stray quote or backslash must not corrupt the file.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}
}  // namespace

Status BenchJsonWriter::WriteFile(std::string* out_path) const {
  std::string path = "BENCH_" + suite_ + ".json";
  if (out_path != nullptr) *out_path = path;
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "[\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const BenchRecord& r = records_[i];
    char median[32];
    std::snprintf(median, sizeof(median), "%.1f", r.median_ns);
    out << "  {\"name\": \"" << JsonEscape(r.name) << "\", \"median_ns\": "
        << median;
    if (r.repetitions > 1) {
      char spread[96];
      std::snprintf(spread, sizeof(spread),
                    ", \"min_ns\": %.1f, \"cv\": %.4f, \"repetitions\": %zu",
                    r.min_ns, r.cv, r.repetitions);
      out << spread;
    }
    out << ", \"threads\": " << r.threads << ", \"backend\": \""
        << JsonEscape(r.backend) << "\"";
    if (!r.counters.empty()) {
      out << ", \"counters\": {";
      for (size_t c = 0; c < r.counters.size(); ++c) {
        char value[32];
        std::snprintf(value, sizeof(value), "%.4f", r.counters[c].second);
        out << "\"" << JsonEscape(r.counters[c].first) << "\": " << value
            << (c + 1 < r.counters.size() ? ", " : "");
      }
      out << "}";
    }
    out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
  }
  out << "]\n";
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

}  // namespace wcsd

// Figure 6 reproduction: index size (GB) on the road-network family.
//
// Paper shape to reproduce: Naïve is the largest everywhere (one 2-hop
// index per distinct quality) and exceeds memory on the largest datasets;
// WC-INDEX and WC-INDEX+ have identical size when built with the same
// vertex order — the query-efficient construction only affects time.

#include "bench_common.h"

using namespace wcsd;
using namespace wcsd::bench;

int main(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromFlags(argc, argv);
  PrintPreamble("Figure 6: Indexing Size (GB) for road networks", config,
                "series: Naive / WC-INDEX / WC-INDEX+");

  TablePrinter table(
      "Index size (GB)",
      {"dataset", "|V|", "Naive", "WC-INDEX", "WC-INDEX+", "WC==WC+"},
      {9, 10, 12, 12, 12, 9});
  for (const std::string& name : RoadDatasetNames()) {
    Dataset d = MakeRoadDataset(name, config.scale);
    BuildOutcome naive = BuildNaive(d.graph, config.budget_mb);
    // Same-order comparison (paper §VI Exp 2): both on the degree order,
    // toggling only the query-efficient construction.
    WcIndexOptions basic = WcIndexOptions::Basic();
    WcIndexOptions fast = WcIndexOptions::Basic();
    fast.query_efficient = true;
    BuildOutcome wc = BuildWc(d.graph, basic);
    BuildOutcome wc_plus = BuildWc(d.graph, fast);
    table.Row({name, std::to_string(d.graph.NumVertices()),
               naive.failed ? InfCell() : FormatGb(naive.bytes),
               FormatGb(wc.bytes), FormatGb(wc_plus.bytes),
               wc.bytes == wc_plus.bytes ? "yes" : "NO"});
  }
  return 0;
}

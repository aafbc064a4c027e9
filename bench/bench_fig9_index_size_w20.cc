// Figure 9 reproduction: index size (GB) with |w| = 20 on NY ... EST.
//
// Paper shape to reproduce: Naïve's footprint scales with |w| (20 separate
// indexes) while the single WC-INDEX grows only with the dominance
// frontier; WC-INDEX and WC-INDEX+ sizes coincide under the same order.

#include "bench_common.h"

using namespace wcsd;
using namespace wcsd::bench;

int main(int argc, char** argv) {
  // Larger default budget, as in Figure 8: the paper's Naïve builds on all
  // six datasets at |w| = 20.
  BenchConfig config = BenchConfig::FromFlags(argc, argv,
                                              /*default_budget_mb=*/256);
  PrintPreamble("Figure 9: Indexing size (GB) for road networks, |w| = 20",
                config, "series: Naive / WC-INDEX / WC-INDEX+");

  TablePrinter table("Index size (GB), |w|=20",
                     {"dataset", "|V|", "Naive", "WC-INDEX", "WC-INDEX+"},
                     {9, 10, 12, 12, 12});
  for (const std::string& name :
       {std::string("NY"), std::string("BAY"), std::string("COL"),
        std::string("FLA"), std::string("CAL"), std::string("EST")}) {
    Dataset d = MakeRoadDataset(name, config.scale, /*num_qualities=*/20);
    BuildOutcome naive = BuildNaive(d.graph, config.budget_mb);
    WcIndexOptions basic = WcIndexOptions::Basic();
    WcIndexOptions fast = WcIndexOptions::Basic();
    fast.query_efficient = true;
    BuildOutcome wc = BuildWc(d.graph, basic);
    BuildOutcome wc_plus = BuildWc(d.graph, fast);
    table.Row({name, std::to_string(d.graph.NumVertices()),
               naive.failed ? InfCell() : FormatGb(naive.bytes),
               FormatGb(wc.bytes), FormatGb(wc_plus.bytes)});
  }
  return 0;
}

// Figure 11 reproduction: index size (GB) on the social-network family.
//
// Paper shape to reproduce: Naïve largest on every dataset; WC-INDEX ==
// WC-INDEX+ under a shared vertex order.

#include "bench_common.h"

using namespace wcsd;
using namespace wcsd::bench;

int main(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromFlags(argc, argv);
  PrintPreamble("Figure 11: Indexing Size (GB) for social networks", config,
                "series: Naive / WC-INDEX / WC-INDEX+");

  TablePrinter table("Index size (GB)",
                     {"dataset", "|V|", "|w|", "Naive", "WC-INDEX",
                      "WC-INDEX+"},
                     {9, 10, 5, 12, 12, 12});
  for (const std::string& name : SocialDatasetNames()) {
    Dataset d = MakeSocialDataset(name, config.scale);
    BuildOutcome naive = BuildNaive(d.graph, config.budget_mb);
    WcIndexOptions basic = WcIndexOptions::Basic();
    WcIndexOptions fast = WcIndexOptions::Basic();
    fast.query_efficient = true;
    BuildOutcome wc = BuildWc(d.graph, basic);
    BuildOutcome wc_plus = BuildWc(d.graph, fast);
    table.Row({name, std::to_string(d.graph.NumVertices()),
               std::to_string(d.num_qualities),
               naive.failed ? InfCell() : FormatGb(naive.bytes),
               FormatGb(wc.bytes), FormatGb(wc_plus.bytes)});
  }
  return 0;
}

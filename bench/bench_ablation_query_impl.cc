// Ablation B (§IV.C): the four query implementations — Algorithm 2 scan,
// Algorithm 4 hub-grouped, binary-search, Algorithm 5 merge (Query+) — and
// the effect of the query-efficient construction on indexing time.
//
// Paper shape to reproduce: Query+ fastest at query time; the
// query-efficient construction strictly reduces indexing time at equal
// index size.

#include "bench_common.h"

using namespace wcsd;
using namespace wcsd::bench;

int main(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromFlags(argc, argv);
  PrintPreamble("Ablation B: query implementations (Algorithms 2/4/5)",
                config, "");

  for (bool social : {false, true}) {
    Dataset d = social ? MakeSocialDataset("EU", config.scale)
                       : MakeRoadDataset("COL", config.scale);
    auto workload = MakeQueryWorkload(d.graph, config.queries, config.seed);
    WcIndex index = WcIndex::Build(d.graph, WcIndexOptions::Plus());

    TablePrinter table(
        std::string("Query implementations (") + d.name + ")",
        {"impl", "algorithm", "query(ms)"}, {12, 22, 12});
    struct Case {
      const char* name;
      const char* algo;
      QueryImpl impl;
    };
    const Case cases[] = {
        {"scan", "Algorithm 2", QueryImpl::kScan},
        {"hub-grouped", "Algorithm 4", QueryImpl::kHubGrouped},
        {"binary", "Alg. 4 + Theorem 3", QueryImpl::kBinary},
        {"merge", "Algorithm 5 (Query+)", QueryImpl::kMerge},
    };
    for (const Case& c : cases) {
      double ms = TimeQueriesMs(
          workload, [&](Vertex s, Vertex t, Quality w) {
            return index.Query(s, t, w, c.impl);
          });
      table.Row({c.name, c.algo, FormatMillis(ms)});
    }

    // Construction-side ablation: basic vs. query-efficient.
    TablePrinter build_table(
        std::string("Construction variants (") + d.name + ")",
        {"variant", "index-time(s)", "size(GB)"}, {22, 14, 11});
    for (bool query_efficient : {false, true}) {
      WcIndexOptions options;  // Same degree order for comparability.
      options.query_efficient = query_efficient;
      Timer timer;
      WcIndex built = WcIndex::Build(d.graph, options);
      double build_s = timer.Seconds();
      build_table.Row(
          {query_efficient ? "query-efficient" : "basic (Alg. 4 query)",
           FormatSeconds(build_s), FormatGb(built.MemoryBytes())});
    }
  }
  return 0;
}

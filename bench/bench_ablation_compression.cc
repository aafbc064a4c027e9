// Ablation C: compressed label storage. Extends the Figure 6/11 index-size
// story: the flat CSR labels (12-byte entries plus the hub directory)
// delta/varint-encode to a fraction of their size, at a (measured) cost per
// query for the streaming merge over the varint bytes.

#include "bench_common.h"
#include "labeling/label_store.h"

using namespace wcsd;
using namespace wcsd::bench;

namespace {

void RunFamily(const std::vector<std::string>& names, bool social,
               const BenchConfig& config) {
  TablePrinter table(
      social ? "Social networks" : "Road networks",
      {"dataset", "raw(GB)", "compressed(GB)", "ratio", "query(ms)",
       "cquery(ms)"},
      {9, 11, 15, 8, 11, 11});
  for (const std::string& name : names) {
    Dataset d = social ? MakeSocialDataset(name, config.scale)
                       : MakeRoadDataset(name, config.scale);
    WcIndex index = WcIndex::Build(d.graph, WcIndexOptions::Plus());
    index.Finalize();
    CompressedFlatLabelSet compressed =
        CompressedFlatLabelSet::FromFlat(index.flat_labels());
    const LabelStore store(compressed, index.NumVertices());
    auto workload =
        MakeQueryWorkload(d.graph, config.queries, config.seed);
    double raw_ms = TimeQueriesMs(
        workload,
        [&](Vertex s, Vertex t, Quality w) { return index.Query(s, t, w); });
    double compressed_ms = TimeQueriesMs(
        workload, [&](Vertex s, Vertex t, Quality w) {
          return MergeStores(store, s, store, t, w);
        });
    char ratio[16];
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  static_cast<double>(index.MemoryBytes()) /
                      static_cast<double>(compressed.MemoryBytes()));
    table.Row({name, FormatGb(index.MemoryBytes()),
               FormatGb(compressed.MemoryBytes()), ratio,
               FormatMillis(raw_ms), FormatMillis(compressed_ms)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromFlags(argc, argv);
  PrintPreamble("Ablation C: compressed label storage", config,
                "cquery = query evaluated directly on the compressed form");
  RunFamily({"NY", "COL", "CAL"}, /*social=*/false, config);
  RunFamily({"MV-10", "EU", "SO-Y"}, /*social=*/true, config);
  return 0;
}

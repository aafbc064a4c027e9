#include "labeling/lcr_adapt.h"

#include <algorithm>
#include <vector>

#include "graph/subgraph.h"
#include "labeling/pll.h"
#include "labeling/query.h"

namespace wcsd {

LcrAdaptIndex LcrAdaptIndex::Build(const QualityGraph& g) {
  const size_t n = g.NumVertices();
  // One global order shared by all passes so merged hub ranks agree.
  VertexOrder order = DegreeOrder(g);
  QualityPartition partition(g);

  // Accumulate raw entries: each level-l PLL entry becomes (hub, dist,
  // threshold_l).
  std::vector<std::vector<LabelEntry>> raw(n);
  for (size_t level = 0; level < partition.NumLevels(); ++level) {
    Quality threshold = partition.thresholds()[level];
    Pll pll = Pll::Build(partition.GraphAtLevel(level), order);
    for (Vertex v = 0; v < n; ++v) {
      for (const LabelEntry& e : pll.labels().For(v)) {
        raw[v].push_back(LabelEntry{e.hub, e.dist, threshold});
      }
    }
  }

  // Merge: sort by (hub asc, dist asc, quality desc) and keep the Pareto
  // frontier per hub group — an entry survives only if its quality strictly
  // exceeds every shorter-or-equal entry's quality (Def. 4 dominance).
  LabelSet labels(n);
  for (Vertex v = 0; v < n; ++v) {
    auto& entries = raw[v];
    std::sort(entries.begin(), entries.end(),
              [](const LabelEntry& a, const LabelEntry& b) {
                if (a.hub != b.hub) return a.hub < b.hub;
                if (a.dist != b.dist) return a.dist < b.dist;
                return a.quality > b.quality;
              });
    auto* lv = labels.Mutable(v);
    Rank current_hub = static_cast<Rank>(-1);
    Quality best_quality = 0;
    for (const LabelEntry& e : entries) {
      if (e.hub != current_hub) {
        current_hub = e.hub;
        best_quality = e.quality;
        lv->push_back(e);
        continue;
      }
      if (e.quality > best_quality) {
        best_quality = e.quality;
        lv->push_back(e);
      }
    }
  }
  return LcrAdaptIndex(std::move(labels), std::move(order));
}

Distance LcrAdaptIndex::Query(Vertex s, Vertex t, Quality w) const {
  if (s == t) return 0;
  return QueryLabels(labels_.For(s), labels_.For(t), w);
}

}  // namespace wcsd

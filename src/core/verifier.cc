#include "core/verifier.h"

#include <limits>
#include <sstream>
#include <vector>

#include "labeling/query.h"
#include "search/wc_bfs.h"

namespace wcsd {

std::string VerificationReport::Summary() const {
  std::ostringstream out;
  out << "entries=" << entries_checked << " pairs=" << pairs_checked
      << " sound_viol=" << soundness_violations
      << " tight_viol=" << tightness_violations
      << " mono_viol=" << monotonicity_violations
      << " dominated=" << dominated_entries
      << " unnecessary=" << unnecessary_entries
      << " complete_viol=" << completeness_violations
      << (ok() ? " [OK]" : " [FAIL]");
  return out.str();
}

VerificationReport VerifySoundness(const LabelSet& labels,
                                   const VertexOrder& order,
                                   const QualityGraph& g, bool require_tight) {
  VerificationReport report;
  WcBfs bfs(&g);
  for (Vertex v = 0; v < labels.NumVertices(); ++v) {
    for (const LabelEntry& e : labels.For(v)) {
      ++report.entries_checked;
      Vertex hub_vertex = order.VertexAt(e.hub);
      if (e.quality == kInfQuality) {
        // Self entries: only (v, 0, inf) is a valid infinite-quality path.
        if (hub_vertex != v || e.dist != 0) ++report.soundness_violations;
        continue;
      }
      Distance d = bfs.Query(hub_vertex, v, e.quality);
      if (d > e.dist) ++report.soundness_violations;
      if (require_tight && d != e.dist) ++report.tightness_violations;
    }
  }
  return report;
}

VerificationReport VerifyMonotonicity(const LabelSet& labels) {
  VerificationReport report;
  for (Vertex v = 0; v < labels.NumVertices(); ++v) {
    auto lv = labels.For(v);
    for (size_t i = 0; i < lv.size(); ++i) {
      ++report.entries_checked;
      if (i == 0 || lv[i - 1].hub != lv[i].hub) continue;
      // Same hub group: require strictly ascending dist AND quality
      // (Theorem 3); any violation implies a dominance relation (Def. 4).
      if (!(lv[i - 1].dist < lv[i].dist && lv[i - 1].quality < lv[i].quality)) {
        ++report.monotonicity_violations;
        ++report.dominated_entries;
      }
    }
  }
  return report;
}

VerificationReport VerifyCompleteness(const WcIndex& index,
                                      const QualityGraph& g) {
  VerificationReport report;
  WcBfs bfs(&g);
  std::vector<Quality> thresholds = g.DistinctQualities();
  // One unsatisfiable threshold: no edge qualifies, so only s == t has a
  // finite answer.
  if (!thresholds.empty()) thresholds.push_back(thresholds.back() + 1.0f);
  const size_t n = g.NumVertices();
  for (Vertex s = 0; s < n; ++s) {
    for (Quality w : thresholds) {
      std::vector<Distance> oracle = bfs.AllDistances(s, w);
      for (Vertex t = 0; t < n; ++t) {
        ++report.pairs_checked;
        if (index.Query(s, t, w) != oracle[t]) {
          ++report.completeness_violations;
        }
      }
    }
  }
  return report;
}

VerificationReport VerifyMinimality(const WcIndex& index) {
  const LabelSet labels = index.labels();
  const VertexOrder& order = index.order();
  VerificationReport report = VerifyMonotonicity(labels);
  for (Vertex v = 0; v < labels.NumVertices(); ++v) {
    auto lv = labels.For(v);
    for (size_t i = 0; i < lv.size(); ++i) {
      const LabelEntry& e = lv[i];
      Vertex hub_vertex = order.VertexAt(e.hub);
      if (hub_vertex == v) continue;  // Self entries are trivially needed.
      // Necessity: with e removed, the query (v, hub_vertex, e.quality)
      // must no longer be answerable within e.dist.
      std::vector<LabelEntry> without(lv.begin(), lv.end());
      without.erase(without.begin() + static_cast<ptrdiff_t>(i));
      Distance covered = QueryLabels({without.data(), without.size()},
                                     labels.For(hub_vertex), e.quality);
      if (covered <= e.dist) ++report.unnecessary_entries;
    }
  }
  return report;
}

namespace {
void Merge(VerificationReport* into, const VerificationReport& from) {
  into->entries_checked += from.entries_checked;
  into->pairs_checked += from.pairs_checked;
  into->soundness_violations += from.soundness_violations;
  into->tightness_violations += from.tightness_violations;
  into->monotonicity_violations += from.monotonicity_violations;
  into->dominated_entries += from.dominated_entries;
  into->unnecessary_entries += from.unnecessary_entries;
  into->completeness_violations += from.completeness_violations;
}
}  // namespace

VerificationReport VerifyAll(const WcIndex& index, const QualityGraph& g) {
  VerificationReport report = VerifySoundness(index.labels(), index.order(),
                                              g, /*require_tight=*/true);
  Merge(&report, VerifyCompleteness(index, g));
  VerificationReport minimality = VerifyMinimality(index);
  minimality.entries_checked = 0;  // Soundness counted each entry already.
  Merge(&report, minimality);
  return report;
}

}  // namespace wcsd

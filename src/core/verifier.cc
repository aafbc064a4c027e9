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

namespace {

// The checks below read labels through `labels_of(v)`: a LabelSet's
// vectors, or the entries an index serves (WcIndex::EntriesFor — a mapped
// snapshot has no append-oriented labels).
template <typename LabelsOf>
VerificationReport Soundness(size_t n, const LabelsOf& labels_of,
                             const VertexOrder& order, const QualityGraph& g,
                             bool require_tight) {
  VerificationReport report;
  WcBfs bfs(&g);
  for (Vertex v = 0; v < n; ++v) {
    for (const LabelEntry& e : labels_of(v)) {
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

template <typename LabelsOf>
VerificationReport Monotonicity(size_t n, const LabelsOf& labels_of) {
  VerificationReport report;
  for (Vertex v = 0; v < n; ++v) {
    auto lv = labels_of(v);
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

auto ServedLabels(const WcIndex& index) {
  return [&index](Vertex v) { return index.EntriesFor(v); };
}

}  // namespace

VerificationReport VerifySoundness(const LabelSet& labels,
                                   const VertexOrder& order,
                                   const QualityGraph& g, bool require_tight) {
  return Soundness(
      labels.NumVertices(), [&labels](Vertex v) { return labels.For(v); },
      order, g, require_tight);
}

VerificationReport VerifyMonotonicity(const LabelSet& labels) {
  return Monotonicity(labels.NumVertices(),
                      [&labels](Vertex v) { return labels.For(v); });
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
  VerificationReport report =
      Monotonicity(index.NumVertices(), ServedLabels(index));
  const VertexOrder& order = index.order();
  for (Vertex v = 0; v < index.NumVertices(); ++v) {
    // A copy: reading the hubs' labels below may recycle the decode
    // scratch a compressed index returned L(v) in.
    auto served = index.EntriesFor(v);
    const std::vector<LabelEntry> lv(served.begin(), served.end());
    for (size_t i = 0; i < lv.size(); ++i) {
      const LabelEntry& e = lv[i];
      Vertex hub_vertex = order.VertexAt(e.hub);
      if (hub_vertex == v) continue;  // Self entries are trivially needed.
      // Necessity: with e removed, the query (v, hub_vertex, e.quality)
      // must no longer be answerable within e.dist.
      std::vector<LabelEntry> without(lv.begin(), lv.end());
      without.erase(without.begin() + static_cast<ptrdiff_t>(i));
      Distance covered = QueryLabels({without.data(), without.size()},
                                     index.EntriesFor(hub_vertex), e.quality);
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
  VerificationReport report = Soundness(index.NumVertices(),
                                        ServedLabels(index), index.order(), g,
                                        /*require_tight=*/true);
  Merge(&report, VerifyCompleteness(index, g));
  Merge(&report, VerifyMinimality(index));
  return report;
}

}  // namespace wcsd

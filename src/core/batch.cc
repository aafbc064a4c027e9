#include "core/batch.h"

namespace wcsd {

std::vector<RankedCandidate> TopKClosest(const WcIndex& index, Vertex source,
                                         const std::vector<Vertex>& candidates,
                                         Quality w, size_t k) {
  return TopKClosestOverLabels(
      index.NumVertices(), source, candidates, w, k,
      [&index](Vertex v) { return index.EntriesFor(v); });
}

std::vector<ProfilePoint> QualityProfile(const WcIndex& index, Vertex s,
                                         Vertex t,
                                         const std::vector<Quality>& thresholds,
                                         size_t* label_merges) {
  return QualityProfileOverIntervals(
      thresholds,
      [&](Quality w) { return index.QueryWithInterval(s, t, w); },
      label_merges);
}

}  // namespace wcsd

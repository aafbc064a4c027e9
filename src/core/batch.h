// Batch query inputs and constraint-aware nearest-neighbor helpers.
//
// The paper's applications issue queries in bulk (search ranking evaluates
// distances to many candidates; QoS admission checks whole flow sets).
// A workload of BatchQueryInput runs through QueryEngine::Batch
// (serve/query_engine.h), which fans it out over the engine's pool. These
// helpers amortize the other bulk shapes over the index:
//   * TopKClosest     — rank a candidate set by w-constrained distance
//                       (the §I social-search scenario);
//   * QualityProfile  — for one pair, the full dominance frontier
//                       (distance at every distinct threshold), extracted
//                       from the labels without touching the graph.

#ifndef WCSD_CORE_BATCH_H_
#define WCSD_CORE_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/wc_index.h"
#include "labeling/hub_table.h"
#include "labeling/query.h"
#include "util/types.h"

namespace wcsd {

/// One batch query input.
struct BatchQueryInput {
  Vertex s;
  Vertex t;
  Quality w;
};

/// A ranked candidate.
struct RankedCandidate {
  Vertex vertex;
  Distance dist;
};

/// Returns up to k candidates closest to `source` under constraint `w`,
/// ascending by distance (ties by vertex id); unreachable candidates are
/// omitted. One-to-many evaluation (Zhu-style single-source): the source's
/// labels are scattered ONCE into the hub table (labeling/hub_table.h),
/// then each candidate costs one probe over its own labels — instead of a
/// full two-sided merge per candidate. Bit-identical to ranking
/// per-candidate Query calls (fuzz-asserted).
std::vector<RankedCandidate> TopKClosest(const WcIndex& index, Vertex source,
                                         const std::vector<Vertex>& candidates,
                                         Quality w, size_t k);

/// One point of a pair's quality/distance trade-off.
struct ProfilePoint {
  Quality quality;  // constraint threshold
  Distance dist;    // w-constrained distance at that threshold
};

/// The full trade-off curve for (s, t): for each threshold in `thresholds`
/// (any order; evaluated ascending internally), the constrained distance,
/// positionally aligned with the input. Points with infinite distance are
/// included (callers often want to see where the curve breaks).
///
/// d(s, t, w) is a step function of w, so the curve is computed from the
/// interval kernel (QueryWithInterval): each label merge certifies a whole
/// maximal constraint interval, and every threshold inside it is answered
/// for free. The merge count equals the number of DISTINCT intervals the
/// thresholds land in — bounded by the pair's breakpoint count, not the
/// threshold count — and is reported through `label_merges` when non-null.
std::vector<ProfilePoint> QualityProfile(
    const WcIndex& index, Vertex s, Vertex t,
    const std::vector<Quality>& thresholds, size_t* label_merges = nullptr);

// ------------------------------------------------------------------
// Implementation cores shared with the serving engine (a shard tiling
// stitches per-vertex label slices from different shards, so the cores are
// parameterized over an entries accessor / interval kernel).

/// One-to-many top-k over any label storage of an index with n vertices:
/// `entries_of(v)` returns the label entries of vertex v (v < n), valid
/// until its next call. Semantics match TopKClosest.
///
/// The hoisted source side is one hub-table scatter: per hub, the minimal
/// w-feasible distance (Theorem 3: within a hub group the first
/// quality-feasible entry has the minimal distance). Hub ranks span the
/// whole index, so n is the rank space, and a rank at or beyond it
/// matches nothing.
template <typename EntriesOf>
std::vector<RankedCandidate> TopKClosestOverLabels(
    size_t n, Vertex source, std::span<const Vertex> candidates, Quality w,
    size_t k, EntriesOf&& entries_of) {
  std::vector<RankedCandidate> ranked;
  if (source >= n) return ranked;  // every candidate is unreachable
  ranked.reserve(candidates.size());
  // A copy, because the scatter's reset reads the source's label after the
  // candidates' have reused its storage.
  thread_local std::vector<LabelEntry> source_label;
  const std::span<const LabelEntry> ls = entries_of(source);
  source_label.assign(ls.begin(), ls.end());
  {
    const DistanceScatter scattered(source_label, w, n);
    for (Vertex c : candidates) {
      Distance d = kInfDistance;
      if (c == source) {
        d = 0;
      } else if (c < n) {
        d = scattered.Probe(entries_of(c));
      }
      if (d != kInfDistance) ranked.push_back({c, d});
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedCandidate& a, const RankedCandidate& b) {
              if (a.dist != b.dist) return a.dist < b.dist;
              return a.vertex < b.vertex;
            });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

/// Threshold sweep over any interval kernel: `query_interval(w)` returns
/// the IntervalQueryResult for the pair at threshold w. Issues one kernel
/// call per distinct certified interval; semantics match QualityProfile.
template <typename IntervalFn>
std::vector<ProfilePoint> QualityProfileOverIntervals(
    std::span<const Quality> thresholds, IntervalFn&& query_interval,
    size_t* label_merges = nullptr) {
  std::vector<ProfilePoint> profile(thresholds.size());
  // Evaluate ascending so each certified interval is reused for every
  // threshold it contains; results land at their input positions.
  std::vector<size_t> by_threshold(thresholds.size());
  for (size_t i = 0; i < by_threshold.size(); ++i) by_threshold[i] = i;
  std::sort(by_threshold.begin(), by_threshold.end(),
            [&](size_t a, size_t b) { return thresholds[a] < thresholds[b]; });
  size_t merges = 0;
  IntervalQueryResult interval;
  bool have_interval = false;
  for (size_t i : by_threshold) {
    const Quality w = thresholds[i];
    if (!have_interval || !interval.Contains(w)) {
      interval = query_interval(w);
      have_interval = true;
      ++merges;
    }
    profile[i] = {w, interval.dist};
  }
  if (label_merges != nullptr) *label_merges = merges;
  return profile;
}

}  // namespace wcsd

#endif  // WCSD_CORE_BATCH_H_

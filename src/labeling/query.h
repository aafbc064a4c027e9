// WCSD query algorithms over two labels (paper §IV.A and §IV.C).
//
// Four implementations answering Eq. (1) — min over common hubs h of
// dist(s,h) + dist(h,t) subject to both entry qualities >= w:
//   * kScan       — Algorithm 2: walk both labels' hub groups in rank order
//                   and scan every entry pair of each matched group pair.
//   * kHubGrouped — Algorithm 4: walk L(t)'s hub groups, look each hub up
//                   in L(s) by binary search, scan the two groups.
//   * kBinary     — Algorithm 4 + Theorem 3: the same lookup, taking the
//                   first entry with quality >= w in each group.
//   * kMerge      — Algorithm 5 (Query+): walk both labels' hub groups in
//                   rank order, taking the first entry with quality >= w in
//                   each matched group; O(|L(s)| + |L(t)|).
//
// All four return identical distances (tested); they differ only in cost.
// Theorem 3 (within a hub group distances and qualities are both strictly
// ascending) is what makes "first entry with quality >= w" the minimal
// distance choice for that hub.
//
// What serves. A pair of FLAT labels is answered by the hub-table join
// (labeling/hub_table.h): L(s) is scattered into a per-thread table
// indexed by hub rank and probed with L(t), the §IV.C lookup instead of a
// merge. It serves distance and witness-hub queries (QueryStores,
// labeling/label_store.h), the certified interval over flat views below,
// and top-k (core/batch.h). A pair with a compressed side keeps the
// streaming merge, and Algorithm 5 stays as the kMerge ablation and the
// reference the join is tested against.
//
// Algorithm 5 is written once, as MergeHubGroups: a walk over two GROUP
// CURSORS that hands every matched hub-group pair to a STEP. A cursor sits
// on one hub group of one label; each storage form has one:
//   * EntrySpanCursor — a bare entry span (LabelSet); group ends are found
//                       by scanning for the next hub;
//   * DirectoryCursor — a FlatLabelView; group ends come from its 8-byte
//                       hub directory;
//   * VarintCursor    — a compressed label's varint stream, read in place
//                       (labeling/compressed_flat.h).
// The two sides may use different cursors, so L(s) and L(t) can come from
// different storage backends (labeling/label_store.h). The steps are
// DistanceStep (Eq. 1), WitnessHubStep (the minimizing hub, for §V path
// reconstruction) and, in query.cc, the full-scan step over the two
// random-access cursors and the certified-interval step over entry spans
// (the reference the flat interval join is tested against).
//
// Cursor interface: `hub` is the current group's rank. Start() enters the
// first group, SkipGroup() moves past the current one, and
// TakeFirst(w, &found) sets `found` to the distance of the group's first
// entry with quality >= w (kInfDistance if none) and moves past it. Each
// returns false once no group is left. The random-access cursors add
// TakeGroup (hand out the group's entries, then move past it), Seek (enter
// the group of a given hub) and last_hub.
//
// The walk takes its cursors by value and every cursor method inlines, so
// cursor fields stay in registers: a cursor whose address escapes into an
// out-of-line call measurably slows the merge.

#ifndef WCSD_LABELING_QUERY_H_
#define WCSD_LABELING_QUERY_H_

#include <algorithm>
#include <span>

#include "labeling/flat_label_set.h"
#include "labeling/label_set.h"
#include "util/types.h"

namespace wcsd {

/// Which query implementation to use.
enum class QueryImpl {
  kScan,
  kHubGrouped,
  kBinary,
  kMerge,
};

/// Query answer plus the witnessing hub (kNullVertex rank if unreachable).
struct HubQueryResult {
  Distance dist = kInfDistance;
  Rank via_hub = static_cast<Rank>(-1);
  Distance dist_from_s = kInfDistance;
  Distance dist_to_t = kInfDistance;
};

/// Query answer plus the maximal constraint interval it certifies.
///
/// d(s, t, w) is a non-decreasing step function of w whose breakpoints are
/// entry qualities (Theorem 3: within a hub group qualities and distances
/// both strictly ascend, so tightening w can only advance each group's
/// chosen entry to a larger distance). The interval [w_lo, w_hi] — CLOSED
/// on both ends, so that +inf and exact float breakpoints are
/// representable — is the maximal interval containing the queried w on
/// which the step function is constant: every w' with w_lo <= w' <= w_hi
/// answers `dist`, and querying just below w_lo or just above w_hi yields
/// a different distance. The defaults describe the everywhere-constant
/// function (s == t, out of range, or no common hub).
struct IntervalQueryResult {
  Distance dist = kInfDistance;
  Quality w_lo = -kInfQuality;
  Quality w_hi = kInfQuality;

  /// True when `dist` is certified for constraint w.
  bool Contains(Quality w) const { return w_lo <= w && w <= w_hi; }

  friend bool operator==(const IntervalQueryResult&,
                         const IntervalQueryResult&) = default;
};

/// Within one hub group [begin, end) sorted by ascending quality, returns
/// the index of the first entry with quality >= w, or `end` if none.
/// Exposed for construction-side pruning and tests.
inline size_t FirstWithQuality(std::span<const LabelEntry> entries,
                               size_t begin, size_t end, Quality w) {
  // Qualities ascend within a hub group (Theorem 3): binary search.
  size_t lo = begin, hi = end;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (entries[mid].quality >= w) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// The distance of entries[i] for the first i in [begin, end) with
/// quality >= w — the Theorem 3 choice for that hub group — or
/// kInfDistance if none. Index arithmetic throughout: turning a pointer
/// pair into a count divides by the 12-byte entry size.
inline Distance FirstFeasibleDistance(std::span<const LabelEntry> entries,
                                      size_t begin, size_t end, Quality w) {
  const size_t i = FirstWithQuality(entries, begin, end, w);
  return i != end ? entries[i].dist : kInfDistance;
}

/// Cursor over a bare entry span: a group ends where the hub changes.
struct EntrySpanCursor {
  std::span<const LabelEntry> entries;
  size_t begin = 0;  // first entry of the current group
  Rank hub = 0;

  explicit EntrySpanCursor(std::span<const LabelEntry> label)
      : entries(label) {}

  bool Start() { return Enter(0); }
  bool SkipGroup() { return Enter(GroupEnd()); }
  bool TakeFirst(Quality w, Distance* found) {
    const size_t end = GroupEnd();
    *found = FirstFeasibleDistance(entries, begin, end, w);
    return Enter(end);
  }
  /// Hands out the current group's entries, then moves past it.
  bool TakeGroup(std::span<const LabelEntry>* group) {
    const size_t end = GroupEnd();
    *group = entries.subspan(begin, end - begin);
    return Enter(end);
  }
  /// Enters the group of `target` at or after the current one; false
  /// (cursor unchanged) if absent.
  bool Seek(Rank target) {
    const auto it = std::lower_bound(
        entries.begin() + begin, entries.end(), target,
        [](const LabelEntry& e, Rank h) { return e.hub < h; });
    return it != entries.end() && it->hub == target &&
           Enter(static_cast<size_t>(it - entries.begin()));
  }
  /// The label's largest hub; the label must not be empty.
  Rank last_hub() const { return entries.back().hub; }

  size_t GroupEnd() const {
    size_t i = begin;
    do {
      ++i;
    } while (i < entries.size() && entries[i].hub == hub);
    return i;
  }
  bool Enter(size_t i) {
    if (i == entries.size()) return false;
    begin = i;
    hub = entries[i].hub;
    return true;
  }
};

/// Cursor over a FlatLabelView: group bounds come from the hub directory.
struct DirectoryCursor {
  std::span<const LabelEntry> entries;
  const HubGroup* group;  // directory element of the current group
  const HubGroup* groups_end;
  Rank hub = 0;

  explicit DirectoryCursor(const FlatLabelView& label)
      : entries(label.entries),
        group(label.groups.data()),
        groups_end(label.groups.data() + label.groups.size()) {}

  bool Start() { return Enter(group); }
  bool SkipGroup() { return Enter(group + 1); }
  bool TakeFirst(Quality w, Distance* found) {
    *found = FirstFeasibleDistance(entries, group->begin, GroupEnd(), w);
    return Enter(group + 1);
  }
  /// Hands out the current group's entries, then moves past it.
  bool TakeGroup(std::span<const LabelEntry>* group_entries) {
    *group_entries =
        entries.subspan(group->begin, GroupEnd() - group->begin);
    return Enter(group + 1);
  }
  /// Enters the group of `target` at or after the current one; false
  /// (cursor unchanged) if absent. Directory elements are 8 bytes, so this
  /// touches ~1/3 the cache lines of the same search over 12-byte entries.
  bool Seek(Rank target) {
    const HubGroup* it = std::lower_bound(
        group, groups_end, target,
        [](const HubGroup& g, Rank h) { return g.hub < h; });
    return it != groups_end && it->hub == target && Enter(it);
  }
  /// The label's largest hub; the label must not be empty.
  Rank last_hub() const { return groups_end[-1].hub; }

  size_t GroupEnd() const {
    return group + 1 != groups_end ? group[1].begin : entries.size();
  }
  bool Enter(const HubGroup* next) {
    if (next == groups_end) return false;
    group = next;
    hub = next->hub;
    return true;
  }
};

/// What a step leaves behind: whether each cursor still sits on a group.
struct GroupsLeft {
  bool s;
  bool t;
};

/// Algorithm 5's walk: advances whichever cursor sits on the lower hub
/// rank, and hands each matched group pair to `step`, which consumes both
/// groups. Ends when either label runs out of groups; returns the step
/// with what it accumulated. The step travels by value like the cursors,
/// so its accumulators stay in registers too.
template <typename SCursor, typename TCursor, typename Step>
inline Step MergeHubGroups(SCursor s, TCursor t, Step step) {
  bool s_left = s.Start();
  bool t_left = t.Start();
  while (s_left && t_left) {
    if (s.hub < t.hub) {
      s_left = s.SkipGroup();
    } else if (t.hub < s.hub) {
      t_left = t.SkipGroup();
    } else {
      const GroupsLeft left = step(s, t);
      s_left = left.s;
      t_left = left.t;
    }
  }
  return step;
}

/// Eq. (1) over matched groups: each side's Theorem 3 choice, summed.
struct DistanceStep {
  explicit DistanceStep(Quality constraint) : w(constraint) {}

  Quality w;
  Distance best = kInfDistance;

  template <typename SCursor, typename TCursor>
  GroupsLeft operator()(SCursor& s, TCursor& t) {
    Distance ds = kInfDistance, dt = kInfDistance;
    const GroupsLeft left{s.TakeFirst(w, &ds), t.TakeFirst(w, &dt)};
    if (ds != kInfDistance && dt != kInfDistance && ds + dt < best) {
      best = ds + dt;
    }
    return left;
  }
};

/// DistanceStep that also keeps the minimizing hub and its two split
/// distances (§V path reconstruction). Only a strictly smaller sum
/// replaces the witness, so ties keep the lowest-ranked hub.
struct WitnessHubStep {
  explicit WitnessHubStep(Quality constraint) : w(constraint) {}

  Quality w;
  HubQueryResult result;

  template <typename SCursor, typename TCursor>
  GroupsLeft operator()(SCursor& s, TCursor& t) {
    const Rank hub = static_cast<Rank>(s.hub);
    Distance ds = kInfDistance, dt = kInfDistance;
    const GroupsLeft left{s.TakeFirst(w, &ds), t.TakeFirst(w, &dt)};
    if (ds != kInfDistance && dt != kInfDistance && ds + dt < result.dist) {
      result = {ds + dt, hub, ds, dt};
    }
    return left;
  }
};

/// The four algorithms over two labels of one storage form, dispatched by
/// tag: bare entry spans (LabelSet) or FlatLabelViews (the flat backend,
/// or decoded compressed labels). Identical answers (tested).
Distance QueryLabels(std::span<const LabelEntry> ls,
                     std::span<const LabelEntry> lt, Quality w,
                     QueryImpl impl = QueryImpl::kMerge);
Distance QueryLabels(const FlatLabelView& ls, const FlatLabelView& lt,
                     Quality w, QueryImpl impl = QueryImpl::kMerge);

/// Algorithm 5 reporting the best hub and the split distances — needed by
/// path reconstruction (§V). Finalized labels go through
/// QueryStoresWithHub (labeling/label_store.h).
HubQueryResult QueryLabelsWithHub(std::span<const LabelEntry> ls,
                                  std::span<const LabelEntry> lt, Quality w);

/// The answer together with the maximal validity interval of it (see
/// IntervalQueryResult) — the dominance fact the serve-side result cache
/// keys on. A distance pass over the matched hub groups, then a pass
/// tracking the tightest quality breakpoint on either side. The
/// breakpoint pass needs random access within groups, so compressed
/// labels are decoded first.
///   * Entry spans: Algorithm 5 twice, one merge per pass (the reference).
///   * Flat views: one hub-table join over the two hub directories feeds
///     both passes. Hub ranks are global: `num_ranks` is the vertex total
///     of the index (not a shard's local count), and a rank at or beyond it
///     matches nothing.
IntervalQueryResult QueryLabelsWithInterval(std::span<const LabelEntry> ls,
                                            std::span<const LabelEntry> lt,
                                            Quality w);
IntervalQueryResult QueryLabelsWithInterval(const FlatLabelView& ls,
                                            const FlatLabelView& lt,
                                            Quality w, size_t num_ranks);

}  // namespace wcsd

#endif  // WCSD_LABELING_QUERY_H_

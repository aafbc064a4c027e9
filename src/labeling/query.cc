#include "labeling/query.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "labeling/hub_table.h"

namespace wcsd {

namespace {

// Algorithm 4's walk: every L(t) group whose hub L(s) also holds — found
// by binary search (Cursor::Seek) — goes to `step` with both groups. Hubs
// present in L(s) are exactly ranks <= rank(s) (its last hub is its self
// entry), so Algorithm 4 Line 2's "Ij.vertex > s" prune ends the walk at
// the first L(t) group past L(s)'s last hub.
template <typename Cursor, typename Step>
Step LookupHubGroups(Cursor s, Cursor t, Step step) {
  if (!s.Start()) return step;
  const Rank max_hub_s = s.last_hub();
  bool t_left = t.Start();
  while (t_left && t.hub <= max_hub_s) {
    Cursor at = s;
    t_left = at.Seek(t.hub) ? step(at, t).t : t.SkipGroup();
  }
  return step;
}

// Full scan of two matched groups — the Algorithm 2 flavor, with no
// reliance on intra-group quality ordering.
struct PairScanStep {
  explicit PairScanStep(Quality constraint) : w(constraint) {}

  Quality w;
  Distance best = kInfDistance;

  template <typename Cursor>
  GroupsLeft operator()(Cursor& s, Cursor& t) {
    std::span<const LabelEntry> gs, gt;
    const GroupsLeft left{s.TakeGroup(&gs), t.TakeGroup(&gt)};
    for (const LabelEntry& a : gs) {
      if (a.quality < w) continue;
      for (const LabelEntry& b : gt) {
        if (b.quality < w) continue;
        const Distance sum = a.dist + b.dist;
        if (sum < best) best = sum;
      }
    }
    return left;
  }
};

// Relaxes the two interval breakpoints over one matched hub-group pair,
// given the already-known answer d_star:
//   * hi_q — the largest quality q such that some pair with
//     dist sum <= d_star has min(quality_s, quality_t) = q. The answer
//     stays d_star exactly while w <= max-over-groups of hi_q.
//   * lo_q — the same for pairs with dist sum < d_star: at any w <= lo_q
//     a strictly better pair becomes usable, so the answer drops.
// Within a group qualities and distances both strictly ascend (Theorem 3),
// so for each i the best feasible j is the largest one whose sum fits, and
// that j only moves left as i advances: two descending pointers, one per
// threshold, O(group) total. Sums are widened to 64 bits so the kernel
// never relies on the label distances staying small.
struct BreakpointStep {
  explicit BreakpointStep(Distance answer) : d_star(answer) {}

  Distance d_star;
  Quality lo_q = -kInfQuality;
  Quality hi_q = -kInfQuality;

  template <typename Cursor>
  GroupsLeft operator()(Cursor& s, Cursor& t) {
    std::span<const LabelEntry> es, et;
    const GroupsLeft left{s.TakeGroup(&es), t.TakeGroup(&et)};
    Relax(es, et);
    return left;
  }

  void Relax(std::span<const LabelEntry> es, std::span<const LabelEntry> et) {
    if (d_star == kInfDistance) {
      // Unreachable at w: every pair is a "strictly better" pair, and the
      // best min-quality over the group is attained by the two last
      // (highest quality) entries.
      lo_q = std::max(lo_q, std::min(es.back().quality, et.back().quality));
      return;
    }
    const uint64_t d = d_star;
    size_t j_eq = et.size();  // pairs with sum <= d_star
    size_t j_lt = et.size();  // pairs with sum <  d_star
    for (const LabelEntry& e : es) {
      const uint64_t ds = e.dist;
      while (j_eq > 0 && ds + uint64_t{et[j_eq - 1].dist} > d) --j_eq;
      if (j_eq == 0) break;  // larger entries only shrink feasibility
      hi_q = std::max(hi_q, std::min(e.quality, et[j_eq - 1].quality));
      while (j_lt > 0 && ds + uint64_t{et[j_lt - 1].dist} >= d) --j_lt;
      if (j_lt > 0) {
        lo_q = std::max(lo_q, std::min(e.quality, et[j_lt - 1].quality));
      }
    }
  }

  // The closed maximal interval: the constant region is (lo_q, hi_q] over
  // the reals, and nextafter turns the open lower end into its exact
  // closed float form.
  IntervalQueryResult Finish() const {
    IntervalQueryResult result;
    result.dist = d_star;
    result.w_lo = lo_q == -kInfQuality ? -kInfQuality
                                       : std::nextafter(lo_q, kInfQuality);
    result.w_hi = d_star == kInfDistance ? kInfQuality : hi_q;
    return result;
  }
};

template <typename Cursor>
Distance Query(Cursor s, Cursor t, Quality w, QueryImpl impl) {
  switch (impl) {
    case QueryImpl::kScan:
      return MergeHubGroups(s, t, PairScanStep(w)).best;
    case QueryImpl::kHubGrouped:
      return LookupHubGroups(s, t, PairScanStep(w)).best;
    case QueryImpl::kBinary:
      return LookupHubGroups(s, t, DistanceStep(w)).best;
    case QueryImpl::kMerge:
      return MergeHubGroups(s, t, DistanceStep(w)).best;
  }
  return kInfDistance;
}

// L(s)'s hub directory scattered into the calling thread's hub table:
// slot h holds the index of L(s)'s hub-h group, or kEmpty. The destructor
// resets exactly those slots (labeling/hub_table.h).
class DirectoryScatter {
 public:
  DirectoryScatter(std::span<const HubGroup> groups, size_t num_ranks)
      : groups_(groups),
        num_ranks_(num_ranks),
        slots_(HubTable::ForThread(num_ranks).slots()) {
    for (size_t g = 0; g < groups_.size(); ++g) {
      if (groups_[g].hub < num_ranks_) {
        slots_[groups_[g].hub] = static_cast<uint32_t>(g);
      }
    }
  }
  ~DirectoryScatter() {
    for (const HubGroup& group : groups_) {
      if (group.hub < num_ranks_) slots_[group.hub] = HubTable::kEmpty;
    }
  }
  DirectoryScatter(const DirectoryScatter&) = delete;
  DirectoryScatter& operator=(const DirectoryScatter&) = delete;

  /// L(s)'s group of `hub`, or kEmpty when L(s) has none.
  uint32_t GroupOf(Rank hub) const {
    return hub < num_ranks_ ? slots_[hub] : HubTable::kEmpty;
  }

 private:
  std::span<const HubGroup> groups_;
  size_t num_ranks_;
  uint32_t* slots_;
};

std::span<const LabelEntry> GroupEntries(const FlatLabelView& label,
                                         size_t g) {
  return label.entries.subspan(label.groups[g].begin,
                               label.GroupEnd(g) - label.groups[g].begin);
}

}  // namespace

Distance QueryLabels(std::span<const LabelEntry> ls,
                     std::span<const LabelEntry> lt, Quality w,
                     QueryImpl impl) {
  return Query(EntrySpanCursor(ls), EntrySpanCursor(lt), w, impl);
}

Distance QueryLabels(const FlatLabelView& ls, const FlatLabelView& lt,
                     Quality w, QueryImpl impl) {
  return Query(DirectoryCursor(ls), DirectoryCursor(lt), w, impl);
}

HubQueryResult QueryLabelsWithHub(std::span<const LabelEntry> ls,
                                  std::span<const LabelEntry> lt,
                                  Quality w) {
  return MergeHubGroups(EntrySpanCursor(ls), EntrySpanCursor(lt),
                        WitnessHubStep(w))
      .result;
}

IntervalQueryResult QueryLabelsWithInterval(std::span<const LabelEntry> ls,
                                            std::span<const LabelEntry> lt,
                                            Quality w) {
  const EntrySpanCursor s(ls), t(lt);
  const Distance d_star = MergeHubGroups(s, t, DistanceStep(w)).best;
  return MergeHubGroups(s, t, BreakpointStep(d_star)).Finish();
}

IntervalQueryResult QueryLabelsWithInterval(const FlatLabelView& ls,
                                            const FlatLabelView& lt,
                                            Quality w, size_t num_ranks) {
  // The matched (L(s) group, L(t) group) pairs, in L(t)'s rank order —
  // the pairs Algorithm 5 would hand its steps.
  thread_local std::vector<std::pair<uint32_t, uint32_t>> matched;
  matched.clear();
  {
    const DirectoryScatter scattered(ls.groups, num_ranks);
    for (size_t g = 0; g < lt.groups.size(); ++g) {
      const uint32_t gs = scattered.GroupOf(lt.groups[g].hub);
      if (gs != HubTable::kEmpty) {
        matched.emplace_back(gs, static_cast<uint32_t>(g));
      }
    }
  }
  uint64_t best = kInfDistance;
  for (const auto& [gs, gt] : matched) {
    const size_t s_begin = ls.groups[gs].begin;
    const size_t t_begin = lt.groups[gt].begin;
    const uint64_t ds =
        FirstFeasibleDistance(ls.entries, s_begin, ls.GroupEnd(gs), w);
    const uint64_t dt =
        FirstFeasibleDistance(lt.entries, t_begin, lt.GroupEnd(gt), w);
    best = std::min(best, ds + dt);
  }
  BreakpointStep breakpoints(static_cast<Distance>(best));
  for (const auto& [gs, gt] : matched) {
    breakpoints.Relax(GroupEntries(ls, gs), GroupEntries(lt, gt));
  }
  return breakpoints.Finish();
}

}  // namespace wcsd

// The query-side hub table: the paper's §IV.C table T, indexed by hub rank.
//
// Algorithm 5 merges L(s) and L(t) by walking both hub directories in rank
// order, a serial load→compare→advance chain whose branches the CPU cannot
// predict. §IV.C removes that chain where the index is built: L(root)'s
// hub groups are looked up by rank in O(1) (the builder's CoveredFast).
// The serving kernels do the same for any pair of flat labels. A JOIN
// scatters L(s) into the table, probes it with L(t), and resets exactly
// the slots it set; each pass is a predictable loop over one label.
//
// Rank space. Hub ranks are global, so the table covers the vertex total
// of the whole index: the snapshot header's num_vertices_total, or n at
// Finalize. A shard's local vertex count is NOT the rank space. A rank at
// or beyond the vertex total matches nothing and is never used as an
// index: no load tier bounds hub ranks, and the table is never sized from
// a rank read out of a label.
//
// State. Each thread owns one table, grown to the largest rank space that
// thread has seen. Between joins every slot holds kEmpty, so a scatter is
// a scoped object whose destructor does the reset: nothing can return
// between the two. Joins do not nest on one thread.
//
// Answers. Each hub still contributes its first entry with quality >= w
// (Theorem 3), so a join answers bit-identically to Algorithm 5
// (labeling/query.h) on every label that passes kDeep validation. Sums are
// widened to 64 bits.

#ifndef WCSD_LABELING_HUB_TABLE_H_
#define WCSD_LABELING_HUB_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "labeling/label_set.h"
#include "labeling/query.h"
#include "util/types.h"

namespace wcsd {

/// One thread's table: one uint32 slot per hub rank.
class HubTable {
 public:
  /// What every slot holds between joins. Equal to kInfDistance, so an
  /// untouched slot of a distance scatter reads as "no feasible entry".
  static constexpr uint32_t kEmpty = kInfDistance;

  /// The calling thread's table, grown to cover ranks [0, num_ranks).
  static HubTable& ForThread(size_t num_ranks) {
    thread_local HubTable table;
    if (table.slots_.size() < num_ranks) {
      table.slots_.resize(num_ranks, kEmpty);
    }
    return table;
  }

  uint32_t* slots() { return slots_.data(); }

 private:
  std::vector<uint32_t> slots_;
};

/// L(s) scattered into the calling thread's table for constraint w: slot h
/// holds the least distance among L(s)'s hub-h entries with quality >= w,
/// which by Theorem 3 is the group's first such entry, or kEmpty. The
/// destructor resets exactly those slots, so `ls` must outlive the object.
class DistanceScatter {
 public:
  DistanceScatter(std::span<const LabelEntry> ls, Quality w, size_t num_ranks)
      : ls_(ls),
        w_(w),
        num_ranks_(num_ranks),
        slots_(HubTable::ForThread(num_ranks).slots()) {
    for (const LabelEntry& e : ls_) {
      if (e.hub >= num_ranks_) continue;
      uint32_t& slot = slots_[e.hub];
      slot = std::min(slot, e.quality >= w_ ? e.dist : kInfDistance);
    }
  }
  ~DistanceScatter() {
    for (const LabelEntry& e : ls_) {
      if (e.hub < num_ranks_) slots_[e.hub] = HubTable::kEmpty;
    }
  }
  DistanceScatter(const DistanceScatter&) = delete;
  DistanceScatter& operator=(const DistanceScatter&) = delete;

  /// Eq. (1) against L(t): the least slot + dist over L(t)'s entries with
  /// quality >= w. An empty slot or an infeasible entry adds kInfDistance,
  /// which never beats the kInfDistance the search starts from.
  Distance Probe(std::span<const LabelEntry> lt) const {
    uint64_t best = kInfDistance;
    for (const LabelEntry& e : lt) {
      if (e.hub >= num_ranks_) continue;
      const uint64_t dt = e.quality >= w_ ? e.dist : kInfDistance;
      best = std::min(best, uint64_t{slots_[e.hub]} + dt);
    }
    return static_cast<Distance>(best);
  }

  /// Probe keeping the minimizing hub and its split distances. L(t) is
  /// read in rank order and only a strictly smaller sum replaces the
  /// witness, so ties keep the lowest-ranked hub, as WitnessHubStep does.
  HubQueryResult ProbeWithHub(std::span<const LabelEntry> lt) const {
    HubQueryResult result;
    uint64_t best = kInfDistance;
    for (const LabelEntry& e : lt) {
      if (e.hub >= num_ranks_) continue;
      const uint64_t ds = slots_[e.hub];
      const uint64_t dt = e.quality >= w_ ? e.dist : kInfDistance;
      if (ds + dt < best) {
        best = ds + dt;
        result = {static_cast<Distance>(best), e.hub,
                  static_cast<Distance>(ds), static_cast<Distance>(dt)};
      }
    }
    return result;
  }

 private:
  std::span<const LabelEntry> ls_;
  Quality w_;
  size_t num_ranks_;
  uint32_t* slots_;
};

}  // namespace wcsd

#endif  // WCSD_LABELING_HUB_TABLE_H_

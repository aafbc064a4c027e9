// Flat CSR label storage: the query-optimized backend for a finished index.
//
// LabelSet keeps one heap vector per vertex, which is the right shape while
// the index is under construction (per-vertex appends) but costs a pointer
// chase per label access and scatters entries across the heap. Once the
// index is frozen, FlatLabelSet packs every entry into ONE contiguous array
// with per-vertex offsets (the same CSR layout QualityGraph uses for
// adjacency), plus a per-vertex hub-group directory so query code can jump
// between hub groups without scanning 12-byte entries to find group
// boundaries: a directory element is 8 bytes, and locating a hub becomes a
// binary search over groups instead of over entries.
//
// The four CSR arrays are accessed through spans and can be backed either by
// heap vectors (FromLabelSet) or by externally owned memory — in
// practice a read-only mmap of a snapshot file (labeling/snapshot.h), which
// makes serving start-up zero-copy: no per-entry deserialization, the
// kernel pages label data in on first touch. A shared keep-alive handle
// ties the backing storage's lifetime to every copy of the set.
//
// Layout invariants (inherited from LabelSet and checked by Validate):
//   * entries of one vertex are sorted by (hub rank asc, dist asc);
//   * the directory lists each vertex's distinct hubs in ascending rank,
//     with `begin` the entry offset of the group INSIDE the vertex's slice.

#ifndef WCSD_LABELING_FLAT_LABEL_SET_H_
#define WCSD_LABELING_FLAT_LABEL_SET_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "labeling/label_set.h"
#include "util/status.h"
#include "util/types.h"

namespace wcsd {

/// One hub-group directory element: the hub's rank and the offset of its
/// first entry within the owning vertex's entry slice.
struct HubGroup {
  Rank hub;
  uint32_t begin;

  friend bool operator==(const HubGroup&, const HubGroup&) = default;
};

/// A vertex's label as seen by the flat query kernels: its contiguous
/// entries plus its hub-group directory. Group g spans entry offsets
/// [groups[g].begin, g + 1 < groups.size() ? groups[g+1].begin
///                                         : entries.size()).
struct FlatLabelView {
  std::span<const LabelEntry> entries;
  std::span<const HubGroup> groups;

  /// Entry offset one past the end of group g.
  size_t GroupEnd(size_t g) const {
    return g + 1 < groups.size() ? groups[g + 1].begin : entries.size();
  }
};

/// How much of a FlatLabelSet's structure Validate checks. Each level
/// includes the ones before it; the levels differ in which storage pages
/// they touch — the point of the tiering for mmap-backed sets, where a
/// validation read faults pages in.
enum class ValidateLevel {
  /// Array-shape consistency and offset monotonicity. O(vertices); touches
  /// only the two offset arrays. What every loader runs.
  kShape,
  /// + hub-directory bounds: every group's `begin` must stay inside its
  /// vertex's entry slice, ascend strictly, and carry ascending hub ranks.
  /// O(hub groups); touches the directory but never an entry page. Closes
  /// the crash window on corrupted group data (query kernels index entry
  /// slices by `begin`) while keeping entry pages lazy.
  kDirectory,
  /// + per-entry invariants (entries match their group's hub, distances
  /// ascend). O(entries); faults in everything. What loaders that read
  /// untrusted bytes run.
  kDeep,
};

/// Immutable CSR packing of a LabelSet.
class FlatLabelSet {
 public:
  FlatLabelSet() = default;

  /// Packs `labels` (which must satisfy the sortedness invariant).
  static FlatLabelSet FromLabelSet(const LabelSet& labels);

  /// Wraps externally owned CSR arrays without copying them — the zero-copy
  /// path for mmap'd snapshots. `keep_alive` (typically the mapping) is
  /// retained for the lifetime of this set and all copies of it. The caller
  /// is responsible for validation (see Validate).
  static FlatLabelSet FromExternal(std::span<const uint64_t> offsets,
                                   std::span<const LabelEntry> entries,
                                   std::span<const uint64_t> group_offsets,
                                   std::span<const HubGroup> groups,
                                   std::shared_ptr<const void> keep_alive);

  /// Unpacks into the append-oriented representation (round-trip tests,
  /// post-processing passes that need mutation).
  LabelSet ToLabelSet() const;

  size_t NumVertices() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Entries of L(v), contiguous with every other vertex's.
  std::span<const LabelEntry> For(Vertex v) const {
    return {entries_.data() + offsets_[v], entries_.data() + offsets_[v + 1]};
  }

  /// L(v) plus its hub directory, for the flat query kernels.
  FlatLabelView View(Vertex v) const {
    return {For(v),
            {groups_.data() + group_offsets_[v],
             groups_.data() + group_offsets_[v + 1]}};
  }

  size_t TotalEntries() const { return entries_.size(); }

  /// Bytes of the four CSR arrays — the flat backend's "index size".
  size_t MemoryBytes() const {
    return entries_.size() * sizeof(LabelEntry) +
           offsets_.size() * sizeof(uint64_t) +
           groups_.size() * sizeof(HubGroup) +
           group_offsets_.size() * sizeof(uint64_t);
  }

  /// True when the arrays live in externally owned memory (an mmap'd
  /// snapshot) rather than heap vectors.
  bool external() const { return external_; }

  /// Structural validation of the CSR arrays at the given level (see
  /// ValidateLevel). The mmap fast path runs kShape; the snapshot
  /// verify_level knob selects the deeper tiers.
  Status Validate(ValidateLevel level) const;

  /// Raw CSR arrays, in storage order. Used by the snapshot writer; query
  /// code should go through View.
  std::span<const uint64_t> raw_offsets() const { return offsets_; }
  std::span<const LabelEntry> raw_entries() const { return entries_; }
  std::span<const uint64_t> raw_group_offsets() const {
    return group_offsets_;
  }
  std::span<const HubGroup> raw_groups() const { return groups_; }

  /// Content equality of the four arrays, regardless of backing storage.
  friend bool operator==(const FlatLabelSet& a, const FlatLabelSet& b);

 private:
  /// Heap backing for sets built in memory. Spans point into these vectors;
  /// shared ownership keeps them stable across copies.
  struct OwnedArrays {
    std::vector<uint64_t> offsets;
    std::vector<LabelEntry> entries;
    std::vector<uint64_t> group_offsets;
    std::vector<HubGroup> groups;
  };

  /// Points the spans at `owned`'s vectors and retains it.
  void Adopt(std::shared_ptr<const OwnedArrays> owned);

  std::span<const uint64_t> offsets_;        // n+1, into entries_
  std::span<const LabelEntry> entries_;      // all entries, vertex-major
  std::span<const uint64_t> group_offsets_;  // n+1, into groups_
  std::span<const HubGroup> groups_;         // per-vertex hub directories
  std::shared_ptr<const void> storage_;      // OwnedArrays or mmap handle
  bool external_ = false;
};

}  // namespace wcsd

#endif  // WCSD_LABELING_FLAT_LABEL_SET_H_

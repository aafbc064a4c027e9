// Label storage shared by every 2-hop method in this repository (classic
// PLL, the Naïve per-w index, LCR-adapt, and WC-INDEX itself).
//
// A label entry is the paper's index entry I = (v, dist, w) (Def. 6), with
// the hub stored as its RANK in the vertex order rather than its id: ranks
// make the query-side intersection of two labels a linear merge, and the
// construction invariant "hubs are appended in ascending rank" keeps every
// per-vertex label sorted for free.
//
// Invariants maintained by all builders and checked by the verifier:
//   * entries of one vertex are sorted by (hub rank asc, dist asc);
//   * within one hub group, qualities are strictly ascending alongside
//     distances (Theorem 3).

#ifndef WCSD_LABELING_LABEL_SET_H_
#define WCSD_LABELING_LABEL_SET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.h"

namespace wcsd {

/// One 2-hop index entry: a hub (by rank), the distance to it, and the
/// quality bound of the witnessing minimal path. 12 bytes.
struct LabelEntry {
  Rank hub;
  Distance dist;
  Quality quality;

  friend bool operator==(const LabelEntry&, const LabelEntry&) = default;
};

/// Per-vertex label sets (the paper's L(u)).
class LabelSet {
 public:
  LabelSet() = default;

  /// Empty labels for `num_vertices` vertices.
  explicit LabelSet(size_t num_vertices) : labels_(num_vertices) {}

  /// Appends an entry to L(v). Builders must append in (hub asc, dist asc)
  /// order; this is asserted in debug builds.
  void Append(Vertex v, LabelEntry entry);

  /// Entries of L(v).
  std::span<const LabelEntry> For(Vertex v) const { return labels_[v]; }

  /// Mutable access for post-processing passes (LCR-adapt merge).
  std::vector<LabelEntry>* Mutable(Vertex v) { return &labels_[v]; }

  size_t NumVertices() const { return labels_.size(); }

  /// Total entries across all vertices.
  size_t TotalEntries() const;

  /// Bytes of entry payload plus per-vertex vector overhead — the number
  /// reported as "index size" in Figures 6/9/11.
  size_t MemoryBytes() const;

  friend bool operator==(const LabelSet&, const LabelSet&) = default;

 private:
  std::vector<std::vector<LabelEntry>> labels_;
};

}  // namespace wcsd

#endif  // WCSD_LABELING_LABEL_SET_H_

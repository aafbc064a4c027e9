// Dynamic WC-INDEX: the paper's §VIII future-work extension, realized.
//
// Edge INSERTION is handled incrementally in the style of Akiba et al.
// (WWW'14) adapted to the quality dimension: for every label entry
// (h, d, w) of either endpoint, a constrained BFS for hub h is resumed
// across the new edge, pruning against the current index. The result stays
// sound and complete; entries of the updated hub group are kept
// dominance-free, but entries of other hubs may become redundant (covered),
// exactly as in the unweighted dynamic-PLL literature — queries remain
// correct, the index is merely no longer minimal.
//
// Edge DELETION invalidates entries in ways the paper leaves open ("how to
// effectively compute affected vertices will be the focus of future
// research"); we take the conservative correct route and rebuild.

#ifndef WCSD_CORE_DYNAMIC_WC_INDEX_H_
#define WCSD_CORE_DYNAMIC_WC_INDEX_H_

#include <vector>

#include "core/wc_index.h"
#include "graph/graph.h"
#include "labeling/label_set.h"
#include "order/vertex_order.h"
#include "util/types.h"

namespace wcsd {

struct DeltaLog;

/// WC-INDEX over a mutable graph.
class DynamicWcIndex {
 public:
  /// Builds the initial index for `g`. The vertex set is fixed; the vertex
  /// order is chosen once from the initial graph and kept across updates.
  explicit DynamicWcIndex(const QualityGraph& g,
                          const WcIndexOptions& options = {});

  /// Adopts an already-built index (labels + order) for `g` without
  /// rebuilding — the offline `update` path: load a snapshot, adopt it,
  /// Apply() a delta log. `labels` and `order` must describe exactly `g`
  /// (same vertex count, queries correct); this is not re-verified here.
  DynamicWcIndex(const QualityGraph& g, VertexOrder order, LabelSet labels,
                 const WcIndexOptions& options = {});

  /// Inserts undirected edge {u, v} with quality q and updates the labels
  /// incrementally. Inserting a parallel edge with lower-or-equal quality
  /// is a no-op; with higher quality it upgrades the edge.
  void InsertEdge(Vertex u, Vertex v, Quality q);

  /// One staged edge for InsertEdges.
  struct EdgeUpdate {
    Vertex u;
    Vertex v;
    Quality quality;
  };

  /// Inserts a batch of edges. If the batch is large relative to the graph
  /// (default: more than 1 staged edge per 8 current edges), incremental
  /// maintenance would churn more than rebuilding, so the index is rebuilt
  /// once instead; otherwise each edge is applied incrementally.
  void InsertEdges(const std::vector<EdgeUpdate>& edges);

  /// Removes edge {u, v} (no-op if absent) and rebuilds the index.
  void DeleteEdge(Vertex u, Vertex v);

  /// Replays a delta log. Insert/upgrade-only logs repair labels in place
  /// (per-batch InsertEdges semantics, so a bulk batch still rebuilds
  /// once); any delete makes incremental repair unsound per the contract
  /// above, so all ops are staged on the graph and the index is rebuilt
  /// once. Returns true when the log was applied incrementally.
  bool Apply(const DeltaLog& log);

  /// w-constrained distance between s and t on the current graph.
  Distance Query(Vertex s, Vertex t, Quality w) const;

  /// Materializes the current graph (tests compare against a fresh build).
  QualityGraph Snapshot() const;

  const LabelSet& labels() const { return labels_; }
  const VertexOrder& order() const { return order_; }
  size_t MemoryBytes() const { return labels_.MemoryBytes(); }

  /// Packs the maintained labels into a serveable WcIndex (no parent
  /// quads). The dynamic index is left empty — discard it afterwards.
  WcIndex ReleaseIndex();

 private:
  // Stages edge {u, v} of quality q on the adjacency, keeping the max
  // quality of parallel edges; true when the adjacency changed.
  bool StageInsert(Vertex u, Vertex v, Quality q);

  // Removes edge {u, v} from the adjacency; true when it existed.
  bool StageErase(Vertex u, Vertex v);

  // Resumes constrained BFS across new edge (from -> to, quality q) for
  // every hub entry in L(from).
  void ResumeAcross(Vertex from, Vertex to, Quality q);

  // Partial constrained BFS for hub rank h seeded at (seed, d, w).
  void ResumeBfs(Rank h, Vertex seed, Distance d, Quality w);

  // Inserts (h, d, w) into L(u) keeping the hub group sorted and
  // dominance-free.
  void InsertEntry(Vertex u, LabelEntry entry);

  // Rebuilds labels from scratch on the current graph.
  void Rebuild();

  WcIndexOptions options_;
  VertexOrder order_;
  LabelSet labels_;
  std::vector<std::vector<Arc>> adj_;
};

}  // namespace wcsd

#endif  // WCSD_CORE_DYNAMIC_WC_INDEX_H_

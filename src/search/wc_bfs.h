// WC-BFS / C-BFS: constrained breadth-first search (paper Algorithm 1).
//
// The online baseline: traverse the original graph, skipping edges whose
// quality is below the constraint. O(|V| + |E|) per query. Also the test
// oracle every index implementation is validated against.

#ifndef WCSD_SEARCH_WC_BFS_H_
#define WCSD_SEARCH_WC_BFS_H_

#include <vector>

#include "graph/graph.h"
#include "util/epoch_array.h"
#include "util/types.h"

namespace wcsd {

/// Reusable constrained-BFS engine. Scratch arrays are epoch-stamped, so a
/// query costs O(traversed) rather than O(|V|) initialization.
class WcBfs {
 public:
  /// Binds to `g`; the graph must outlive the engine.
  explicit WcBfs(const QualityGraph* g);

  /// w-constrained distance from s to t (Def. 2), or kInfDistance if no
  /// w-path exists. Early-exits when t is dequeued.
  Distance Query(Vertex s, Vertex t, Quality w);

  /// Single-source w-constrained distances to every vertex (kInfDistance
  /// where unreachable).
  std::vector<Distance> AllDistances(Vertex s, Quality w);

  /// True if a w-path from s to t exists.
  bool Reachable(Vertex s, Vertex t, Quality w) {
    return Query(s, t, w) != kInfDistance;
  }

 private:
  const QualityGraph* g_;
  EpochArray<bool> visited_;
  std::vector<Vertex> queue_;
};

}  // namespace wcsd

#endif  // WCSD_SEARCH_WC_BFS_H_

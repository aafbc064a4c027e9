// Constrained Dijkstra: the paper's "Dijkstra" baseline (§VI). Per-quality
// partitions are searched with a priority queue, deliberately carrying
// Dijkstra's bookkeeping on a unit-length graph, which is why the paper
// observes it losing to BFS. The serving engine also answers queries on a
// quarantined shard with it (serve/query_engine.h degraded mode).

#ifndef WCSD_SEARCH_CONSTRAINED_DIJKSTRA_H_
#define WCSD_SEARCH_CONSTRAINED_DIJKSTRA_H_

#include "graph/graph.h"
#include "graph/subgraph.h"
#include "util/types.h"

namespace wcsd {

/// Dijkstra with per-edge quality filtering on a unit-length graph: the
/// paper's "Dijkstra" baseline. Returns kInfDistance if unreachable.
Distance ConstrainedDijkstraUnit(const QualityGraph& g, Vertex s, Vertex t,
                                 Quality w);

/// The partitioned variant the paper benchmarks: Dijkstra on the filtered
/// graph for the query's quality level.
class PartitionedDijkstra {
 public:
  explicit PartitionedDijkstra(const QualityGraph& g) : partition_(g) {}

  /// w-constrained distance via Dijkstra on the matching partition.
  Distance Query(Vertex s, Vertex t, Quality w) const;

 private:
  QualityPartition partition_;
};

}  // namespace wcsd

#endif  // WCSD_SEARCH_CONSTRAINED_DIJKSTRA_H_

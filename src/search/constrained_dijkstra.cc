#include "search/constrained_dijkstra.h"

#include <limits>
#include <queue>
#include <utility>

namespace wcsd {

namespace {

// Min-heap entry: (distance, vertex).
using HeapEntry = std::pair<Distance, Vertex>;
using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

}  // namespace

Distance ConstrainedDijkstraUnit(const QualityGraph& g, Vertex s, Vertex t,
                                 Quality w) {
  if (s == t) return 0;
  // The paper notes Dijkstra keeps a distance vector d[v] and updates it on
  // every improvement — exactly the overhead that makes it slower than BFS
  // on unit-length graphs. We reproduce that implementation faithfully.
  std::vector<Distance> dist(g.NumVertices(), kInfDistance);
  MinHeap heap;
  dist[s] = 0;
  heap.push({0, s});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;  // Stale entry.
    if (u == t) return d;
    for (const Arc& a : g.Neighbors(u)) {
      if (a.quality < w) continue;
      Distance nd = d + 1;
      if (nd < dist[a.to]) {
        dist[a.to] = nd;
        heap.push({nd, a.to});
      }
    }
  }
  return kInfDistance;
}

Distance PartitionedDijkstra::Query(Vertex s, Vertex t, Quality w) const {
  if (s == t) return 0;
  auto level = partition_.LevelForConstraint(w);
  if (!level.has_value()) return kInfDistance;
  return ConstrainedDijkstraUnit(
      partition_.GraphAtLevel(*level), s, t,
      -std::numeric_limits<Quality>::infinity());
}

}  // namespace wcsd

// GraphBuilder: mutable edge-list accumulator that compiles to CSR.
//
// Handles the normalization the problem definition expects: self-loops are
// dropped (they never shorten a path), and parallel edges are merged keeping
// the MAXIMUM quality (a w-path may use whichever parallel edge satisfies
// the constraint, so only the best-quality copy matters for distances).

#ifndef WCSD_GRAPH_BUILDER_H_
#define WCSD_GRAPH_BUILDER_H_

#include <vector>

#include "graph/graph.h"
#include "util/types.h"

namespace wcsd {

/// Accumulates undirected edges and produces a QualityGraph.
class GraphBuilder {
 public:
  /// Builder for a graph with `num_vertices` vertices (ids [0, n)).
  explicit GraphBuilder(size_t num_vertices) : num_vertices_(num_vertices) {}

  /// Adds undirected edge {u, v} with quality `q`. Self-loops are ignored.
  /// Duplicate edges are merged at Build() time, keeping the max quality.
  void AddEdge(Vertex u, Vertex v, Quality q);

  /// Compiles the staged edges into an immutable CSR graph. The builder can
  /// be reused afterwards (staged edges are retained).
  QualityGraph Build() const;

 private:
  struct StagedEdge {
    Vertex u;
    Vertex v;
    Quality quality;
  };

  size_t num_vertices_;
  std::vector<StagedEdge> edges_;
};

}  // namespace wcsd

#endif  // WCSD_GRAPH_BUILDER_H_

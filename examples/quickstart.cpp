// Quickstart: build the paper's running-example graph (Figure 3), print
// its WC-INDEX (reproducing Table II), and answer Example 3's query
// Q(v2, v5, 2).
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "core/verifier.h"
#include "core/wc_index.h"
#include "graph/builder.h"

using namespace wcsd;

int main() {
  // Figure 3: six vertices, edge qualities as annotated in the paper.
  GraphBuilder builder(6);
  builder.AddEdge(0, 1, 3);
  builder.AddEdge(0, 3, 1);
  builder.AddEdge(1, 2, 5);
  builder.AddEdge(1, 3, 2);
  builder.AddEdge(2, 3, 4);
  builder.AddEdge(3, 4, 4);
  builder.AddEdge(3, 5, 2);
  builder.AddEdge(4, 5, 3);
  QualityGraph g = builder.Build();
  std::printf("Graph: %zu vertices, %zu edges, |w| = %zu\n", g.NumVertices(),
              g.NumEdges(), g.DistinctQualities().size());

  // Build WC-INDEX with the paper's walkthrough order (v0, v1, ...).
  WcIndexOptions options;
  options.ordering = WcIndexOptions::Ordering::kIdentity;
  WcIndex index = WcIndex::Build(g, options);

  std::printf("\nWC-INDEX (Table II):\n");
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    std::printf("  L(v%u) =", v);
    for (const LabelEntry& e : index.EntriesFor(v)) {
      if (e.quality == kInfQuality) {
        std::printf(" (v%u,%u,inf)", e.hub, e.dist);
      } else {
        std::printf(" (v%u,%u,%g)", e.hub, e.dist, e.quality);
      }
    }
    std::printf("\n");
  }

  // Example 3: Q(v2, v5, 2).
  std::printf("\nQ(v2, v5, w=2) = %u   (paper: 2 via v2 -> v3 -> v5)\n",
              index.Query(2, 5, 2.0f));
  // A stricter constraint changes the answer; an unsatisfiable one is INF.
  std::printf("Q(v0, v4, w=1) = %u   Q(v0, v4, w=3) = %u\n",
              index.Query(0, 4, 1.0f), index.Query(0, 4, 3.0f));
  Distance inf = index.Query(0, 4, 6.0f);
  std::printf("Q(v0, v4, w=6) = %s\n",
              inf == kInfDistance ? "INF (no 6-path exists)" : "??");

  // The three Theorem 1 properties, checked by brute force.
  VerificationReport report = VerifyAll(index, g);
  std::printf("\nVerification: %s\n", report.Summary().c_str());
  return report.ok() ? 0 : 1;
}

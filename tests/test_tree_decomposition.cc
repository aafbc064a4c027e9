// MDE tree-decomposition tests (Def. 7-8): validity on known topologies,
// width bounds, capped elimination, and the derived vertex order.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "order/hybrid_order.h"
#include "order/tree_decomposition.h"
#include "paper_fixtures.h"
#include "util/bucket_queue.h"

namespace wcsd {
namespace {

QualityGraph MakePath(size_t n) {
  GraphBuilder b(n);
  for (Vertex i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1, 1.0f);
  return b.Build();
}

QualityGraph MakeCycle(size_t n) {
  GraphBuilder b(n);
  for (Vertex i = 0; i < n; ++i) {
    b.AddEdge(i, static_cast<Vertex>((i + 1) % n), 1.0f);
  }
  return b.Build();
}

QualityGraph MakeClique(size_t n) {
  GraphBuilder b(n);
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex j = i + 1; j < n; ++j) b.AddEdge(i, j, 1.0f);
  }
  return b.Build();
}

QualityGraph MakeGrid(size_t rows, size_t cols) {
  GraphBuilder b(rows * cols);
  auto id = [cols](size_t r, size_t c) {
    return static_cast<Vertex>(r * cols + c);
  };
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.AddEdge(id(r, c), id(r, c + 1), 1.0f);
      if (r + 1 < rows) b.AddEdge(id(r, c), id(r + 1, c), 1.0f);
    }
  }
  return b.Build();
}

// MDE over hash-set adjacency with pair-by-pair clique fill-in: the
// reference the sorted-vector MdeDecompose must reproduce exactly (it fills
// only elimination_order and bags; width and parents derive from them).
TreeDecomposition ReferenceMde(const QualityGraph& g, size_t max_fill_degree) {
  const size_t n = g.NumVertices();
  TreeDecomposition td;
  std::vector<std::unordered_set<Vertex>> adj(n);
  for (Vertex u = 0; u < n; ++u) {
    for (const Arc& a : g.Neighbors(u)) adj[u].insert(a.to);
  }
  BucketQueue queue(n);
  for (Vertex u = 0; u < n; ++u) {
    queue.Push(u, static_cast<uint32_t>(adj[u].size()));
  }
  std::vector<bool> eliminated(n, false);
  std::vector<Vertex> deferred;
  while (!queue.Empty()) {
    Vertex v = static_cast<Vertex>(queue.PopMin());
    if (eliminated[v]) continue;
    eliminated[v] = true;
    std::vector<Vertex> neighbors(adj[v].begin(), adj[v].end());
    std::sort(neighbors.begin(), neighbors.end());
    for (Vertex u : neighbors) adj[u].erase(v);
    if (neighbors.size() > max_fill_degree) {
      deferred.push_back(v);
      continue;
    }
    td.elimination_order.push_back(v);
    std::vector<Vertex> bag{v};
    bag.insert(bag.end(), neighbors.begin(), neighbors.end());
    td.bags.push_back(std::move(bag));
    for (size_t i = 0; i < neighbors.size(); ++i) {
      for (size_t j = i + 1; j < neighbors.size(); ++j) {
        Vertex a = neighbors[i], b = neighbors[j];
        if (adj[a].insert(b).second) adj[b].insert(a);
      }
    }
    for (Vertex u : neighbors) {
      queue.Push(u, static_cast<uint32_t>(adj[u].size()));
    }
  }
  for (Vertex v : deferred) {
    td.elimination_order.push_back(v);
    td.bags.push_back({v});
  }
  return td;
}

TEST(Mde, MatchesHashSetReference) {
  QualityModel quality;
  RoadOptions road;
  road.rows = road.cols = 24;
  RoadOptions arterial = road;
  arterial.arterial_spacing = 6;
  const std::pair<std::string, QualityGraph> graphs[] = {
      {"ba", GenerateBarabasiAlbert(600, 4, quality, 3)},
      {"road", GenerateRoadNetwork(road, 5)},
      {"road_arterials", GenerateRoadNetwork(arterial, 5)},
      {"random_connected", GenerateRandomConnected(500, 1500, quality, 7)},
      {"watts_strogatz", GenerateWattsStrogatz(500, 3, 0.2, quality, 9)},
  };
  for (const auto& [name, g] : graphs) {
    for (size_t cap : {SIZE_MAX, AutoDegreeThreshold(g)}) {
      MdeOptions options;
      options.max_fill_degree = cap;
      const TreeDecomposition td = MdeDecompose(g, options);
      const TreeDecomposition expected = ReferenceMde(g, cap);
      EXPECT_EQ(td.elimination_order, expected.elimination_order)
          << name << " cap " << cap;
      EXPECT_EQ(td.bags, expected.bags) << name << " cap " << cap;
      if (cap == SIZE_MAX) {
        EXPECT_TRUE(td.IsValidFor(g)) << name;
      }
    }
  }
}

TEST(Mde, PathHasWidth1) {
  QualityGraph g = MakePath(20);
  TreeDecomposition td = MdeDecompose(g);
  EXPECT_EQ(td.width, 1u);
  EXPECT_TRUE(td.IsValidFor(g));
}

TEST(Mde, TreeHasWidth1) {
  QualityModel quality;
  QualityGraph g = GenerateRandomTree(64, quality, 3);
  TreeDecomposition td = MdeDecompose(g);
  EXPECT_EQ(td.width, 1u);
  EXPECT_TRUE(td.IsValidFor(g));
}

TEST(Mde, CycleHasWidth2) {
  QualityGraph g = MakeCycle(15);
  TreeDecomposition td = MdeDecompose(g);
  EXPECT_EQ(td.width, 2u);
  EXPECT_TRUE(td.IsValidFor(g));
}

TEST(Mde, CliqueHasWidthNMinus1) {
  QualityGraph g = MakeClique(6);
  TreeDecomposition td = MdeDecompose(g);
  EXPECT_EQ(td.width, 5u);
  EXPECT_TRUE(td.IsValidFor(g));
}

TEST(Mde, GridWidthIsAtLeastMinSide) {
  // Treewidth of an r x c grid (r <= c) is exactly r; MDE is a heuristic so
  // it may exceed it slightly, but must be >= r and reasonably close.
  QualityGraph g = MakeGrid(4, 8);
  TreeDecomposition td = MdeDecompose(g);
  EXPECT_GE(td.width, 4u);
  EXPECT_LE(td.width, 8u);
  EXPECT_TRUE(td.IsValidFor(g));
}

TEST(Mde, SingleVertexAndEmpty) {
  GraphBuilder b1(1);
  TreeDecomposition td1 = MdeDecompose(b1.Build());
  EXPECT_EQ(td1.elimination_order.size(), 1u);
  EXPECT_EQ(td1.width, 0u);

  GraphBuilder b0(0);
  TreeDecomposition td0 = MdeDecompose(b0.Build());
  EXPECT_TRUE(td0.elimination_order.empty());
}

TEST(Mde, DisconnectedGraphStillValid) {
  GraphBuilder b(6);
  b.AddEdge(0, 1, 1.0f);
  b.AddEdge(2, 3, 1.0f);
  // 4, 5 isolated.
  QualityGraph g = b.Build();
  TreeDecomposition td = MdeDecompose(g);
  EXPECT_EQ(td.elimination_order.size(), 6u);
  EXPECT_TRUE(td.IsValidFor(g));
}

TEST(Mde, EliminationOrderIsPermutation) {
  QualityModel quality;
  QualityGraph g = GenerateRandomConnected(128, 256, quality, 5);
  TreeDecomposition td = MdeDecompose(g);
  std::vector<bool> seen(128, false);
  for (Vertex v : td.elimination_order) {
    ASSERT_LT(v, 128u);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Mde, RandomGraphsAlwaysValid) {
  QualityModel quality;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    QualityGraph g = GenerateRandomConnected(60, 120, quality, seed);
    TreeDecomposition td = MdeDecompose(g);
    EXPECT_TRUE(td.IsValidFor(g)) << "seed " << seed;
  }
}

TEST(Mde, WidthBoundsOnFigure3) {
  QualityGraph g = MakeFigure3Graph();
  TreeDecomposition td = MdeDecompose(g);
  EXPECT_TRUE(td.IsValidFor(g));
  EXPECT_GE(td.width, 2u);  // Figure 3 contains cycles sharing chords.
  EXPECT_LE(td.width, 3u);
}

TEST(Mde, DegreeCapDefersDenseVertices) {
  QualityGraph g = MakeClique(8);
  MdeOptions options;
  options.max_fill_degree = 3;
  TreeDecomposition td = MdeDecompose(g, options);
  // All vertices still appear exactly once.
  EXPECT_EQ(td.elimination_order.size(), 8u);
}

TEST(TreeOrderTest, Permutation) {
  QualityModel quality;
  QualityGraph g = GenerateRandomConnected(100, 200, quality, 7);
  VertexOrder order = TreeDecompositionOrder(g);
  EXPECT_TRUE(order.IsValid());
}

TEST(TreeOrderTest, PathCenterTopRank) {
  // On a path, MDE peels leaves inward; the last vertex eliminated (rank 0)
  // must be an interior vertex, not an endpoint.
  QualityGraph g = MakePath(31);
  VertexOrder order = TreeDecompositionOrder(g);
  Vertex top = order.VertexAt(0);
  EXPECT_NE(top, 0u);
  EXPECT_NE(top, 30u);
}

}  // namespace
}  // namespace wcsd

// Online search tests: WC-BFS (Algorithm 1), partitioned W-BFS, the
// Dijkstra baselines, and the dominance-frontier oracles.

#include <gtest/gtest.h>

#include <limits>

#include "graph/generators.h"
#include "graph/subgraph.h"
#include "search/constrained_dijkstra.h"
#include "search/pareto_enumerator.h"
#include "search/partitioned_bfs.h"
#include "search/wc_bfs.h"
#include "paper_fixtures.h"
#include "util/random.h"

namespace wcsd {
namespace {

TEST(WcBfsTest, Figure3KnownDistances) {
  QualityGraph g = MakeFigure3Graph();
  WcBfs bfs(&g);
  EXPECT_EQ(bfs.Query(0, 4, 1.0f), 2u);   // v0-v3-v4
  EXPECT_EQ(bfs.Query(0, 4, 2.0f), 3u);   // v0-v1-v3-v4
  EXPECT_EQ(bfs.Query(0, 4, 3.0f), 4u);   // v0-v1-v2-v3-v4
  EXPECT_EQ(bfs.Query(0, 4, 4.0f), kInfDistance);
  EXPECT_EQ(bfs.Query(1, 3, 2.0f), 1u);
  EXPECT_EQ(bfs.Query(2, 5, 2.0f), 2u);
}

TEST(WcBfsTest, SourceEqualsTarget) {
  QualityGraph g = MakeFigure3Graph();
  WcBfs bfs(&g);
  EXPECT_EQ(bfs.Query(3, 3, 99.0f), 0u);
}

TEST(WcBfsTest, ReusableAcrossQueries) {
  QualityGraph g = MakeFigure3Graph();
  WcBfs bfs(&g);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(bfs.Query(0, 4, 1.0f), 2u);
    EXPECT_EQ(bfs.Query(0, 4, 4.0f), kInfDistance);
  }
}

TEST(WcBfsTest, AllDistancesMatchesPointQueries) {
  QualityModel quality;
  QualityGraph g = GenerateRandomConnected(60, 140, quality, 3);
  WcBfs bfs(&g);
  for (Quality w : {1.0f, 3.0f, 5.0f}) {
    auto all = bfs.AllDistances(7, w);
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      EXPECT_EQ(all[t], bfs.Query(7, t, w)) << "t=" << t << " w=" << w;
    }
  }
}

TEST(WcBfsTest, Reachable) {
  QualityGraph g = MakeFigure3Graph();
  WcBfs bfs(&g);
  EXPECT_TRUE(bfs.Reachable(0, 5, 2.0f));
  EXPECT_FALSE(bfs.Reachable(0, 5, 4.0f));
}

TEST(PartitionedBfsTest, AgreesWithConstrainedBfs) {
  QualityModel quality;
  quality.num_levels = 4;
  QualityGraph g = GenerateRandomConnected(80, 200, quality, 11);
  PartitionedBfs partitioned(g);
  WcBfs direct(&g);
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(80));
    Vertex t = static_cast<Vertex>(rng.NextBounded(80));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 5));
    EXPECT_EQ(partitioned.Query(s, t, w), direct.Query(s, t, w))
        << s << "->" << t << " w=" << w;
  }
}

TEST(PartitionedBfsTest, NonIntegerConstraintRoundsUp) {
  QualityGraph g = MakeFigure3Graph();
  PartitionedBfs partitioned(g);
  WcBfs direct(&g);
  // 1.5 behaves like 2 (no edge quality strictly between).
  EXPECT_EQ(partitioned.Query(0, 4, 1.5f), direct.Query(0, 4, 1.5f));
  EXPECT_EQ(partitioned.Query(0, 4, 1.5f), direct.Query(0, 4, 2.0f));
}

TEST(PartitionedBfsTest, AboveMaxQualityIsInf) {
  QualityGraph g = MakeFigure3Graph();
  PartitionedBfs partitioned(g);
  EXPECT_EQ(partitioned.Query(0, 4, 99.0f), kInfDistance);
  EXPECT_EQ(partitioned.Query(2, 2, 99.0f), 0u);
}

TEST(PartitionedBfsTest, MemoryGrowsWithLevels) {
  QualityGraph g = MakeFigure3Graph();
  PartitionedBfs partitioned(g);
  EXPECT_GT(partitioned.MemoryBytes(), g.MemoryBytes());
}

TEST(DijkstraBaselineTest, UnitAgreesWithBfs) {
  QualityModel quality;
  QualityGraph g = GenerateRandomConnected(70, 180, quality, 17);
  WcBfs bfs(&g);
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(70));
    Vertex t = static_cast<Vertex>(rng.NextBounded(70));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 5));
    EXPECT_EQ(ConstrainedDijkstraUnit(g, s, t, w), bfs.Query(s, t, w));
  }
}

TEST(DijkstraBaselineTest, PartitionedAgreesWithBfs) {
  QualityModel quality;
  QualityGraph g = GenerateRandomConnected(70, 180, quality, 23);
  PartitionedDijkstra dijkstra(g);
  WcBfs bfs(&g);
  Rng rng(29);
  for (int i = 0; i < 200; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(70));
    Vertex t = static_cast<Vertex>(rng.NextBounded(70));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 5));
    EXPECT_EQ(dijkstra.Query(s, t, w), bfs.Query(s, t, w));
  }
}

TEST(ParetoOracleTest, Figure3FrontierV0V4) {
  QualityGraph g = MakeFigure3Graph();
  // Frontier for (v0, v4): (2, q1), (3, q2), (4, q3) — matches L(v4)'s
  // hub-v0 entries in Table II.
  auto frontier = ParetoFrontier(g, 0, 4);
  ASSERT_EQ(frontier.size(), 3u);
  EXPECT_EQ(frontier[0], (FrontierPoint{2, 1.0f}));
  EXPECT_EQ(frontier[1], (FrontierPoint{3, 2.0f}));
  EXPECT_EQ(frontier[2], (FrontierPoint{4, 3.0f}));
}

TEST(ParetoOracleTest, SweepMatchesExhaustiveEnumeration) {
  QualityModel quality;
  quality.num_levels = 4;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    QualityGraph g = GenerateRandomConnected(9, 16, quality, seed);
    for (Vertex s = 0; s < 9; ++s) {
      for (Vertex t = 0; t < 9; ++t) {
        if (s == t) continue;
        EXPECT_EQ(ParetoFrontier(g, s, t),
                  EnumerateSimplePathProfile(g, s, t))
            << "seed=" << seed << " s=" << s << " t=" << t;
      }
    }
  }
}

TEST(ParetoOracleTest, DisconnectedPairIsEmpty) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1.0f);
  b.AddEdge(2, 3, 1.0f);
  QualityGraph g = b.Build();
  EXPECT_TRUE(ParetoFrontier(g, 0, 3).empty());
}

}  // namespace
}  // namespace wcsd

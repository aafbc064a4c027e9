// Tests for the synthetic graph generators: structure, connectivity,
// quality model, and determinism.

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "search/wc_bfs.h"
#include "util/random.h"

namespace wcsd {
namespace {

// Counts vertices reachable from 0 ignoring qualities.
size_t ReachableFromZero(const QualityGraph& g) {
  if (g.NumVertices() == 0) return 0;
  WcBfs bfs(&g);
  auto dist = bfs.AllDistances(0, -1e30f);
  size_t count = 0;
  for (Distance d : dist) count += (d != kInfDistance);
  return count;
}

TEST(QualityModelTest, UniformLevelsInRange) {
  QualityModel model;
  model.num_levels = 7;
  Rng rng(3);
  std::vector<int> histogram(8, 0);
  for (int i = 0; i < 7000; ++i) {
    Quality q = SampleQuality(model, &rng);
    ASSERT_GE(q, 1.0f);
    ASSERT_LE(q, 7.0f);
    ++histogram[static_cast<int>(q)];
  }
  // Every level occurs; roughly uniform (loose bound).
  for (int level = 1; level <= 7; ++level) {
    EXPECT_GT(histogram[level], 500) << "level " << level;
  }
}

TEST(QualityModelTest, ZipfSkewsLow) {
  QualityModel model;
  model.kind = QualityModel::Kind::kZipfLevels;
  model.num_levels = 5;
  model.zipf_s = 1.5;
  Rng rng(5);
  int low = 0, high = 0;
  for (int i = 0; i < 5000; ++i) {
    Quality q = SampleQuality(model, &rng);
    ASSERT_GE(q, 1.0f);
    ASSERT_LE(q, 5.0f);
    if (q == 1.0f) ++low;
    if (q == 5.0f) ++high;
  }
  EXPECT_GT(low, high * 3);
}

TEST(RoadGenerator, ConnectedAndSized) {
  RoadOptions options;
  options.rows = 20;
  options.cols = 25;
  QualityGraph g = GenerateRoadNetwork(options, 42);
  EXPECT_EQ(g.NumVertices(), 500u);
  EXPECT_EQ(ReachableFromZero(g), 500u);
  // Sparse: spanning tree <= m <= full grid + diagonals.
  EXPECT_GE(g.NumEdges(), 499u);
  EXPECT_LE(g.NumEdges(), 2 * 500u);
}

TEST(RoadGenerator, LowMaxDegree) {
  RoadOptions options;
  options.rows = 30;
  options.cols = 30;
  QualityGraph g = GenerateRoadNetwork(options, 7);
  EXPECT_LE(g.MaxDegree(), 8u);  // Grid + diagonals is degree-bounded.
}

TEST(RoadGenerator, DeterministicPerSeed) {
  RoadOptions options;
  options.rows = 10;
  options.cols = 10;
  EXPECT_EQ(GenerateRoadNetwork(options, 9), GenerateRoadNetwork(options, 9));
}

TEST(RoadGenerator, DifferentSeedsDiffer) {
  RoadOptions options;
  options.rows = 10;
  options.cols = 10;
  EXPECT_FALSE(GenerateRoadNetwork(options, 1) ==
               GenerateRoadNetwork(options, 2));
}

TEST(RoadGenerator, ArterialBackboneEnablesHeavyRouting) {
  RoadOptions options;
  options.rows = options.cols = 24;
  options.quality.num_levels = 8;
  options.arterial_spacing = 8;
  QualityGraph g = GenerateRoadNetwork(options, 5);
  // Two far-apart vertices ON arterials must be connected at top quality.
  WcBfs bfs(&g);
  Vertex a = 0;                                   // (0, 0): arterial corner.
  Vertex b = static_cast<Vertex>(16 * 24 + 16);   // (16, 16): arterial cross.
  EXPECT_NE(bfs.Query(a, b, 8.0f), kInfDistance);
  // And the arterial detour is no shorter than the unconstrained route.
  EXPECT_GE(bfs.Query(a, b, 8.0f), bfs.Query(a, b, 1.0f));
}

TEST(RoadGenerator, QualityLevelsRespected) {
  RoadOptions options;
  options.rows = 12;
  options.cols = 12;
  options.quality.num_levels = 20;
  QualityGraph g = GenerateRoadNetwork(options, 11);
  auto qualities = g.DistinctQualities();
  EXPECT_GE(qualities.size(), 15u);  // Nearly all 20 levels appear.
  EXPECT_LE(qualities.size(), 20u);
  EXPECT_GE(qualities.front(), 1.0f);
  EXPECT_LE(qualities.back(), 20.0f);
}

TEST(BarabasiAlbert, ConnectedScaleFree) {
  QualityModel quality;
  QualityGraph g = GenerateBarabasiAlbert(2000, 4, quality, 13);
  EXPECT_EQ(g.NumVertices(), 2000u);
  EXPECT_EQ(ReachableFromZero(g), 2000u);
  // Preferential attachment: the max degree dwarfs the average.
  double avg_degree = 2.0 * static_cast<double>(g.NumEdges()) / 2000.0;
  EXPECT_GT(static_cast<double>(g.MaxDegree()), 8.0 * avg_degree);
}

TEST(BarabasiAlbert, EdgeCountApproximatelyMN) {
  QualityModel quality;
  QualityGraph g = GenerateBarabasiAlbert(1000, 5, quality, 17);
  // ~ m*n edges (minus the seed clique adjustment, minus dedup losses).
  EXPECT_GT(g.NumEdges(), 4500u);
  EXPECT_LT(g.NumEdges(), 5200u);
}

TEST(ErdosRenyi, RoughEdgeCount) {
  QualityModel quality;
  QualityGraph g = GenerateErdosRenyi(500, 1000, quality, 19);
  EXPECT_EQ(g.NumVertices(), 500u);
  EXPECT_GT(g.NumEdges(), 900u);  // Some loss to duplicates/self-loops.
  EXPECT_LE(g.NumEdges(), 1000u);
}

TEST(RandomTree, ExactlyNMinus1EdgesAndConnected) {
  QualityModel quality;
  QualityGraph g = GenerateRandomTree(300, quality, 23);
  EXPECT_EQ(g.NumEdges(), 299u);
  EXPECT_EQ(ReachableFromZero(g), 300u);
}

TEST(RandomConnected, ConnectedWithRequestedEdges) {
  QualityModel quality;
  QualityGraph g = GenerateRandomConnected(200, 400, quality, 29);
  EXPECT_EQ(ReachableFromZero(g), 200u);
  EXPECT_GE(g.NumEdges(), 199u);
  EXPECT_LE(g.NumEdges(), 400u);
}

TEST(WattsStrogatz, RingWithRewiring) {
  QualityModel quality;
  QualityGraph g = GenerateWattsStrogatz(400, 3, 0.1, quality, 31);
  EXPECT_EQ(g.NumVertices(), 400u);
  // ~ n*k edges.
  EXPECT_GT(g.NumEdges(), 1100u);
  EXPECT_LE(g.NumEdges(), 1200u);
}

}  // namespace
}  // namespace wcsd

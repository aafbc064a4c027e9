// Classic PLL tests: distances must match plain BFS under every ordering.

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "graph/generators.h"
#include "labeling/flat_label_set.h"
#include "labeling/pll.h"
#include "search/wc_bfs.h"
#include "paper_fixtures.h"
#include "util/random.h"

namespace wcsd {
namespace {

constexpr Quality kNoConstraint = -std::numeric_limits<Quality>::infinity();

TEST(PllTest, Figure3AllPairs) {
  QualityGraph g = MakeFigure3Graph();
  Pll pll = Pll::Build(g);
  WcBfs bfs(&g);
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      EXPECT_EQ(pll.Query(s, t), bfs.Query(s, t, kNoConstraint))
          << s << "->" << t;
    }
  }
}

TEST(PllTest, DisconnectedPairsAreInf) {
  GraphBuilder b(5);
  b.AddEdge(0, 1, 1.0f);
  b.AddEdge(2, 3, 1.0f);
  QualityGraph g = b.Build();
  Pll pll = Pll::Build(g);
  EXPECT_EQ(pll.Query(0, 2), kInfDistance);
  EXPECT_EQ(pll.Query(4, 0), kInfDistance);
  EXPECT_EQ(pll.Query(4, 4), 0u);
}

TEST(PllTest, LabelsAreSorted) {
  QualityModel quality;
  QualityGraph g = GenerateRandomConnected(100, 240, quality, 3);
  Pll pll = Pll::Build(g);
  EXPECT_TRUE(FlatLabelSet::FromLabelSet(pll.labels())
                  .Validate(ValidateLevel::kDeep)
                  .ok());
}

TEST(PllTest, MemoryNonzero) {
  QualityGraph g = MakeFigure3Graph();
  Pll pll = Pll::Build(g);
  EXPECT_GT(pll.MemoryBytes(), 0u);
}

// Property sweep: PLL == BFS over random graphs and orderings.
class PllPropertyTest
    : public testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {};

TEST_P(PllPropertyTest, MatchesBfsOnRandomGraph) {
  auto [n, m, seed] = GetParam();
  QualityModel quality;
  QualityGraph g = GenerateRandomConnected(n, m, quality, seed);
  Pll degree_pll = Pll::Build(g);
  Pll random_pll = Pll::Build(g, RandomOrder(n, seed + 1));
  WcBfs bfs(&g);
  Rng rng(seed + 2);
  for (int i = 0; i < 200; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Distance expected = bfs.Query(s, t, kNoConstraint);
    EXPECT_EQ(degree_pll.Query(s, t), expected);
    EXPECT_EQ(random_pll.Query(s, t), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, PllPropertyTest,
    testing::Values(std::make_tuple(20, 30, 1), std::make_tuple(40, 80, 2),
                    std::make_tuple(60, 90, 3), std::make_tuple(80, 240, 4),
                    std::make_tuple(120, 200, 5),
                    std::make_tuple(150, 600, 6)));

}  // namespace
}  // namespace wcsd

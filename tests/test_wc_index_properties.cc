// Property sweeps for WC-INDEX (Theorem 1): completeness against the BFS
// oracle, soundness/tightness, minimality, and Theorem 3 monotonicity —
// over random graph families, quality regimes, orderings, and both
// construction-query implementations.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/verifier.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "search/pareto_enumerator.h"
#include "search/wc_bfs.h"
#include "paper_fixtures.h"
#include "util/random.h"

namespace wcsd {
namespace {

using Ordering = WcIndexOptions::Ordering;

struct PropertyCase {
  size_t n;
  size_t m;
  int levels;
  uint64_t seed;
  Ordering ordering;
  bool query_efficient;
};

std::string CaseName(const testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& c = info.param;
  std::string order;
  switch (c.ordering) {
    case Ordering::kDegree: order = "Degree"; break;
    case Ordering::kTreeDecomposition: order = "Tree"; break;
    case Ordering::kHybrid: order = "Hybrid"; break;
    case Ordering::kRandom: order = "Random"; break;
    case Ordering::kIdentity: order = "Identity"; break;
  }
  return "n" + std::to_string(c.n) + "m" + std::to_string(c.m) + "w" +
         std::to_string(c.levels) + "s" + std::to_string(c.seed) + order +
         (c.query_efficient ? "Fast" : "Basic");
}

class WcIndexPropertyTest : public testing::TestWithParam<PropertyCase> {
 protected:
  WcIndex BuildIndex(const QualityGraph& g) const {
    WcIndexOptions options;
    options.ordering = GetParam().ordering;
    options.query_efficient = GetParam().query_efficient;
    options.seed = GetParam().seed;
    return WcIndex::Build(g, options);
  }

  QualityGraph MakeGraph() const {
    QualityModel quality;
    quality.num_levels = GetParam().levels;
    return GenerateRandomConnected(GetParam().n, GetParam().m, quality,
                                   GetParam().seed);
  }
};

TEST_P(WcIndexPropertyTest, SoundCompleteMinimal) {
  QualityGraph g = MakeGraph();
  WcIndex index = BuildIndex(g);
  VerificationReport report = VerifyAll(index, g);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST_P(WcIndexPropertyTest, LabelsSorted) {
  QualityGraph g = MakeGraph();
  WcIndex index = BuildIndex(g);
  // Deep validation checks (hub asc, dist asc) order per vertex.
  EXPECT_TRUE(FlatLabelSet::FromLabelSet(index.labels())
                  .Validate(ValidateLevel::kDeep)
                  .ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WcIndexPropertyTest,
    testing::Values(
        PropertyCase{20, 40, 3, 1, Ordering::kDegree, true},
        PropertyCase{20, 40, 3, 1, Ordering::kDegree, false},
        PropertyCase{30, 60, 5, 2, Ordering::kTreeDecomposition, true},
        PropertyCase{30, 60, 5, 3, Ordering::kHybrid, true},
        PropertyCase{30, 90, 1, 4, Ordering::kDegree, true},
        PropertyCase{40, 60, 8, 5, Ordering::kRandom, true},
        PropertyCase{40, 120, 4, 6, Ordering::kIdentity, true},
        PropertyCase{40, 120, 4, 6, Ordering::kIdentity, false},
        PropertyCase{50, 70, 10, 7, Ordering::kHybrid, false},
        PropertyCase{60, 200, 6, 8, Ordering::kDegree, true},
        PropertyCase{60, 200, 6, 8, Ordering::kTreeDecomposition, false}),
    CaseName);

// Larger randomized agreement sweep (no exhaustive verification, more
// queries): WC-INDEX must equal WC-BFS for every sampled query.
class WcIndexAgreementTest
    : public testing::TestWithParam<std::tuple<size_t, size_t, int, uint64_t>> {
};

TEST_P(WcIndexAgreementTest, MatchesOracle) {
  auto [n, m, levels, seed] = GetParam();
  QualityModel quality;
  quality.num_levels = levels;
  QualityGraph g = GenerateRandomConnected(n, m, quality, seed);
  WcIndex index = WcIndex::Build(g);
  WcBfs bfs(&g);
  Rng rng(seed + 77);
  for (int i = 0; i < 500; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    // Also probe non-integer and out-of-range thresholds.
    Quality w = static_cast<Quality>(rng.NextInRange(0, levels + 1)) +
                (rng.NextBool(0.3) ? 0.5f : 0.0f);
    EXPECT_EQ(index.Query(s, t, w), bfs.Query(s, t, w))
        << s << "->" << t << " w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WcIndexAgreementTest,
    testing::Values(std::make_tuple(100, 250, 5, 11),
                    std::make_tuple(150, 300, 3, 12),
                    std::make_tuple(200, 800, 8, 13),
                    std::make_tuple(250, 400, 16, 14),
                    std::make_tuple(300, 900, 2, 15)));

// Structured families: road-like and scale-free graphs with the orderings
// the paper pairs them with.
TEST(WcIndexFamilies, SmallWorldGraph) {
  QualityModel quality;
  quality.num_levels = 6;
  QualityGraph g = GenerateWattsStrogatz(300, 3, 0.15, quality, 19);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  WcBfs bfs(&g);
  Rng rng(20);
  for (int i = 0; i < 300; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(300));
    Vertex t = static_cast<Vertex>(rng.NextBounded(300));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 7));
    ASSERT_EQ(index.Query(s, t, w), bfs.Query(s, t, w));
  }
}

TEST(WcIndexFamilies, ZipfQualities) {
  // Heavy-tailed qualities: most edges weak, few strong — the regime where
  // high thresholds disconnect almost everything.
  QualityModel quality;
  quality.kind = QualityModel::Kind::kZipfLevels;
  quality.num_levels = 10;
  quality.zipf_s = 1.5;
  QualityGraph g = GenerateRandomConnected(150, 450, quality, 21);
  WcIndex index = WcIndex::Build(g);
  VerificationReport report = VerifyAll(index, g);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(WcIndexFamilies, ArterialRoadGraph) {
  // Correlated qualities (arterial backbone) instead of i.i.d. draws.
  RoadOptions options;
  options.rows = options.cols = 14;
  options.quality.num_levels = 8;
  options.arterial_spacing = 7;
  QualityGraph g = GenerateRoadNetwork(options, 23);
  WcIndexOptions plus = WcIndexOptions::Plus();
  WcIndex index = WcIndex::Build(g, plus);
  WcBfs bfs(&g);
  Rng rng(24);
  for (int i = 0; i < 400; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 8));
    ASSERT_EQ(index.Query(s, t, w), bfs.Query(s, t, w));
  }
}

TEST(WcIndexFamilies, AllEqualQualities) {
  // Degenerate |w| = 1: WC-INDEX must collapse to a classic 2-hop index
  // (one entry per (vertex, hub) group).
  QualityModel quality;
  quality.num_levels = 1;
  QualityGraph g = GenerateRandomConnected(100, 300, quality, 25);
  WcIndex index = WcIndex::Build(g);
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    auto lv = index.EntriesFor(v);
    for (size_t i = 1; i < lv.size(); ++i) {
      ASSERT_NE(lv[i - 1].hub, lv[i].hub) << "duplicate hub group at |w|=1";
    }
  }
  VerificationReport report = VerifyAll(index, g);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(WcIndexFamilies, RoadGraphWithTreeOrder) {
  RoadOptions options;
  options.rows = options.cols = 12;
  QualityGraph g = GenerateRoadNetwork(options, 21);
  WcIndexOptions tree;
  tree.ordering = Ordering::kTreeDecomposition;
  WcIndex index = WcIndex::Build(g, tree);
  WcBfs bfs(&g);
  Rng rng(23);
  for (int i = 0; i < 400; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 5));
    ASSERT_EQ(index.Query(s, t, w), bfs.Query(s, t, w));
  }
}

TEST(WcIndexFamilies, ScaleFreeWithHybridOrder) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateBarabasiAlbert(400, 4, quality, 25);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  WcBfs bfs(&g);
  Rng rng(27);
  for (int i = 0; i < 400; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(400));
    Vertex t = static_cast<Vertex>(rng.NextBounded(400));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    ASSERT_EQ(index.Query(s, t, w), bfs.Query(s, t, w));
  }
}

TEST(WcIndexFamilies, DisconnectedComponents) {
  // Two components: cross-component queries must be INF at any threshold.
  GraphBuilder b(8);
  b.AddEdge(0, 1, 2.0f);
  b.AddEdge(1, 2, 3.0f);
  b.AddEdge(4, 5, 1.0f);
  b.AddEdge(5, 6, 2.0f);
  QualityGraph g = b.Build();
  WcIndex index = WcIndex::Build(g);
  EXPECT_EQ(index.Query(0, 5, 1.0f), kInfDistance);
  EXPECT_EQ(index.Query(2, 6, 1.0f), kInfDistance);
  EXPECT_EQ(index.Query(0, 2, 2.0f), 2u);
  EXPECT_EQ(index.Query(4, 6, 1.0f), 2u);
  EXPECT_EQ(index.Query(3, 7, 1.0f), kInfDistance);  // isolated pair
  VerificationReport report = VerifyAll(index, g);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(WcIndexFamilies, SingleVertexAndEmptyGraphs) {
  GraphBuilder b1(1);
  WcIndex one = WcIndex::Build(b1.Build());
  EXPECT_EQ(one.Query(0, 0, 5.0f), 0u);
  EXPECT_EQ(one.TotalEntries(), 1u);

  GraphBuilder b0(0);
  WcIndex zero = WcIndex::Build(b0.Build());
  EXPECT_EQ(zero.TotalEntries(), 0u);
}

TEST(WcIndexBuildStats, CountersPopulated) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(100, 300, quality, 31);
  WcIndex index = WcIndex::Build(g);
  const WcIndexBuildStats& stats = index.build_stats();
  EXPECT_EQ(stats.entries_added, index.TotalEntries());
  EXPECT_GT(stats.pops, stats.entries_added);  // Some pops were pruned.
  EXPECT_GT(stats.pruned_by_query, 0u);
  EXPECT_GT(stats.relaxations, 0u);
  EXPECT_GE(stats.build_seconds, 0.0);
}

TEST(WcIndexOrderings, SameAnswersAcrossAllOrderings) {
  QualityModel quality;
  quality.num_levels = 6;
  QualityGraph g = GenerateRandomConnected(120, 360, quality, 33);
  std::vector<WcIndex> indexes;
  for (Ordering o : {Ordering::kDegree, Ordering::kTreeDecomposition,
                     Ordering::kHybrid, Ordering::kRandom,
                     Ordering::kIdentity}) {
    WcIndexOptions options;
    options.ordering = o;
    indexes.push_back(WcIndex::Build(g, options));
  }
  Rng rng(35);
  for (int i = 0; i < 300; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(120));
    Vertex t = static_cast<Vertex>(rng.NextBounded(120));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 7));
    Distance expected = indexes[0].Query(s, t, w);
    for (size_t k = 1; k < indexes.size(); ++k) {
      ASSERT_EQ(indexes[k].Query(s, t, w), expected)
          << "ordering " << k << " disagrees";
    }
  }
}

TEST(WcIndexFrontier, GroupSizesRespectSizeBound) {
  // §IV.B bounds the index by O(sum over pairs of min(D, |w|)): a
  // (vertex, hub) group is a dominance frontier, so it can hold at most
  // one entry per distinct quality value (and at most one per distance up
  // to the diameter). Check the |w| side of the bound exactly.
  for (int levels : {1, 3, 8}) {
    QualityModel quality;
    quality.num_levels = levels;
    QualityGraph g = GenerateRandomConnected(150, 400, quality, 41);
    WcIndex index = WcIndex::Build(g);
    size_t max_group = 0;
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      auto lv = index.EntriesFor(v);
      size_t i = 0;
      while (i < lv.size()) {
        size_t ie = i;
        while (ie < lv.size() && lv[ie].hub == lv[i].hub) ++ie;
        max_group = std::max(max_group, ie - i);
        i = ie;
      }
    }
    // Self-entry groups have a single inf-quality entry; all others carry
    // distinct finite qualities drawn from |w| values.
    EXPECT_LE(max_group, static_cast<size_t>(levels)) << "levels=" << levels;
  }
}

TEST(WcIndexFrontier, LabelsMatchParetoFrontierOfHubPairs) {
  // For the identity order on Figure 3, hub-v0 entries of L(v4)/L(v5) must
  // be exactly the dominance frontier computed by the oracle.
  QualityGraph g = MakeFigure3Graph();
  WcIndexOptions options;
  options.ordering = Ordering::kIdentity;
  WcIndex index = WcIndex::Build(g, options);
  for (Vertex v : {Vertex{4}, Vertex{5}}) {
    auto frontier = ParetoFrontier(g, 0, v);
    std::vector<FrontierPoint> hub0;
    for (const LabelEntry& e : index.EntriesFor(v)) {
      if (e.hub == 0) hub0.push_back({e.dist, e.quality});
    }
    EXPECT_EQ(hub0, frontier) << "v" << v;
  }
}

}  // namespace
}  // namespace wcsd

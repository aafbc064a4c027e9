// Path reconstruction tests (§V): reconstructed paths must be valid
// w-paths of exactly the queried distance, with and without quad-label
// parents (the fallback is pure index-guided stepping).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/path_index.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "search/wc_bfs.h"
#include "paper_fixtures.h"
#include "util/random.h"

namespace wcsd {
namespace {

void CheckPath(const QualityGraph& g, const WcIndex& index, Vertex s,
               Vertex t, Quality w) {
  Distance d = index.Query(s, t, w);
  std::vector<Vertex> path = QueryConstrainedPath(index, g, s, t, w);
  if (d == kInfDistance) {
    EXPECT_TRUE(path.empty()) << s << "->" << t << " w=" << w;
    return;
  }
  ASSERT_FALSE(path.empty()) << s << "->" << t << " w=" << w;
  EXPECT_EQ(path.front(), s);
  EXPECT_EQ(path.back(), t);
  EXPECT_EQ(path.size(), static_cast<size_t>(d) + 1);
  EXPECT_TRUE(IsValidWPath(g, path, w));
}

TEST(PathTest, Figure3AllPairsWithParents) {
  QualityGraph g = MakeFigure3Graph();
  WcIndexOptions options;
  options.record_parents = true;
  WcIndex index = WcIndex::Build(g, options);
  ASSERT_TRUE(index.has_parents());
  for (Vertex s = 0; s < 6; ++s) {
    for (Vertex t = 0; t < 6; ++t) {
      for (Quality w : {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f}) {
        CheckPath(g, index, s, t, w);
      }
    }
  }
}

TEST(PathTest, Figure3WithoutParentsFallback) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);  // No parents recorded.
  ASSERT_FALSE(index.has_parents());
  for (Vertex s = 0; s < 6; ++s) {
    for (Vertex t = 0; t < 6; ++t) {
      for (Quality w : {1.0f, 3.0f, 5.0f}) {
        CheckPath(g, index, s, t, w);
      }
    }
  }
}

TEST(PathTest, Figure1QoSRoute) {
  // The paper's motivating route: R3 -> S1 -> R4 -> S2 -> R2 at >= 3 Mbps.
  QualityGraph g = MakeFigure1Network();
  WcIndexOptions options;
  options.record_parents = true;
  WcIndex index = WcIndex::Build(g, options);
  std::vector<Vertex> path = QueryConstrainedPath(index, g, 2, 1, 3.0f);
  EXPECT_EQ(path, (std::vector<Vertex>{2, 4, 3, 5, 1}));
}

TEST(PathTest, TrivialAndUnreachable) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  EXPECT_EQ(QueryConstrainedPath(index, g, 3, 3, 9.0f),
            (std::vector<Vertex>{3}));
  EXPECT_TRUE(QueryConstrainedPath(index, g, 0, 4, 6.0f).empty());
}

TEST(PathTest, IsValidWPathRejectsBadPaths) {
  QualityGraph g = MakeFigure3Graph();
  EXPECT_FALSE(IsValidWPath(g, {}, 1.0f));
  EXPECT_FALSE(IsValidWPath(g, {0, 5}, 1.0f));        // Not an edge.
  EXPECT_FALSE(IsValidWPath(g, {0, 3, 4}, 2.0f));     // (0,3) below w=2.
  EXPECT_TRUE(IsValidWPath(g, {0, 3, 4}, 1.0f));
  EXPECT_TRUE(IsValidWPath(g, {2}, 1.0f));            // Single vertex.
}

class PathPropertyTest
    : public testing::TestWithParam<std::tuple<size_t, size_t, int, uint64_t,
                                               bool>> {};

TEST_P(PathPropertyTest, RandomGraphPathsAreShortestWPaths) {
  auto [n, m, levels, seed, with_parents] = GetParam();
  QualityModel quality;
  quality.num_levels = levels;
  QualityGraph g = GenerateRandomConnected(n, m, quality, seed);
  WcIndexOptions options;
  options.record_parents = with_parents;
  WcIndex index = WcIndex::Build(g, options);
  Rng rng(seed + 5);
  for (int i = 0; i < 150; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Quality w = static_cast<Quality>(rng.NextInRange(1, levels + 1));
    CheckPath(g, index, s, t, w);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PathPropertyTest,
    testing::Values(std::make_tuple(40, 90, 4, 1, true),
                    std::make_tuple(40, 90, 4, 1, false),
                    std::make_tuple(80, 200, 6, 2, true),
                    std::make_tuple(80, 200, 6, 2, false),
                    std::make_tuple(150, 450, 3, 3, true),
                    std::make_tuple(150, 450, 10, 4, true)));

// An mmap-loaded snapshot with the v2 parents section must reconstruct
// paths as well as the heap index it came from — and actually USE the
// quads: the parent fast path should carry most unwind steps, with the
// graph fallback only covering pruned mid-chain entries. A parent-less
// load of the same labels must still answer correctly, purely through
// fallback stepping, and report the difference through PathQueryStats.
TEST(PathTest, MmapSnapshotKeepsParentFastPath) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(100, 260, quality, 31);
  WcIndexOptions options = WcIndexOptions::Plus();
  options.record_parents = true;
  WcIndex built = WcIndex::Build(g, options);
  std::string path = testing::TempDir() + "/path_parents.wcsnap";
  ASSERT_TRUE(built.SaveSnapshot(path).ok());
  auto mm = WcIndex::LoadMmap(path);
  ASSERT_TRUE(mm.ok()) << mm.status().ToString();
  ASSERT_TRUE(mm.value().has_parents());

  Rng rng(33);
  PathQueryStats stats;
  for (int i = 0; i < 150; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(100));
    Vertex t = static_cast<Vertex>(rng.NextBounded(100));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 5));
    CheckPath(g, mm.value(), s, t, w);
    std::vector<Vertex> route =
        QueryConstrainedPath(mm.value(), g, s, t, w, &stats);
    std::vector<Vertex> heap_route =
        QueryConstrainedPath(built, g, s, t, w);
    EXPECT_EQ(route, heap_route) << s << "->" << t << " w=" << w;
  }
  EXPECT_GT(stats.parent_steps, 0u)
      << "the mmap'd quads never drove a single unwind step";
  std::remove(path.c_str());
}

TEST(PathTest, RoadNetworkRoutes) {
  RoadOptions options;
  options.rows = options.cols = 15;
  QualityGraph g = GenerateRoadNetwork(options, 7);
  WcIndexOptions index_options;
  index_options.ordering = WcIndexOptions::Ordering::kTreeDecomposition;
  index_options.record_parents = true;
  WcIndex index = WcIndex::Build(g, index_options);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 5));
    CheckPath(g, index, s, t, w);
  }
}

}  // namespace
}  // namespace wcsd

// LCR-adapt baseline tests: query correctness, merged-label invariants,
// and the expected size relationship to Naïve and WC-INDEX.

#include <gtest/gtest.h>

#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/flat_label_set.h"
#include "labeling/lcr_adapt.h"
#include "labeling/naive_index.h"
#include "search/wc_bfs.h"
#include "paper_fixtures.h"
#include "util/random.h"

namespace wcsd {
namespace {

TEST(LcrAdaptTest, Figure3AllPairsAllThresholds) {
  QualityGraph g = MakeFigure3Graph();
  LcrAdaptIndex index = LcrAdaptIndex::Build(g);
  WcBfs bfs(&g);
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      for (Quality w : {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f}) {
        EXPECT_EQ(index.Query(s, t, w), bfs.Query(s, t, w))
            << s << "->" << t << " w=" << w;
      }
    }
  }
}

TEST(LcrAdaptTest, MergedLabelsAreSortedAndMonotone) {
  QualityModel quality;
  QualityGraph g = GenerateRandomConnected(80, 200, quality, 3);
  LcrAdaptIndex index = LcrAdaptIndex::Build(g);
  ASSERT_TRUE(FlatLabelSet::FromLabelSet(index.labels())
                  .Validate(ValidateLevel::kDeep)
                  .ok());
  // Theorem 3-style monotonicity within each hub group.
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    auto lv = index.labels().For(v);
    for (size_t i = 1; i < lv.size(); ++i) {
      if (lv[i - 1].hub != lv[i].hub) continue;
      EXPECT_LT(lv[i - 1].dist, lv[i].dist);
      EXPECT_LT(lv[i - 1].quality, lv[i].quality);
    }
  }
}

TEST(LcrAdaptTest, SmallerThanNaive) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(150, 450, quality, 5);
  LcrAdaptIndex lcr = LcrAdaptIndex::Build(g);
  auto naive = NaiveWcsdIndex::Build(g);
  ASSERT_TRUE(naive.ok());
  // Merging + dominance pruning cannot exceed the sum of per-level labels.
  EXPECT_LE(lcr.MemoryBytes(), naive.value().MemoryBytes());
}

TEST(LcrAdaptTest, AgreesWithWcIndexOnRandomGraphs) {
  QualityModel quality;
  quality.num_levels = 4;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    QualityGraph g = GenerateRandomConnected(60, 150, quality, seed);
    LcrAdaptIndex lcr = LcrAdaptIndex::Build(g);
    WcIndex wc = WcIndex::Build(g);
    Rng rng(seed + 100);
    for (int i = 0; i < 200; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(60));
      Vertex t = static_cast<Vertex>(rng.NextBounded(60));
      Quality w = static_cast<Quality>(rng.NextInRange(1, 5));
      EXPECT_EQ(lcr.Query(s, t, w), wc.Query(s, t, w))
          << "seed=" << seed << " " << s << "->" << t << " w=" << w;
    }
  }
}

}  // namespace
}  // namespace wcsd

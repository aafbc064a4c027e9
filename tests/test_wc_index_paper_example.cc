// Golden tests: the construction and query walkthroughs of the paper
// (Table II, Examples 1-4) must be reproduced exactly.

#include <gtest/gtest.h>

#include <vector>

#include "core/verifier.h"
#include "core/wc_index.h"
#include "labeling/label_set.h"
#include "paper_fixtures.h"
#include "search/wc_bfs.h"

namespace wcsd {
namespace {

WcIndex BuildPaperIndex() {
  // The paper's walkthrough processes v0, v1, ... in id order.
  WcIndexOptions options;
  options.ordering = WcIndexOptions::Ordering::kIdentity;
  return WcIndex::Build(MakeFigure3Graph(), options);
}

std::vector<LabelEntry> Entries(const WcIndex& index, Vertex v) {
  auto span = index.EntriesFor(v);
  return {span.begin(), span.end()};
}

TEST(PaperExample, TableIILabelOfV0) {
  WcIndex index = BuildPaperIndex();
  EXPECT_EQ(Entries(index, 0),
            (std::vector<LabelEntry>{{0, 0, kInfQuality}}));
}

TEST(PaperExample, TableIILabelOfV1) {
  WcIndex index = BuildPaperIndex();
  EXPECT_EQ(Entries(index, 1),
            (std::vector<LabelEntry>{{0, 1, 3}, {1, 0, kInfQuality}}));
}

TEST(PaperExample, TableIILabelOfV2) {
  WcIndex index = BuildPaperIndex();
  EXPECT_EQ(Entries(index, 2),
            (std::vector<LabelEntry>{
                {0, 2, 3}, {1, 1, 5}, {2, 0, kInfQuality}}));
}

TEST(PaperExample, TableIILabelOfV3) {
  WcIndex index = BuildPaperIndex();
  EXPECT_EQ(Entries(index, 3),
            (std::vector<LabelEntry>{{0, 1, 1},
                                     {0, 2, 2},
                                     {0, 3, 3},
                                     {1, 1, 2},
                                     {1, 2, 4},
                                     {2, 1, 4},
                                     {3, 0, kInfQuality}}));
}

TEST(PaperExample, TableIILabelOfV4) {
  WcIndex index = BuildPaperIndex();
  EXPECT_EQ(Entries(index, 4),
            (std::vector<LabelEntry>{{0, 2, 1},
                                     {0, 3, 2},
                                     {0, 4, 3},
                                     {1, 2, 2},
                                     {1, 3, 4},
                                     {2, 2, 4},
                                     {3, 1, 4},
                                     {4, 0, kInfQuality}}));
}

TEST(PaperExample, TableIILabelOfV5) {
  WcIndex index = BuildPaperIndex();
  EXPECT_EQ(Entries(index, 5),
            (std::vector<LabelEntry>{{0, 2, 1},
                                     {0, 3, 2},
                                     {0, 5, 3},
                                     {1, 2, 2},
                                     {1, 4, 3},
                                     {2, 2, 2},
                                     {2, 3, 3},
                                     {3, 1, 2},
                                     {3, 2, 3},
                                     {4, 1, 3},
                                     {5, 0, kInfQuality}}));
}

TEST(PaperExample, TableIITotalSize) {
  // Table II lists 1+2+3+7+8+11 = 32 entries.
  WcIndex index = BuildPaperIndex();
  EXPECT_EQ(index.TotalEntries(), 32u);
}

TEST(PaperExample, Example3QueryV2V5W2) {
  // "Given a query Q(v2, v5, 2) ... resulting in dist2 = 0 + 2 = 2."
  WcIndex index = BuildPaperIndex();
  EXPECT_EQ(index.Query(2, 5, 2.0f), 2u);
}

TEST(PaperExample, Example3IntermediateCandidates) {
  // The walkthrough's intermediate candidates for Q(v2, v5, 2): via hub v0
  // the sum is 2 + 3 = 5, via hub v1 it is 1 + 2 = 3, and via hub v2 it is
  // 0 + 2 = 2. Each must correspond to a real 2-path in the graph.
  QualityGraph g = MakeFigure3Graph();
  WcBfs bfs(&g);
  EXPECT_LE(bfs.Query(2, 5, 2.0f), 5u);
  EXPECT_LE(bfs.Query(2, 5, 2.0f), 3u);
  EXPECT_EQ(bfs.Query(2, 5, 2.0f), 2u);
  // And the hub split distances themselves are w-constrained distances.
  EXPECT_EQ(bfs.Query(0, 2, 3.0f), 2u);  // (v0, 2, 3) in L(v2)
  EXPECT_EQ(bfs.Query(0, 5, 2.0f), 3u);  // (v0, 3, 2) in L(v5)
  EXPECT_EQ(bfs.Query(1, 5, 2.0f), 2u);  // (v1, 2, 2) in L(v5)
}

TEST(PaperExample, Example2DominanceDistances) {
  // From Example 2: dist^1(v0, v4) = 2 via {v0, v3, v4}; the 3-constrained
  // path {v1, v2, v3} gives dist^3(v1, v3) = dist^4(v1, v3) = 2;
  // dist^2(v1, v3) = 1 via the direct edge.
  WcIndex index = BuildPaperIndex();
  EXPECT_EQ(index.Query(0, 4, 1.0f), 2u);
  EXPECT_EQ(index.Query(1, 3, 3.0f), 2u);
  EXPECT_EQ(index.Query(1, 3, 4.0f), 2u);
  EXPECT_EQ(index.Query(1, 3, 2.0f), 1u);
}

TEST(PaperExample, UnsatisfiableConstraintIsInf) {
  WcIndex index = BuildPaperIndex();
  EXPECT_EQ(index.Query(0, 4, 6.0f), kInfDistance);
}

TEST(PaperExample, IndexPassesFullVerification) {
  WcIndex index = BuildPaperIndex();
  QualityGraph g = MakeFigure3Graph();
  VerificationReport report = VerifyAll(index, g);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(PaperExample, Example1Figure2Facts) {
  // All of Example 1's assertions must hold on the Figure 2 witness graph
  // (see MakeFigure2Graph), both via online search and via the index.
  QualityGraph g = MakeFigure2Graph();
  WcIndex index = WcIndex::Build(g);
  WcBfs bfs(&g);
  // dist^1(v0, v8) = 2 via {v0, v2, v8}.
  EXPECT_EQ(bfs.Query(0, 8, 1.0f), 2u);
  EXPECT_EQ(index.Query(0, 8, 1.0f), 2u);
  // dist^2(v0, v8) = 3 via {v0, v1, v2, v8} ((v0, v2) is below 2).
  EXPECT_EQ(index.Query(0, 8, 2.0f), 3u);
  // {v1, v2, v9, v8, v5, v4} is a 3-path, so dist^3(v1, v4) <= 5...
  EXPECT_LE(index.Query(1, 4, 3.0f), 5u);
  // ...but the 2-path {v1, v2, v8, v5, v4} is shorter: dist^2(v1, v4) = 4.
  EXPECT_EQ(index.Query(1, 4, 2.0f), 4u);
  // And the whole index is consistent on this graph too.
  VerificationReport report = VerifyAll(index, g);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(PaperExample, Figure1QoSQuery) {
  // Example (1): distance from R3 to R2 with a 3 Mbps guarantee is 4,
  // because the short route through S1 -> R2 only carries 2 Mbps.
  QualityGraph g = MakeFigure1Network();
  WcIndex index = WcIndex::Build(g);
  EXPECT_EQ(index.Query(2, 1, 3.0f), 4u);
  // Without the bandwidth guarantee the distance is 2 (R3 - S1 - R2).
  EXPECT_EQ(index.Query(2, 1, 1.0f), 2u);
}

TEST(PaperExample, Example4BfsHub0Entries) {
  // Figure 4 walkthrough: v0's round contributes exactly the hub-0 entries
  // of Table II — 1 (self) + 1 (v1) + 1 (v2) + 3 (v3) + 3 (v4) + 3 (v5).
  WcIndex index = BuildPaperIndex();
  size_t hub0_entries = 0;
  for (Vertex v = 0; v < 6; ++v) {
    for (const LabelEntry& e : index.EntriesFor(v)) {
      if (e.hub == 0) ++hub0_entries;
    }
  }
  EXPECT_EQ(hub0_entries, 12u);
}

}  // namespace
}  // namespace wcsd

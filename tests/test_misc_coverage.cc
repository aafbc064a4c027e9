// Cross-cutting coverage: option presets, order dispatch, container
// negative cases, and API corners not exercised elsewhere.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/batch.h"
#include "core/dynamic_wc_index.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/subgraph.h"
#include "labeling/compressed_flat.h"
#include "labeling/label_store.h"
#include "order/hybrid_order.h"
#include "order/tree_decomposition.h"
#include "paper_fixtures.h"
#include "util/epoch_array.h"

namespace wcsd {
namespace {

TEST(OptionsPresets, BasicAndPlusDifferOnlyInConstructionPath) {
  WcIndexOptions basic = WcIndexOptions::Basic();
  WcIndexOptions plus = WcIndexOptions::Plus();
  EXPECT_EQ(basic.ordering, plus.ordering);  // Same order => same size.
  EXPECT_FALSE(basic.query_efficient);
  EXPECT_TRUE(plus.query_efficient);
  EXPECT_FALSE(basic.further_pruning);
  EXPECT_TRUE(plus.further_pruning);
}

TEST(OptionsPresets, BasicAndPlusProduceIdenticalLabels) {
  QualityModel quality;
  quality.num_levels = 4;
  QualityGraph g = GenerateRandomConnected(80, 220, quality, 3);
  WcIndex basic = WcIndex::Build(g, WcIndexOptions::Basic());
  WcIndex plus = WcIndex::Build(g, WcIndexOptions::Plus());
  EXPECT_EQ(basic.labels(), plus.labels());
}

TEST(MakeOrderDispatch, EverySchemeYieldsValidOrder) {
  QualityGraph g = MakeFigure3Graph();
  for (auto scheme :
       {WcIndexOptions::Ordering::kDegree,
        WcIndexOptions::Ordering::kTreeDecomposition,
        WcIndexOptions::Ordering::kHybrid, WcIndexOptions::Ordering::kRandom,
        WcIndexOptions::Ordering::kIdentity}) {
    WcIndexOptions options;
    options.ordering = scheme;
    VertexOrder order = MakeOrder(g, options);
    EXPECT_TRUE(order.IsValid());
    EXPECT_EQ(order.size(), g.NumVertices());
  }
}

TEST(MakeOrderDispatch, HybridHonorsExplicitThreshold) {
  QualityModel quality;
  QualityGraph g = GenerateBarabasiAlbert(300, 5, quality, 5);
  WcIndexOptions options;
  options.ordering = WcIndexOptions::Ordering::kHybrid;
  options.hybrid_degree_threshold = 1000;  // Nobody is core.
  VertexOrder no_core = MakeOrder(g, options);
  options.hybrid_degree_threshold = 1;     // Almost everybody is core.
  VertexOrder all_core = MakeOrder(g, options);
  EXPECT_TRUE(no_core.IsValid());
  EXPECT_TRUE(all_core.IsValid());
  EXPECT_NE(no_core.by_rank(), all_core.by_rank());
}

TEST(LabelSetNegative, DeepValidateDetectsUnsortedLabels) {
  LabelSet labels(2);
  auto* lv = labels.Mutable(1);
  lv->push_back({5, 1, 1.0f});
  lv->push_back({2, 1, 2.0f});  // Hub going backwards.
  EXPECT_FALSE(
      FlatLabelSet::FromLabelSet(labels).Validate(ValidateLevel::kDeep).ok());

  LabelSet labels2(2);
  auto* lv2 = labels2.Mutable(1);
  lv2->push_back({2, 3, 1.0f});
  lv2->push_back({2, 1, 2.0f});  // Distance going backwards in a group.
  EXPECT_FALSE(
      FlatLabelSet::FromLabelSet(labels2).Validate(ValidateLevel::kDeep).ok());
}

TEST(SubgraphCorners, MinusInfinityKeepsEverything) {
  QualityGraph g = MakeFigure3Graph();
  QualityGraph all =
      FilterByQuality(g, -std::numeric_limits<Quality>::infinity());
  EXPECT_EQ(all.NumEdges(), g.NumEdges());
}

TEST(IoCorners, HintSmallerThanMaxIdIsIgnored) {
  auto result = ParseEdgeList("0 9 1\n", /*num_vertices_hint=*/3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumVertices(), 10u);
}

TEST(IoCorners, DimacsFileRoundTripThroughEdgeList) {
  // Write DIMACS by hand, read it, re-export as an edge list, re-read.
  std::string dimacs_path = testing::TempDir() + "/mini.gr";
  {
    std::ofstream out(dimacs_path);
    out << "c tiny\np sp 3 4\na 1 2 4\na 2 1 4\na 2 3 7\na 3 2 7\n";
  }
  auto g = ReadDimacsFile(dimacs_path);
  ASSERT_TRUE(g.ok());
  std::string edges_path = testing::TempDir() + "/mini.edges";
  ASSERT_TRUE(WriteEdgeListFile(g.value(), edges_path).ok());
  auto reread = ReadEdgeListFile(edges_path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value(), g.value());
  std::remove(dimacs_path.c_str());
  std::remove(edges_path.c_str());
}

TEST(EpochArrayCorners, WorksWithStructPayload) {
  struct Pair {
    int a = -1;
    int b = -1;
    bool operator==(const Pair&) const = default;
  };
  EpochArray<Pair> arr(3, Pair{});
  arr.Set(1, Pair{4, 5});
  EXPECT_EQ(arr.Get(1), (Pair{4, 5}));
  arr.Clear();
  EXPECT_EQ(arr.Get(1), Pair{});
}

TEST(DynamicCorners, SelfLoopInsertIsNoop) {
  QualityGraph g = MakeFigure3Graph();
  DynamicWcIndex index(g);
  size_t before = index.labels().TotalEntries();
  index.InsertEdge(2, 2, 9.0f);
  EXPECT_EQ(index.labels().TotalEntries(), before);
}

TEST(DynamicCorners, BatchWithDuplicatesAndSelfLoops) {
  QualityGraph g = MakeFigure3Graph();
  DynamicWcIndex index(g);
  index.InsertEdges({{0, 5, 2.0f}, {0, 5, 4.0f}, {3, 3, 9.0f}});
  // Strongest duplicate wins.
  EXPECT_EQ(index.Query(0, 5, 4.0f), 1u);
  QualityGraph snapshot = index.Snapshot();
  EXPECT_FLOAT_EQ(snapshot.EdgeQuality(0, 5), 4.0f);
}

TEST(BatchCorners, TopKWithEmptyCandidates) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  EXPECT_TRUE(TopKClosest(index, 0, {}, 1.0f, 5).empty());
}

TEST(CompressedCorners, FractionalQualityDictionary) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 0.125f);
  b.AddEdge(1, 2, 2.75f);
  b.AddEdge(2, 3, 0.125f);
  b.AddEdge(0, 3, 99.5f);
  QualityGraph g = b.Build();
  WcIndex index = WcIndex::Build(g);
  index.Finalize();
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  Result<FlatLabelSet> decompressed = compressed.Decompress();
  ASSERT_TRUE(decompressed.ok()) << decompressed.status().ToString();
  EXPECT_EQ(decompressed.value(), index.flat_labels());
  const LabelStore store(compressed, g.NumVertices());
  EXPECT_EQ(MergeStores(store, 0, store, 2, 0.125f),
            index.Query(0, 2, 0.125f));
  EXPECT_EQ(MergeStores(store, 0, store, 2, 2.8f), index.Query(0, 2, 2.8f));
}

TEST(TreeDecompositionCorners, OrderWithCapIsStillPermutation) {
  QualityModel quality;
  QualityGraph g = GenerateBarabasiAlbert(300, 6, quality, 7);
  MdeOptions options;
  options.max_fill_degree = 8;
  VertexOrder order = TreeDecompositionOrder(g, options);
  EXPECT_TRUE(order.IsValid());
}

}  // namespace
}  // namespace wcsd

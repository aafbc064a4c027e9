// Unit tests for the CSR graph, builder, and subgraph filtering.

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "paper_fixtures.h"

namespace wcsd {
namespace {

TEST(GraphBuilder, BasicCounts) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 2.0f);
  b.AddEdge(1, 2, 3.0f);
  QualityGraph g = b.Build();
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(3), 0u);
}

TEST(GraphBuilder, SelfLoopsDropped) {
  GraphBuilder b(3);
  b.AddEdge(1, 1, 5.0f);
  QualityGraph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphBuilder, ParallelEdgesKeepMaxQuality) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 2.0f);
  b.AddEdge(1, 0, 7.0f);
  b.AddEdge(0, 1, 5.0f);
  QualityGraph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_FLOAT_EQ(g.EdgeQuality(0, 1), 7.0f);
  EXPECT_FLOAT_EQ(g.EdgeQuality(1, 0), 7.0f);
}

TEST(GraphBuilder, NeighborsSortedById) {
  GraphBuilder b(5);
  b.AddEdge(2, 4, 1.0f);
  b.AddEdge(2, 0, 1.0f);
  b.AddEdge(2, 3, 1.0f);
  QualityGraph g = b.Build();
  auto nbrs = g.Neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0].to, 0u);
  EXPECT_EQ(nbrs[1].to, 3u);
  EXPECT_EQ(nbrs[2].to, 4u);
}

TEST(GraphBuilder, ReusableAfterBuild) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1.0f);
  QualityGraph g1 = b.Build();
  b.AddEdge(1, 2, 2.0f);
  QualityGraph g2 = b.Build();
  EXPECT_EQ(g1.NumEdges(), 1u);
  EXPECT_EQ(g2.NumEdges(), 2u);
}

TEST(QualityGraph, EdgeQualityAbsentIsNegative) {
  QualityGraph g = MakeFigure3Graph();
  EXPECT_LT(g.EdgeQuality(0, 5), 0.0f);
}

TEST(QualityGraph, DistinctQualitiesSortedUnique) {
  QualityGraph g = MakeFigure3Graph();
  // Figure 3 qualities: 3,1,5,2,4,4,2,3 -> {1,2,3,4,5}.
  EXPECT_EQ(g.DistinctQualities(),
            (std::vector<Quality>{1, 2, 3, 4, 5}));
}

TEST(QualityGraph, MaxDegree) {
  QualityGraph g = MakeFigure3Graph();
  EXPECT_EQ(g.MaxDegree(), 5u);  // v3 touches v0, v1, v2, v4, v5.
}

TEST(QualityGraph, MemoryBytesPositiveAndProportional) {
  QualityGraph small = MakeFigure3Graph();
  GraphBuilder b(100);
  for (Vertex i = 0; i + 1 < 100; ++i) b.AddEdge(i, i + 1, 1.0f);
  QualityGraph big = b.Build();
  EXPECT_GT(small.MemoryBytes(), 0u);
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
}

TEST(QualityGraph, EmptyGraph) {
  GraphBuilder b(0);
  QualityGraph g = b.Build();
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_TRUE(g.DistinctQualities().empty());
  EXPECT_EQ(g.MaxDegree(), 0u);
}

TEST(Subgraph, FilterKeepsOnlyQualifyingEdges) {
  QualityGraph g = MakeFigure3Graph();
  QualityGraph f3 = FilterByQuality(g, 3.0f);
  // Edges with quality >= 3: (0,1,3) (1,2,5) (2,3,4) (3,4,4) (4,5,3).
  EXPECT_EQ(f3.NumEdges(), 5u);
  EXPECT_LT(f3.EdgeQuality(0, 3), 0.0f);
  EXPECT_FLOAT_EQ(f3.EdgeQuality(1, 2), 5.0f);
}

TEST(Subgraph, FilterAboveMaxIsEmpty) {
  QualityGraph g = MakeFigure3Graph();
  EXPECT_EQ(FilterByQuality(g, 6.0f).NumEdges(), 0u);
}

TEST(QualityPartition, LevelsMatchDistinctQualities) {
  QualityGraph g = MakeFigure3Graph();
  QualityPartition partition(g);
  EXPECT_EQ(partition.NumLevels(), 5u);
  EXPECT_EQ(partition.GraphAtLevel(0).NumEdges(), g.NumEdges());
}

TEST(QualityPartition, LevelForConstraintRounding) {
  QualityGraph g = MakeFigure3Graph();
  QualityPartition partition(g);
  // Constraint 2.5 rounds up to the level of threshold 3.
  auto level = partition.LevelForConstraint(2.5f);
  ASSERT_TRUE(level.has_value());
  EXPECT_FLOAT_EQ(partition.thresholds()[*level], 3.0f);
  // Exact hit.
  level = partition.LevelForConstraint(4.0f);
  ASSERT_TRUE(level.has_value());
  EXPECT_FLOAT_EQ(partition.thresholds()[*level], 4.0f);
  // Above max: no usable edges.
  EXPECT_FALSE(partition.LevelForConstraint(5.5f).has_value());
}

TEST(QualityPartition, MemoryCoversAllLevels) {
  QualityGraph g = MakeFigure3Graph();
  QualityPartition partition(g);
  EXPECT_GE(partition.MemoryBytes(), g.MemoryBytes());
}

}  // namespace
}  // namespace wcsd

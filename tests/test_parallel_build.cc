// Properties of the rank-batched parallel construction pipeline: for every
// thread count and batch size, the produced index must be BIT-IDENTICAL to
// the sequential build (Theorem 1's minimal index is canonical for a fixed
// vertex order), and its answers must match the ConstrainedDijkstra oracle.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/verifier.h"
#include "core/wc_index.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "search/constrained_dijkstra.h"
#include "util/random.h"

namespace wcsd {
namespace {

using Ordering = WcIndexOptions::Ordering;

QualityGraph MakeGraph(int which, uint64_t seed) {
  QualityModel quality;
  switch (which) {
    case 0:
      quality.num_levels = 5;
      return GenerateRandomConnected(120, 360, quality, seed);
    case 1:
      quality.num_levels = 8;
      return GenerateBarabasiAlbert(150, 4, quality, seed);
    case 2: {
      RoadOptions options;
      options.rows = options.cols = 12;
      options.quality.num_levels = 6;
      options.arterial_spacing = 5;
      return GenerateRoadNetwork(options, seed);
    }
    default:
      quality.num_levels = 3;
      return GenerateWattsStrogatz(140, 3, 0.2, quality, seed);
  }
}

// (graph family, vertex order, threads, batch size).
using IdentityCase = std::tuple<int, Ordering, size_t, size_t>;

class ParallelBuildIdentityTest : public testing::TestWithParam<IdentityCase> {
};

std::string IdentityCaseName(const testing::TestParamInfo<IdentityCase>& info) {
  auto [graph_kind, ordering, threads, batch] = info.param;
  std::string name = "g";
  name += std::to_string(graph_kind);
  if (ordering == Ordering::kTreeDecomposition) name += "tree";
  name += 't';
  name += std::to_string(threads);
  name += 'b';
  name += std::to_string(batch);
  return name;
}

TEST_P(ParallelBuildIdentityTest, MatchesSequentialBitForBit) {
  auto [graph_kind, ordering, threads, batch_size] = GetParam();
  QualityGraph g = MakeGraph(graph_kind, 97 + graph_kind);

  WcIndexOptions sequential = WcIndexOptions::Plus();
  sequential.ordering = ordering;
  sequential.num_threads = 1;
  WcIndex expected = WcIndex::Build(g, sequential);

  WcIndexOptions parallel = sequential;
  parallel.num_threads = threads;
  parallel.batch_size = batch_size;
  WcIndex actual = WcIndex::Build(g, parallel);

  ASSERT_EQ(actual.labels(), expected.labels())
      << "threads=" << threads << " batch=" << batch_size;
  EXPECT_EQ(actual.TotalEntries(), expected.TotalEntries());
  EXPECT_EQ(actual.build_stats().entries_added,
            expected.build_stats().entries_added);
}

const auto kThreadCounts = testing::Values(size_t{2}, size_t{4}, size_t{8});
const auto kBatchSizes = testing::Values(size_t{0}, size_t{1}, size_t{3},
                                         size_t{17}, size_t{64});

// Plus()'s hybrid order on every graph family.
INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelBuildIdentityTest,
    testing::Combine(testing::Values(0, 1, 2, 3),
                     testing::Values(Ordering::kHybrid), kThreadCounts,
                     kBatchSizes),
    IdentityCaseName);

// Tree-decomposition order on the road family, the order road graphs are
// usually built with; the hybrid sweep above never ranks a road graph so.
INSTANTIATE_TEST_SUITE_P(
    TreeOrder, ParallelBuildIdentityTest,
    testing::Combine(testing::Values(2),
                     testing::Values(Ordering::kTreeDecomposition),
                     kThreadCounts, kBatchSizes),
    IdentityCaseName);

// Graphs with many quality levels: a root meets more constraints than the
// builder keeps cover tables, so tables are replaced mid-root.
QualityGraph MakeManyLevelGraph(int which, int levels, uint64_t seed) {
  QualityModel quality;
  quality.num_levels = levels;
  switch (which) {
    case 0:
      return GenerateBarabasiAlbert(150, 4, quality, seed);
    case 1: {
      RoadOptions options;
      options.rows = options.cols = 12;
      options.quality = quality;
      options.arterial_spacing = 5;
      return GenerateRoadNetwork(options, seed);
    }
    default:
      return GenerateRandomConnected(120, 360, quality, seed);
  }
}

std::vector<std::vector<Vertex>> AllParents(const WcIndex& index) {
  std::vector<std::vector<Vertex>> parents;
  for (Vertex v = 0; v < index.NumVertices(); ++v) {
    auto p = index.Parents(v);
    parents.emplace_back(p.begin(), p.end());
  }
  return parents;
}

TEST(ParallelBuild, BasicConstructionQueryAlsoIdentical) {
  // The non-query-efficient cover check (plain WC-INDEX) goes through a
  // different code path; the pipeline must preserve it too, under the
  // hybrid order and under the road family's tree-decomposition order.
  for (auto [kind, ordering] : {std::pair{0, Ordering::kHybrid},
                                std::pair{2, Ordering::kTreeDecomposition}}) {
    QualityGraph g = MakeGraph(kind, 131);
    WcIndexOptions sequential = WcIndexOptions::Basic();
    sequential.ordering = ordering;
    sequential.num_threads = 1;
    WcIndexOptions parallel = sequential;
    parallel.num_threads = 4;
    parallel.batch_size = 7;
    EXPECT_EQ(WcIndex::Build(g, parallel).labels(),
              WcIndex::Build(g, sequential).labels())
        << "kind=" << kind;
  }
  // Basic() re-resolves hub groups per check (Algorithm 4), independently
  // of Plus()'s cover tables: both must keep the same labels and parents
  // where the tables are replaced mid-root, sequentially and in the
  // parallel BFS and merge.
  for (int kind = 0; kind < 3; ++kind) {
    for (int levels : {16, 200, 100000}) {
      for (Ordering ordering :
           {Ordering::kHybrid, Ordering::kTreeDecomposition}) {
        SCOPED_TRACE("kind=" + std::to_string(kind) +
                     " levels=" + std::to_string(levels) + " tree=" +
                     std::to_string(ordering == Ordering::kTreeDecomposition));
        QualityGraph g = MakeManyLevelGraph(kind, levels, 151 + kind);
        WcIndexOptions basic = WcIndexOptions::Basic();
        basic.ordering = ordering;
        basic.record_parents = true;
        WcIndexOptions plus = WcIndexOptions::Plus();
        plus.ordering = ordering;
        plus.record_parents = true;
        const WcIndex expected = WcIndex::Build(g, basic);
        const WcIndex sequential = WcIndex::Build(g, plus);
        EXPECT_EQ(sequential.labels(), expected.labels());
        EXPECT_EQ(AllParents(sequential), AllParents(expected));
        WcIndexOptions parallel = plus;
        parallel.num_threads = 4;
        parallel.batch_size = 3;
        EXPECT_EQ(WcIndex::Build(g, parallel).labels(), expected.labels());
      }
    }
  }
}

TEST(ParallelBuild, MergeSecondsArePartOfTheBuild) {
  QualityGraph g = MakeGraph(2, 97);
  WcIndexOptions options = WcIndexOptions::Plus();
  options.num_threads = 1;
  EXPECT_EQ(WcIndex::Build(g, options).build_stats().merge_seconds, 0.0);
  options.num_threads = 4;
  const WcIndexBuildStats stats = WcIndex::Build(g, options).build_stats();
  EXPECT_GT(stats.merge_seconds, 0.0);
  EXPECT_LE(stats.merge_seconds, stats.build_seconds);
}

TEST(ParallelBuild, OddThreadCountIdentical) {
  QualityGraph g = MakeGraph(1, 133);
  WcIndexOptions sequential = WcIndexOptions::Plus();
  sequential.num_threads = 1;
  WcIndexOptions parallel = sequential;
  parallel.num_threads = 3;
  EXPECT_EQ(WcIndex::Build(g, parallel).labels(),
            WcIndex::Build(g, sequential).labels());
}

TEST(ParallelBuild, RecordParentsProducesAlignedParents) {
  QualityGraph g = MakeGraph(2, 137);
  WcIndexOptions options = WcIndexOptions::Plus();
  options.record_parents = true;
  options.num_threads = 4;
  options.batch_size = 5;
  WcIndex index = WcIndex::Build(g, options);
  ASSERT_TRUE(index.has_parents());
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(index.Parents(v).size(), index.EntriesFor(v).size());
  }
}

TEST(ParallelBuild, AnswersMatchConstrainedDijkstra) {
  for (int kind = 0; kind < 4; ++kind) {
    QualityGraph g = MakeGraph(kind, 211 + kind);
    WcIndexOptions options = WcIndexOptions::Plus();
    options.num_threads = 4;
    WcIndex index = WcIndex::Build(g, options);
    Rng rng(17 + kind);
    const size_t n = g.NumVertices();
    for (int i = 0; i < 250; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(n));
      Vertex t = static_cast<Vertex>(rng.NextBounded(n));
      Quality w = static_cast<Quality>(rng.NextInRange(1, 9));
      EXPECT_EQ(index.Query(s, t, w), ConstrainedDijkstraUnit(g, s, t, w))
          << "kind=" << kind << " " << s << "->" << t << " w=" << w;
    }
  }
}

TEST(ParallelBuild, ParallelIndexPassesFullVerification) {
  QualityGraph g = MakeGraph(0, 139);
  WcIndexOptions options = WcIndexOptions::Plus();
  options.num_threads = 8;
  options.batch_size = 2;
  WcIndex index = WcIndex::Build(g, options);
  VerificationReport report = VerifyAll(index, g);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(ParallelBuild, AutoThreadsAndTinyGraphs) {
  // num_threads = 0 resolves to hardware concurrency; degenerate graphs
  // must not wedge the pool.
  WcIndexOptions options = WcIndexOptions::Plus();
  options.num_threads = 0;

  GraphBuilder b0(0);
  EXPECT_EQ(WcIndex::Build(b0.Build(), options).TotalEntries(), 0u);

  GraphBuilder b1(1);
  WcIndex one = WcIndex::Build(b1.Build(), options);
  EXPECT_EQ(one.TotalEntries(), 1u);
  EXPECT_EQ(one.Query(0, 0, 1.0f), 0u);

  GraphBuilder b2(2);
  b2.AddEdge(0, 1, 2.0f);
  WcIndexOptions many = WcIndexOptions::Plus();
  many.num_threads = 16;  // more threads than vertices
  WcIndex two = WcIndex::Build(b2.Build(), many);
  EXPECT_EQ(two.Query(0, 1, 1.0f), 1u);
  EXPECT_EQ(two.Query(0, 1, 3.0f), kInfDistance);
}

}  // namespace
}  // namespace wcsd

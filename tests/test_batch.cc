// Batch/ranking API tests: engine batches' thread-count invariance and
// positional alignment, top-k semantics, and quality-profile monotonicity.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "core/batch.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "paper_fixtures.h"
#include "search/constrained_dijkstra.h"
#include "serve/query_engine.h"
#include "util/random.h"

namespace wcsd {
namespace {

std::vector<BatchQueryInput> RandomBatch(size_t n_vertices, int levels,
                                         size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchQueryInput> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    batch.push_back({static_cast<Vertex>(rng.NextBounded(n_vertices)),
                     static_cast<Vertex>(rng.NextBounded(n_vertices)),
                     static_cast<Quality>(rng.NextInRange(1, levels))});
  }
  return batch;
}

/// `batch` through a QueryEngine over `index` with `threads` pool threads.
std::vector<Distance> EngineBatch(std::shared_ptr<const WcIndex> index,
                                  const std::vector<BatchQueryInput>& batch,
                                  size_t threads) {
  QueryEngineOptions options;
  options.num_threads = threads;
  return QueryEngine(std::move(index), options).Batch(batch);
}

TEST(BatchQueryTest, MatchesSingleQueries) {
  QualityGraph g = MakeFigure3Graph();
  auto index = std::make_shared<const WcIndex>(WcIndex::Build(g));
  std::vector<BatchQueryInput> batch{
      {2, 5, 2.0f}, {0, 4, 1.0f}, {0, 4, 6.0f}, {3, 3, 9.0f}};
  auto results = EngineBatch(index, batch, 1);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0], 2u);
  EXPECT_EQ(results[1], 2u);
  EXPECT_EQ(results[2], kInfDistance);
  EXPECT_EQ(results[3], 0u);
}

TEST(BatchQueryTest, ThreadCountDoesNotChangeResults) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(200, 600, quality, 3);
  auto index = std::make_shared<const WcIndex>(WcIndex::Build(g));
  auto batch = RandomBatch(200, 5, 2000, 7);
  auto sequential = EngineBatch(index, batch, 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(sequential[i], index->Query(batch[i].s, batch[i].t, batch[i].w))
        << "query " << i;
  }
  for (size_t threads : {2u, 4u, 8u, 64u}) {
    EXPECT_EQ(EngineBatch(index, batch, threads), sequential)
        << threads << " threads";
  }
}

TEST(BatchQueryTest, EmptyBatch) {
  QualityGraph g = MakeFigure3Graph();
  auto index = std::make_shared<const WcIndex>(WcIndex::Build(g));
  EXPECT_TRUE(EngineBatch(index, {}, 4).empty());
}

TEST(TopKClosestTest, OrdersByDistanceThenId) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  // Distances from v0 at w=1: v1:1, v2:2, v3:1, v4:2, v5:2.
  auto top = TopKClosest(index, 0, {1, 2, 3, 4, 5}, 1.0f, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].vertex, 1u);
  EXPECT_EQ(top[0].dist, 1u);
  EXPECT_EQ(top[1].vertex, 3u);
  EXPECT_EQ(top[1].dist, 1u);
  EXPECT_EQ(top[2].vertex, 2u);
  EXPECT_EQ(top[2].dist, 2u);
}

TEST(TopKClosestTest, OmitsUnreachable) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  // At w=4 only the subgraph {v1, v2, v3, v4} stays connected.
  auto top = TopKClosest(index, 1, {0, 2, 3, 4, 5}, 4.0f, 10);
  for (const RankedCandidate& c : top) {
    EXPECT_NE(c.vertex, 0u);
    EXPECT_NE(c.vertex, 5u);
  }
  EXPECT_EQ(top.size(), 3u);
}

TEST(TopKClosestTest, KLargerThanCandidates) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  auto top = TopKClosest(index, 0, {1, 3}, 1.0f, 99);
  EXPECT_EQ(top.size(), 2u);
}

TEST(QualityProfileTest, MonotoneNonDecreasingDistances) {
  QualityModel quality;
  quality.num_levels = 8;
  QualityGraph g = GenerateRandomConnected(120, 300, quality, 9);
  WcIndex index = WcIndex::Build(g);
  auto thresholds = g.DistinctQualities();
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(120));
    Vertex t = static_cast<Vertex>(rng.NextBounded(120));
    auto profile = QualityProfile(index, s, t, thresholds);
    ASSERT_EQ(profile.size(), thresholds.size());
    for (size_t j = 1; j < profile.size(); ++j) {
      // Raising the constraint can only lengthen (or break) the path.
      EXPECT_LE(profile[j - 1].dist, profile[j].dist);
    }
  }
}

TEST(QualityProfileTest, Figure3PairV0V4) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  auto profile = QualityProfile(index, 0, 4, {1, 2, 3, 4, 5});
  ASSERT_EQ(profile.size(), 5u);
  EXPECT_EQ(profile[0].dist, 2u);
  EXPECT_EQ(profile[1].dist, 3u);
  EXPECT_EQ(profile[2].dist, 4u);
  EXPECT_EQ(profile[3].dist, kInfDistance);
  EXPECT_EQ(profile[4].dist, kInfDistance);
}

// The profile must cost one label merge per DISTINCT certified interval
// the thresholds land in — never one per threshold. Probing the same
// breakpoint structure with 100 thresholds must not merge more than
// probing it with the distinct qualities does (plus at most one for an
// above-the-top threshold), and duplicated thresholds must be free.
TEST(QualityProfileTest, MergeCountBoundedByIntervalsNotThresholds) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(120, 300, quality, 13);
  WcIndex index = WcIndex::Build(g);
  Rng rng(15);
  for (int i = 0; i < 50; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(120));
    Vertex t = static_cast<Vertex>(rng.NextBounded(120));

    // Dense sweep: 100 thresholds spread over [1, 6].
    std::vector<Quality> dense;
    for (int j = 0; j < 100; ++j) {
      dense.push_back(1.0f + 0.05f * static_cast<float>(j));
    }
    size_t dense_merges = 0;
    auto profile = QualityProfile(index, s, t, dense, &dense_merges);
    ASSERT_EQ(profile.size(), dense.size());
    // d(s,t,w) over 5 quality levels has at most 5 finite steps plus the
    // unreachable tail: at most 6 distinct intervals to certify.
    EXPECT_LE(dense_merges, 6u) << "s=" << s << " t=" << t;
    EXPECT_GE(dense_merges, 1u);

    // Re-asking the same threshold 100 times costs exactly one merge.
    std::vector<Quality> repeated(100, 2.0f);
    size_t repeated_merges = 0;
    QualityProfile(index, s, t, repeated, &repeated_merges);
    EXPECT_EQ(repeated_merges, 1u) << "s=" << s << " t=" << t;
  }
}

// The hoisted source-side scatter must be bit-identical to ranking plain
// per-candidate Algorithm 5 calls: same survivors, same order, same
// distances — across random graphs, sources, constraints, and duplicate
// candidates, over span labels and the flat backend alike. The last two
// graphs change this thread's rank space (80 -> 2,000 -> 40 vertices), and
// constrained Dijkstra pins every ranked distance.
TEST(TopKClosestTest, BitIdenticalToNaivePerCandidateRanking) {
  Rng rng(21);
  const std::pair<uint64_t, size_t> graphs[] = {
      {101, 120}, {202, 100}, {303, 80}, {404, 2000}, {505, 40}};
  for (const auto& [seed, n] : graphs) {
    QualityModel quality;
    quality.num_levels = 5;
    QualityGraph g = GenerateRandomConnected(n, 3 * n, quality, seed);
    WcIndex spans = WcIndex::Build(g);
    WcIndex flat = spans;
    flat.Finalize();
    for (int round = 0; round < 30; ++round) {
      Vertex source = static_cast<Vertex>(rng.NextBounded(n));
      Quality w = static_cast<Quality>(rng.NextInRange(1, 5));
      size_t k = 1 + static_cast<size_t>(rng.NextBounded(10));
      std::vector<Vertex> candidates;
      const size_t count = 1 + static_cast<size_t>(rng.NextBounded(20));
      for (size_t i = 0; i < count; ++i) {
        // Includes the source itself and out-of-range ids on purpose.
        candidates.push_back(static_cast<Vertex>(rng.NextBounded(n + 2)));
      }

      for (const WcIndex* index : {&spans, &flat}) {
        auto fast = TopKClosest(*index, source, candidates, w, k);

        // The naive oracle: one Algorithm 5 query per candidate, then the
        // same (dist, vertex) sort and truncation.
        std::vector<RankedCandidate> naive;
        for (Vertex c : candidates) {
          Distance d =
              c == source ? 0 : index->Query(source, c, w, QueryImpl::kMerge);
          if (d != kInfDistance) naive.push_back({c, d});
        }
        std::stable_sort(naive.begin(), naive.end(),
                         [](const RankedCandidate& a,
                            const RankedCandidate& b) {
                           if (a.dist != b.dist) return a.dist < b.dist;
                           return a.vertex < b.vertex;
                         });
        if (naive.size() > k) naive.resize(k);

        ASSERT_EQ(fast.size(), naive.size())
            << "seed=" << seed << " source=" << source << " w=" << w
            << " finalized=" << index->finalized();
        for (size_t i = 0; i < naive.size(); ++i) {
          ASSERT_EQ(fast[i].vertex, naive[i].vertex) << "rank " << i;
          ASSERT_EQ(fast[i].dist, naive[i].dist) << "rank " << i;
          ASSERT_EQ(fast[i].dist,
                    fast[i].vertex == source
                        ? 0
                        : ConstrainedDijkstraUnit(g, source, fast[i].vertex,
                                                  w))
              << "rank " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace wcsd

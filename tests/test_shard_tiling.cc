// Randomized tiling differential test: the sharding correctness story is
// that ANY valid tiling of the vertex range answers bit-identically to the
// unsharded index — a query reads exactly two label slices and hubs are
// global ranks, so where the shard cuts fall can never matter.
//
// For ~50 seeded graphs across four generator families, this suite
// generates random valid tilings (1..8 shards, uneven cuts, singleton and
// even empty shards), serves each through QueryEngine (shard files
// recorded in a manifest, plus the planner's shard sets, both opened with
// OpenManifest), and
// asserts every answer matches the unsharded QueryEngine, single and
// batch. Top-k sources and profiles whose labels sit in different shards
// are checked against Algorithm 5 over the unsharded labels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "labeling/snapshot.h"
#include "search/constrained_dijkstra.h"
#include "serve/query_engine.h"
#include "util/random.h"

namespace wcsd {
namespace {

QualityGraph MakeTilingGraph(size_t family, uint64_t seed) {
  Rng rng(seed * 0x9e3779b9u + family);
  QualityModel quality;
  quality.num_levels = static_cast<int>(rng.NextInRange(2, 6));
  switch (family) {
    case 0: {
      RoadOptions options;
      options.rows = static_cast<size_t>(rng.NextInRange(4, 7));
      options.cols = static_cast<size_t>(rng.NextInRange(4, 7));
      options.quality = quality;
      return GenerateRoadNetwork(options, seed);
    }
    case 1: {
      size_t n = static_cast<size_t>(rng.NextInRange(24, 60));
      return GenerateBarabasiAlbert(
          n, static_cast<size_t>(rng.NextInRange(2, 4)), quality, seed);
    }
    case 2: {
      size_t n = static_cast<size_t>(rng.NextInRange(24, 60));
      return GenerateWattsStrogatz(
          n, static_cast<size_t>(rng.NextInRange(1, 3)), 0.2, quality, seed);
    }
    default: {
      size_t n = static_cast<size_t>(rng.NextInRange(24, 60));
      size_t m = n - 1 + static_cast<size_t>(rng.NextBounded(n));
      return GenerateRandomConnected(n, m, quality, seed);
    }
  }
}

/// A random tiling of [0, n): 1..8 shards with uneven cut points. Repeated
/// cuts produce empty shards; adjacent cuts produce singleton shards —
/// both are legal and must serve correctly.
std::vector<uint64_t> RandomFences(Rng& rng, uint64_t n) {
  size_t shards = 1 + static_cast<size_t>(rng.NextBounded(8));
  std::vector<uint64_t> fences{0, n};
  for (size_t k = 0; k + 1 < shards; ++k) {
    fences.push_back(rng.NextBounded(n + 1));
  }
  std::sort(fences.begin(), fences.end());
  return fences;
}

TEST(ShardTiling, AnyValidTilingAnswersBitIdentically) {
  const std::string dir = testing::TempDir();
  size_t graphs = 0;
  size_t tilings = 0;
  for (size_t family = 0; family < 4; ++family) {
    for (uint64_t gi = 0; gi < 13; ++gi) {
      const uint64_t seed = 7000 + 100 * family + gi;
      QualityGraph g = MakeTilingGraph(family, seed);
      const uint64_t n = g.NumVertices();
      ASSERT_GT(n, 0u);
      ++graphs;

      WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
      const FlatLabelSet& flat = index.flat_labels();

      // Reference engine: the unsharded mmap-served QueryEngine.
      std::string snap = dir + "/tiling_" + std::to_string(seed) + ".wcsnap";
      ASSERT_TRUE(index.SaveSnapshot(snap).ok());
      QueryEngineOptions options;
      options.num_threads = 1;
      auto opened = QueryEngine::Open(snap, options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      const QueryEngine reference = std::move(opened).value();

      // Fixed query workload per graph, shared by every tiling.
      Rng qrng(seed ^ 0x7115u);
      std::vector<BatchQueryInput> queries;
      for (size_t q = 0; q < 24; ++q) {
        queries.push_back(
            {static_cast<Vertex>(qrng.NextBounded(n)),
             static_cast<Vertex>(qrng.NextBounded(n)),
             static_cast<Quality>(qrng.NextInRange(0, 6)) +
                 (qrng.NextBool(0.3) ? 0.5f : 0.0f)});
      }
      // The reference is itself pinned to Algorithm 5 and to constrained
      // Dijkstra, so a fault common to every tiling cannot hide.
      for (const BatchQueryInput& q : queries) {
        const Distance want = reference.Query(q.s, q.t, q.w);
        ASSERT_EQ(want, index.Query(q.s, q.t, q.w, QueryImpl::kMerge))
            << "seed=" << seed << " s=" << q.s << " t=" << q.t;
        ASSERT_EQ(want,
                  q.s == q.t ? 0 : ConstrainedDijkstraUnit(g, q.s, q.t, q.w))
            << "seed=" << seed << " s=" << q.s << " t=" << q.t;
      }
      // Top-k and profile requests span the tiling: every query target is a
      // candidate of every source, and a profile sweeps each pair.
      std::vector<Vertex> candidates;
      for (const BatchQueryInput& q : queries) candidates.push_back(q.t);
      const std::vector<Quality> thresholds{0.0f, 1.5f, 3.0f, 4.5f, 6.0f};

      Rng trng(seed ^ 0xabcdu);
      for (int round = 0; round < 3; ++round) {
        std::vector<uint64_t> fences = RandomFences(trng, n);
        const std::string stem = dir + "/tiling_" + std::to_string(seed) +
                                 "_" + std::to_string(round);
        std::vector<std::string> paths;
        for (size_t k = 0; k + 1 < fences.size(); ++k) {
          std::string path = stem + "_" + std::to_string(k) + ".shard";
          ASSERT_TRUE(
              WriteSnapshotShard(path, flat, fences[k], fences[k + 1], n)
                  .ok());
          paths.push_back(path);
        }
        const std::string manifest = stem + ".manifest";
        auto recorded =
            RecordShardManifest(manifest, paths, IndexContentFingerprint(flat));
        ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
        ++tilings;
        // Checksummed: the shards' chained content CRCs must reproduce the
        // fingerprint however the fences fall.
        SnapshotLoadOptions verify;
        verify.verify_checksums = true;
        auto sharded = QueryEngine::OpenManifest(manifest, options, verify);
        ASSERT_TRUE(sharded.ok())
            << sharded.status().ToString() << " seed=" << seed
            << " round=" << round;
        std::vector<Distance> expected;
        for (const BatchQueryInput& q : queries) {
          Distance want = reference.Query(q.s, q.t, q.w);
          expected.push_back(want);
          EXPECT_EQ(sharded.value().Query(q.s, q.t, q.w), want)
              << "seed=" << seed << " shards=" << paths.size()
              << " s=" << q.s << " t=" << q.t << " w=" << q.w;
        }
        EXPECT_EQ(sharded.value().Batch(queries), expected)
            << "seed=" << seed;
        for (const BatchQueryInput& q : queries) {
          std::vector<RankedCandidate> got;
          ASSERT_EQ(sharded.value().TopKEx(q.s, candidates, q.w, 8, &got),
                    ServeOutcome::kOk);
          std::vector<RankedCandidate> want;
          for (Vertex c : candidates) {
            const Distance d =
                c == q.s ? 0 : index.Query(q.s, c, q.w, QueryImpl::kMerge);
            if (d != kInfDistance) want.push_back({c, d});
          }
          std::stable_sort(want.begin(), want.end(),
                           [](const RankedCandidate& a,
                              const RankedCandidate& b) {
                             return a.dist != b.dist ? a.dist < b.dist
                                                     : a.vertex < b.vertex;
                           });
          if (want.size() > 8) want.resize(8);
          ASSERT_EQ(got.size(), want.size())
              << "seed=" << seed << " source=" << q.s;
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].vertex, want[i].vertex) << "rank " << i;
            EXPECT_EQ(got[i].dist, want[i].dist) << "rank " << i;
          }
          std::vector<ProfilePoint> profile;
          ASSERT_EQ(sharded.value().ProfileEx(q.s, q.t, thresholds, &profile),
                    ServeOutcome::kOk);
          for (const ProfilePoint& p : profile) {
            EXPECT_EQ(p.dist,
                      index.Query(q.s, q.t, p.quality, QueryImpl::kMerge))
                << "seed=" << seed << " s=" << q.s << " t=" << q.t
                << " w=" << p.quality;
          }
        }
        for (const std::string& path : paths) std::remove(path.c_str());
        std::remove(manifest.c_str());
      }

      // The planner + manifest path: a planned shard set must be just
      // another valid tiling.
      ShardPlanOptions plan_options;
      plan_options.num_shards =
          1 + static_cast<size_t>(trng.NextBounded(5));
      auto plan = PlanShards(flat, plan_options);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      auto written = WriteShardSet(dir + "/tiling_" + std::to_string(seed),
                                   flat, plan.value());
      ASSERT_TRUE(written.ok()) << written.status().ToString();
      ++tilings;
      {
        SnapshotLoadOptions verify;
        verify.verify_checksums = true;  // exercise the fingerprint path
        auto sharded = QueryEngine::OpenManifest(
            written.value().manifest_path, options, verify);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
        for (const BatchQueryInput& q : queries) {
          EXPECT_EQ(sharded.value().Query(q.s, q.t, q.w),
                    reference.Query(q.s, q.t, q.w))
              << "manifest seed=" << seed;
        }
      }
      // A cache-enabled sharded engine over the same planned set must stay
      // bit-identical too — across the full query list twice, so repeat
      // queries go through the interval-hit path.
      {
        QueryEngineOptions cached_options = options;
        cached_options.shared_cache =
            std::make_shared<ResultCache>(16 << 10);
        auto cached = QueryEngine::OpenManifest(
            written.value().manifest_path, cached_options);
        ASSERT_TRUE(cached.ok()) << cached.status().ToString();
        ASSERT_NE(cached.value().cache(), nullptr);
        // The cache binds to the tiling-invariant content fingerprint.
        EXPECT_EQ(cached.value().cache()->fingerprint(),
                  IndexContentFingerprint(flat));
        for (int pass = 0; pass < 2; ++pass) {
          for (const BatchQueryInput& q : queries) {
            EXPECT_EQ(cached.value().Query(q.s, q.t, q.w),
                      reference.Query(q.s, q.t, q.w))
                << "cached pass=" << pass << " seed=" << seed;
          }
        }
        EXPECT_GT(cached.value().Stats().cache_hits, 0u);
      }
      std::remove(written.value().manifest_path.c_str());
      for (const std::string& path : written.value().shard_paths) {
        std::remove(path.c_str());
      }
      std::remove(snap.c_str());
    }
  }
  EXPECT_GE(graphs, 50u);
  EXPECT_GE(tilings, 200u);
}

}  // namespace
}  // namespace wcsd

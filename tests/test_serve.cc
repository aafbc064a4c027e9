// Serving-layer tests: QueryEngine correctness over one index and over
// shard tilings against the raw index, and multi-threaded hammering of one
// engine from many caller threads (the configuration the TSan CI job runs).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/shard_manifest.h"
#include "paper_fixtures.h"
#include "serve/query_engine.h"
#include "util/random.h"

namespace wcsd {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

struct ServeFixture {
  QualityGraph graph;
  std::shared_ptr<const WcIndex> index;
  std::vector<BatchQueryInput> workload;
  std::vector<Distance> expected;
};

ServeFixture MakeFixture(size_t n, size_t m, size_t num_queries,
                         uint64_t seed) {
  ServeFixture f;
  QualityModel quality;
  quality.num_levels = 5;
  f.graph = GenerateRandomConnected(n, m, quality, seed);
  WcIndex built = WcIndex::Build(f.graph, WcIndexOptions::Plus());
  built.Finalize();
  f.index = std::make_shared<const WcIndex>(std::move(built));
  Rng rng(seed ^ 0x5eed);
  f.workload.reserve(num_queries);
  f.expected.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    BatchQueryInput q{static_cast<Vertex>(rng.NextBounded(n)),
                      static_cast<Vertex>(rng.NextBounded(n)),
                      static_cast<Quality>(rng.NextInRange(1, 5))};
    f.workload.push_back(q);
    f.expected.push_back(f.index->Query(q.s, q.t, q.w));
  }
  return f;
}

TEST(QueryEngine, SingleAndBatchMatchIndex) {
  ServeFixture f = MakeFixture(120, 320, 600, 17);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    QueryEngineOptions options;
    options.num_threads = threads;
    options.min_chunk = 16;
    QueryEngine engine(f.index, options);
    EXPECT_EQ(engine.num_threads(), threads);
    for (size_t i = 0; i < 100; ++i) {
      const BatchQueryInput& q = f.workload[i];
      ASSERT_EQ(engine.Query(q.s, q.t, q.w), f.expected[i]);
    }
    EXPECT_EQ(engine.Batch(f.workload), f.expected);
  }
}

TEST(QueryEngine, OpenServesSnapshotIdentically) {
  ServeFixture f = MakeFixture(140, 360, 500, 29);
  std::string path = TempPath("engine_open.wcsnap");
  ASSERT_TRUE(f.index->SaveSnapshot(path).ok());
  QueryEngineOptions options;
  options.num_threads = 3;
  auto engine = QueryEngine::Open(path, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(engine.value().index().flat_labels().external());
  EXPECT_EQ(engine.value().Batch(f.workload), f.expected);
  std::remove(path.c_str());
}

// A snapshot with parents opens as an index: §V parents reported, and kPath
// on the parent unwind, never the greedy stepping of order-less tilings.
TEST(QueryEngine, OpenOfFullSnapshotUnwindsParents) {
  QualityGraph g = MakeFigure3Graph();
  WcIndexOptions build;
  build.record_parents = true;
  WcIndex built = WcIndex::Build(g, build);
  built.Finalize();
  std::string path = TempPath("engine_open_parents.wcsnap");
  ASSERT_TRUE(built.SaveSnapshot(path).ok());
  QueryEngineOptions options;
  options.num_threads = 1;
  options.graph = std::make_shared<const QualityGraph>(g);
  auto opened = QueryEngine::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened.value().has_index());
  EXPECT_TRUE(opened.value().ShardBalance().empty());
  QueryEngine in_memory(std::make_shared<const WcIndex>(std::move(built)),
                        options);
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      for (Quality w : {1.0f, 3.0f, 5.0f}) {
        std::vector<Vertex> a, b;
        ASSERT_EQ(opened.value().PathEx(s, t, w, &a), ServeOutcome::kOk);
        ASSERT_EQ(in_memory.PathEx(s, t, w, &b), ServeOutcome::kOk);
        EXPECT_EQ(a, b) << s << "->" << t << " w=" << w;
      }
    }
  }
  const QueryEngineStats open_stats = opened.value().Stats();
  EXPECT_EQ(open_stats.has_parents, 1u);
  EXPECT_EQ(open_stats.path_fallbacks, 0u);
  std::remove(path.c_str());
}

TEST(QueryEngine, StatsCountServedQueries) {
  ServeFixture f = MakeFixture(80, 200, 400, 31);
  QueryEngineOptions options;
  options.num_threads = 4;
  options.min_chunk = 8;
  QueryEngine engine(f.index, options);
  engine.Batch(f.workload);
  engine.Batch(f.workload);
  for (size_t i = 0; i < 25; ++i) {
    const BatchQueryInput& q = f.workload[i];
    engine.Query(q.s, q.t, q.w);
  }
  QueryEngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries, 2 * f.workload.size() + 25);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_GT(stats.reachable, 0u);
}

// The TSan target: one engine, many caller threads, overlapping batches
// and single queries, all against precomputed expected answers.
TEST(QueryEngine, ConcurrentHammer) {
  ServeFixture f = MakeFixture(120, 320, 800, 37);
  QueryEngineOptions options;
  options.num_threads = 4;
  options.min_chunk = 16;
  QueryEngine engine(f.index, options);

  constexpr size_t kCallers = 8;
  constexpr size_t kRoundsPerCaller = 6;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      // Overlapping slices: caller c batches a rotated window of the
      // shared workload and issues singles interleaved.
      for (size_t round = 0; round < kRoundsPerCaller; ++round) {
        size_t shift = (c * 131 + round * 17) % f.workload.size();
        std::vector<BatchQueryInput> slice;
        std::vector<Distance> expected;
        slice.reserve(500);
        for (size_t i = 0; i < 500; ++i) {
          size_t j = (shift + i) % f.workload.size();
          slice.push_back(f.workload[j]);
          expected.push_back(f.expected[j]);
        }
        if (engine.Batch(slice) != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        for (size_t i = 0; i < 50; ++i) {
          size_t j = (shift + i * 7) % f.workload.size();
          const BatchQueryInput& q = f.workload[j];
          if (engine.Query(q.s, q.t, q.w) != f.expected[j]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  QueryEngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries, kCallers * kRoundsPerCaller * (500 + 50));
  EXPECT_EQ(stats.batches, kCallers * kRoundsPerCaller);
}

// Cuts `index` into `shards` even vertex ranges (empty ones when there are
// more shards than vertices) and records them in <stem>.manifest.
WrittenShardSet WriteShards(const WcIndex& index, size_t shards,
                            const std::string& stem) {
  const uint64_t n = index.NumVertices();
  WrittenShardSet set;
  for (size_t k = 0; k < shards; ++k) {
    uint64_t begin = n * k / shards;
    uint64_t end = n * (k + 1) / shards;
    std::string path = TempPath(stem + ".shard" + std::to_string(k));
    EXPECT_TRUE(
        WriteSnapshotShard(path, index.flat_labels(), begin, end, n).ok());
    set.shard_paths.push_back(path);
  }
  set.manifest_path = TempPath(stem + ".manifest");
  auto recorded =
      RecordShardManifest(set.manifest_path, set.shard_paths,
                          IndexContentFingerprint(index.flat_labels()));
  EXPECT_TRUE(recorded.ok()) << recorded.status().ToString();
  return set;
}

void RemoveShards(const WrittenShardSet& set) {
  for (const std::string& p : set.shard_paths) std::remove(p.c_str());
  std::remove(set.manifest_path.c_str());
}

TEST(ShardedEngine, MatchesUnshardedAcrossShardCounts) {
  ServeFixture f = MakeFixture(130, 340, 600, 41);
  for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
    WrittenShardSet set =
        WriteShards(*f.index, shards, "match" + std::to_string(shards));
    QueryEngineOptions options;
    options.num_threads = 2;
    options.min_chunk = 32;
    auto engine = QueryEngine::OpenManifest(set.manifest_path, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(engine.value().num_shards(), shards);
    EXPECT_EQ(engine.value().NumVertices(), f.index->NumVertices());
    EXPECT_EQ(engine.value().Batch(f.workload), f.expected);
    for (size_t i = 0; i < 100; ++i) {
      const BatchQueryInput& q = f.workload[i];
      ASSERT_EQ(engine.value().Query(q.s, q.t, q.w), f.expected[i]);
    }
    RemoveShards(set);
  }
}

// More shards than vertices produces empty shards [x, x); a manifest
// records and serves them like any other range.
TEST(ShardedEngine, EmptyShardsServeThroughTheirManifest) {
  QualityModel quality;
  QualityGraph g = GenerateRandomConnected(3, 3, quality, 71);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  index.Finalize();
  WrittenShardSet set = WriteShards(index, 5, "tiny");
  auto engine = QueryEngine::OpenManifest(set.manifest_path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine.value().NumVertices(), 3u);
  EXPECT_EQ(engine.value().num_shards(), 5u);
  for (Vertex s = 0; s < 3; ++s) {
    for (Vertex t = 0; t < 3; ++t) {
      EXPECT_EQ(engine.value().Query(s, t, 1.0f), index.Query(s, t, 1.0f));
    }
  }
  RemoveShards(set);
}

// A manifest records only files that tile one index.
TEST(ShardedEngine, RecordingRejectsIncompleteOrInconsistentShardSets) {
  ServeFixture f = MakeFixture(90, 230, 10, 43);
  WrittenShardSet set = WriteShards(*f.index, 3, "reject");
  const std::vector<std::string>& paths = set.shard_paths;
  const uint64_t fingerprint = IndexContentFingerprint(f.index->flat_labels());
  const std::string manifest = TempPath("reject_bad.manifest");

  // Missing middle shard: gap detected.
  auto gap = RecordShardManifest(manifest, {paths[0], paths[2]}, fingerprint);
  EXPECT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().code(), StatusCode::kInvalidArgument);

  // Duplicate shard: overlap detected.
  EXPECT_FALSE(RecordShardManifest(
                   manifest, {paths[0], paths[1], paths[1], paths[2]},
                   fingerprint)
                   .ok());

  // Shard of a different index: totals disagree.
  ServeFixture other = MakeFixture(60, 150, 10, 44);
  std::string foreign = TempPath("foreign.shard");
  ASSERT_TRUE(WriteSnapshotShard(foreign, other.index->flat_labels(), 0, 60,
                                 60)
                  .ok());
  EXPECT_FALSE(
      RecordShardManifest(manifest, {paths[0], paths[1], foreign}, fingerprint)
          .ok());

  // No shards at all.
  EXPECT_FALSE(RecordShardManifest(manifest, {}, fingerprint).ok());

  // None of the refusals left a manifest behind.
  EXPECT_FALSE(QueryEngine::OpenManifest(manifest).ok());
  RemoveShards(set);
  std::remove(foreign.c_str());
}

TEST(ShardedEngine, ConcurrentHammer) {
  ServeFixture f = MakeFixture(110, 280, 600, 47);
  WrittenShardSet set = WriteShards(*f.index, 4, "hammer");
  QueryEngineOptions options;
  options.num_threads = 3;
  options.min_chunk = 16;
  auto opened = QueryEngine::OpenManifest(set.manifest_path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const QueryEngine& engine = opened.value();

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < 6; ++c) {
    callers.emplace_back([&, c] {
      for (size_t round = 0; round < 5; ++round) {
        size_t shift = (c * 97 + round * 13) % f.workload.size();
        std::vector<BatchQueryInput> slice;
        std::vector<Distance> expected;
        for (size_t i = 0; i < 300; ++i) {
          size_t j = (shift + i) % f.workload.size();
          slice.push_back(f.workload[j]);
          expected.push_back(f.expected[j]);
        }
        if (engine.Batch(slice) != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  RemoveShards(set);
}

TEST(BatchQueryReroute, MatchesSerialAcrossThreadCounts) {
  ServeFixture f = MakeFixture(100, 260, 500, 53);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    QueryEngineOptions options;
    options.num_threads = threads;
    EXPECT_EQ(QueryEngine(f.index, options).Batch(f.workload), f.expected)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace wcsd

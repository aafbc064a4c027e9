// The dominance-aware result cache (serve/result_cache.h): interval
// semantics, undirected key normalization, replacement under a fixed
// budget, fingerprint invalidation, engine wiring (one-index and sharded
// engines answer bit-identically with the cache on), the reload handoff
// (OpenNextGeneration, net/swap_service.h), and a concurrent
// hit/insert/invalidate hammer for the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/dynamic_wc_index.h"
#include "core/wc_index.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "labeling/delta.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "labeling/snapshot.h"
#include "net/swap_service.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "util/random.h"

namespace wcsd {
namespace {

IntervalQueryResult MakeInterval(Distance dist, Quality lo, Quality hi) {
  IntervalQueryResult r;
  r.dist = dist;
  r.w_lo = lo;
  r.w_hi = hi;
  return r;
}

TEST(ResultCache, IntervalHitSemantics) {
  ResultCache cache(1 << 20);
  constexpr uint64_t kFp = 0xf00d;
  cache.Rebind(kFp);
  Distance d = 0;

  EXPECT_FALSE(cache.LookupBound(3, 7, 2.0f, kFp, &d));
  cache.InsertBound(3, 7, MakeInterval(5, 1.0f, 3.0f), kFp);

  // Any constraint inside [1, 3] hits — not just the inserted w.
  EXPECT_TRUE(cache.LookupBound(3, 7, 2.0f, kFp, &d));
  EXPECT_EQ(d, 5u);
  EXPECT_TRUE(cache.LookupBound(3, 7, 1.0f, kFp, &d));
  EXPECT_TRUE(cache.LookupBound(3, 7, 3.0f, kFp, &d));
  EXPECT_TRUE(cache.LookupBound(3, 7, 2.5f, kFp, &d));

  // Outside the interval misses; other pairs miss.
  EXPECT_FALSE(cache.LookupBound(3, 7, 0.5f, kFp, &d));
  EXPECT_FALSE(cache.LookupBound(3, 7, 3.5f, kFp, &d));
  EXPECT_FALSE(cache.LookupBound(3, 8, 2.0f, kFp, &d));

  // The graph is undirected: (t, s) shares the entry.
  EXPECT_TRUE(cache.LookupBound(7, 3, 2.0f, kFp, &d));
  EXPECT_EQ(d, 5u);

  // Unbounded intervals (unreachable pairs, s == t) work, including +inf.
  cache.InsertBound(1, 2, MakeInterval(kInfDistance, 4.0f, kInfQuality), kFp);
  EXPECT_TRUE(cache.LookupBound(1, 2, kInfQuality, kFp, &d));
  EXPECT_EQ(d, kInfDistance);
  EXPECT_TRUE(cache.LookupBound(1, 2, 1e30f, kFp, &d));
  EXPECT_FALSE(cache.LookupBound(1, 2, 3.5f, kFp, &d));

  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 7u);
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ResultCache, MultipleDisjointIntervalsPerPair) {
  ResultCache cache(1 << 20);
  cache.Rebind(1);
  Distance d = 0;
  // Three steps of one pair's step function.
  cache.InsertBound(10, 20, MakeInterval(4, -kInfQuality, 1.0f), 1);
  cache.InsertBound(10, 20, MakeInterval(6, 1.5f, 3.0f), 1);
  cache.InsertBound(10, 20, MakeInterval(9, 3.5f, kInfQuality), 1);
  EXPECT_TRUE(cache.LookupBound(10, 20, 0.0f, 1, &d));
  EXPECT_EQ(d, 4u);
  EXPECT_TRUE(cache.LookupBound(10, 20, 2.0f, 1, &d));
  EXPECT_EQ(d, 6u);
  EXPECT_TRUE(cache.LookupBound(10, 20, 100.0f, 1, &d));
  EXPECT_EQ(d, 9u);

  // Re-inserting a present interval is a no-op (still one insert each).
  cache.InsertBound(10, 20, MakeInterval(6, 1.5f, 3.0f), 1);
  EXPECT_EQ(cache.stats().inserts, 3u);

  // A fourth distinct interval displaces one (kIntervalsPerSlot = 3).
  cache.InsertBound(10, 20, MakeInterval(7, 3.2f, 3.4f), 1);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.LookupBound(10, 20, 3.3f, 1, &d));
  EXPECT_EQ(d, 7u);
}

TEST(ResultCache, RebindInvalidatesWholesale) {
  ResultCache cache(1 << 20);
  cache.Rebind(1);
  Distance d = 0;
  cache.InsertBound(3, 7, MakeInterval(5, 1.0f, 3.0f), 1);
  ASSERT_TRUE(cache.LookupBound(3, 7, 2.0f, 1, &d));

  cache.Rebind(1);  // same identity: contents survive
  EXPECT_TRUE(cache.LookupBound(3, 7, 2.0f, 1, &d));

  cache.Rebind(2);  // new snapshot identity: wiped
  EXPECT_EQ(cache.fingerprint(), 2u);
  EXPECT_FALSE(cache.LookupBound(3, 7, 2.0f, 2, &d));
  // Dropped, not merely unreadable: binding back to the old identity
  // finds nothing either.
  cache.Rebind(1);
  EXPECT_FALSE(cache.LookupBound(3, 7, 2.0f, 1, &d));
}

// ------------------------------------------------- scoped invalidation
//
// InvalidateDelta must drop exactly the entries a delta could have
// changed: intervals whose constraint range overlaps the delta's impact
// window, optionally narrowed further by the coupled-reachability probe.
// Entries it keeps must keep HITTING (the counters prove retention).

TEST(ResultCache, InvalidateDeltaQualityScope) {
  ResultCache cache(1 << 20);
  cache.Rebind(1);
  Distance d = 0;
  // Pair (3, 7): one interval strictly above the impact window, one
  // overlapping it. Pair (4, 9): entirely above the window.
  cache.InsertBound(3, 7, MakeInterval(5, 3.0f, 5.0f), 1);
  cache.InsertBound(3, 7, MakeInterval(2, 1.0f, 2.5f), 1);
  cache.InsertBound(4, 9, MakeInterval(7, 4.0f, kInfQuality), 1);

  // A delta touching edge {100, 101} with qualities up to 2: only
  // constraints w <= 2 can change.
  DeltaImpact impact{100, 101, -kInfQuality, 2.0f};
  size_t dropped = cache.InvalidateDelta(2, {&impact, 1});
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(cache.fingerprint(), 2u);

  // The overlapping interval is gone; the out-of-window intervals hit.
  EXPECT_FALSE(cache.LookupBound(3, 7, 2.0f, 2, &d));
  EXPECT_TRUE(cache.LookupBound(3, 7, 4.0f, 2, &d));
  EXPECT_EQ(d, 5u);
  EXPECT_TRUE(cache.LookupBound(4, 9, 10.0f, 2, &d));
  EXPECT_EQ(d, 7u);
  EXPECT_EQ(cache.stats().hits, 2u);

  // An upgrade q_old -> q_new only touches (q_old, q_new]: an interval
  // wholly below the window survives, while the two intervals straddling
  // it ((3,7)[3,5] and (4,9)[4,inf]) are dropped.
  cache.InsertBound(5, 6, MakeInterval(3, 1.0f, 2.0f), 2);
  DeltaImpact upgrade{100, 101, 3.0f, 4.0f};
  EXPECT_EQ(cache.InvalidateDelta(3, {&upgrade, 1}), 2u);
  EXPECT_TRUE(cache.LookupBound(5, 6, 1.5f, 3, &d));
  EXPECT_FALSE(cache.LookupBound(3, 7, 4.0f, 3, &d));
}

TEST(ResultCache, InvalidateDeltaCoupledScope) {
  ResultCache cache(1 << 20);
  cache.Rebind(1);
  Distance d = 0;
  cache.InsertBound(3, 7, MakeInterval(5, 1.0f, 3.0f), 1);
  cache.InsertBound(4, 9, MakeInterval(6, 1.0f, 3.0f), 1);

  // Both intervals overlap the impact window, but the coupled probe says
  // only pair (3, 7) can reach the changed edge from both sides. Keys are
  // normalized s <= t, so the probe sees the normalized pair.
  DeltaImpact impact{100, 101, -kInfQuality, 5.0f};
  size_t dropped = cache.InvalidateDelta(
      2, {&impact, 1},
      [](Vertex s, Vertex t, const DeltaImpact& im, Quality w_test) {
        EXPECT_EQ(im.u, 100u);
        EXPECT_GE(w_test, 1.0f);  // max(iv.w_lo, im.q_lo)
        return s == 3 && t == 7;
      });
  EXPECT_EQ(dropped, 1u);
  EXPECT_FALSE(cache.LookupBound(3, 7, 2.0f, 2, &d));
  EXPECT_TRUE(cache.LookupBound(4, 9, 2.0f, 2, &d));
  EXPECT_EQ(d, 6u);
}

TEST(ResultCache, InsertBoundDropsStaleGenerations) {
  ResultCache cache(1 << 20);
  cache.Rebind(7);
  Distance d = 0;

  // An insert bound to a stale fingerprint is dropped silently — this is
  // the race where an old-generation engine finishes a query after the
  // cache moved on.
  cache.InsertBound(3, 7, MakeInterval(5, 1.0f, 3.0f), /*expected=*/6);
  EXPECT_FALSE(cache.LookupBound(3, 7, 2.0f, 7, &d));

  // Bound to the live fingerprint it lands.
  cache.InsertBound(3, 7, MakeInterval(5, 1.0f, 3.0f), /*expected=*/7);
  EXPECT_TRUE(cache.LookupBound(3, 7, 2.0f, 7, &d));
  EXPECT_EQ(d, 5u);
}

TEST(ResultCache, TinyBudgetReplacesInsteadOfGrowing) {
  // The smallest cache: one shard, one probe window of slots. Every pair
  // is inserted twice, so second-chance admission lets each displacing
  // insert evict (the policy under test here is replacement, not
  // admission).
  ResultCache cache(1);
  cache.Rebind(1);
  EXPECT_EQ(cache.num_shards(), 1u);
  EXPECT_EQ(cache.slots_per_shard(), ResultCache::kProbeWindow);
  EXPECT_LE(cache.MemoryBytes(), 4096u);

  // Insert far more pairs than fit; the cache must stay within budget and
  // keep answering correctly for whatever it retained.
  Distance d = 0;
  for (Vertex i = 0; i < 256; ++i) {
    for (int touch = 0; touch < 2; ++touch) {
      cache.InsertBound(i, i + 1000, MakeInterval(i, 1.0f, 3.0f), 1);
    }
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  size_t retained = 0;
  for (Vertex i = 0; i < 256; ++i) {
    if (cache.LookupBound(i, i + 1000, 2.0f, 1, &d)) {
      EXPECT_EQ(d, Distance{i});
      ++retained;
    }
  }
  EXPECT_GT(retained, 0u);
  EXPECT_LE(retained, cache.num_shards() * cache.slots_per_shard());
}

TEST(ResultCache, SecondChanceAdmissionProtectsResidents) {
  // One shard, four slots, window four: every key probes every slot, so a
  // fifth pair can only land by displacing a resident.
  ResultCache cache(1);
  cache.Rebind(1);
  ASSERT_EQ(cache.num_shards(), 1u);
  ASSERT_EQ(cache.slots_per_shard(), ResultCache::kProbeWindow);
  Distance d = 0;
  for (Vertex i = 0; i < 4; ++i) {
    cache.InsertBound(i, i + 1000, MakeInterval(i, 1.0f, 3.0f), 1);
  }
  for (Vertex i = 0; i < 4; ++i) {
    ASSERT_TRUE(cache.LookupBound(i, i + 1000, 2.0f, 1, &d));
  }

  // First touch of a displacing key: refused, residents untouched.
  cache.InsertBound(50, 1050, MakeInterval(99, 1.0f, 3.0f), 1);
  EXPECT_EQ(cache.stats().admission_rejects, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_FALSE(cache.LookupBound(50, 1050, 2.0f, 1, &d));
  for (Vertex i = 0; i < 4; ++i) {
    EXPECT_TRUE(cache.LookupBound(i, i + 1000, 2.0f, 1, &d));
  }

  // Second touch: the key proved it recurs; admitted by displacement.
  cache.InsertBound(50, 1050, MakeInterval(99, 1.0f, 3.0f), 1);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.LookupBound(50, 1050, 2.0f, 1, &d));
  EXPECT_EQ(d, 99u);

  // Re-inserting a resident key never needs admission (new interval for a
  // cached pair), and an empty-slot insert is always admitted.
  ResultCache roomy(1 << 20);
  roomy.Rebind(1);
  roomy.InsertBound(1, 2, MakeInterval(5, 1.0f, 2.0f), 1);
  roomy.InsertBound(1, 2, MakeInterval(7, 3.0f, 4.0f), 1);
  EXPECT_EQ(roomy.stats().admission_rejects, 0u);
  EXPECT_TRUE(roomy.LookupBound(1, 2, 3.5f, 1, &d));
  EXPECT_EQ(d, 7u);
}

// --------------------------------------------- generation-bound lookups
//
// Regression for the cross-generation readback bug: the lookup was not
// fingerprint-bound, so after InvalidateDelta an old-generation engine
// sharing the cache could read an entry the NEW generation inserted for a
// delta-touched pair — answering from the wrong index. LookupBound checks
// the slot's certified fingerprint under the same slot-version protocol.

TEST(ResultCache, LookupBoundRefusesOtherGenerations) {
  ResultCache cache(1 << 20);
  cache.Rebind(1);
  Distance d = 0;
  cache.InsertBound(3, 7, MakeInterval(5, 1.0f, 3.0f), 1);

  EXPECT_TRUE(cache.LookupBound(3, 7, 2.0f, /*expected=*/1, &d));
  EXPECT_EQ(d, 5u);
  // Same entry, wrong generation: refused.
  EXPECT_FALSE(cache.LookupBound(3, 7, 2.0f, /*expected=*/2, &d));
}

TEST(ResultCache, CrossGenerationReadbackAfterInvalidateDelta) {
  ResultCache cache(1 << 20);
  cache.Rebind(1);
  Distance d = 0;
  // Old generation caches two pairs; the delta touches only (3, 7).
  cache.InsertBound(3, 7, MakeInterval(5, 1.0f, 3.0f), /*expected=*/1);
  cache.InsertBound(4, 9, MakeInterval(6, 1.0f, 3.0f), /*expected=*/1);

  DeltaImpact impact{100, 101, -kInfQuality, kInfQuality};
  size_t dropped = cache.InvalidateDelta(
      2, {&impact, 1},
      [](Vertex s, Vertex t, const DeltaImpact&, Quality) {
        return s == 3 && t == 7;
      });
  EXPECT_EQ(dropped, 1u);

  // The new generation recomputes the delta-touched pair — the delta
  // changed its answer from 5 to 42 — and caches it.
  cache.InsertBound(3, 7, MakeInterval(42, 1.0f, 3.0f), /*expected=*/2);

  // The OLD generation must not read the new generation's entry for the
  // delta-touched pair (it would serve distance 42 from an index where the
  // answer is 5), nor the survivor (re-certified for generation 2 only).
  EXPECT_FALSE(cache.LookupBound(3, 7, 2.0f, /*expected=*/1, &d));
  EXPECT_FALSE(cache.LookupBound(4, 9, 2.0f, /*expected=*/1, &d));

  // The new generation reads both: the fresh entry and the survivor.
  EXPECT_TRUE(cache.LookupBound(3, 7, 2.0f, /*expected=*/2, &d));
  EXPECT_EQ(d, 42u);
  EXPECT_TRUE(cache.LookupBound(4, 9, 2.0f, /*expected=*/2, &d));
  EXPECT_EQ(d, 6u);
}

// ------------------------------------------------------- engine wiring

QualityGraph MakeCacheGraph(uint64_t seed) {
  QualityModel quality;
  quality.num_levels = 5;
  return GenerateBarabasiAlbert(60, 3, quality, seed);
}

std::vector<BatchQueryInput> MakeCacheWorkload(size_t n, size_t count,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchQueryInput> queries;
  for (size_t i = 0; i < count; ++i) {
    queries.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Quality>(rng.NextInRange(0, 6)) +
                           (rng.NextBool(0.3) ? 0.5f : 0.0f)});
  }
  return queries;
}

TEST(ResultCache, CachedQueryEngineAnswersBitIdentically) {
  QualityGraph g = MakeCacheGraph(99);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  auto shared = std::make_shared<const WcIndex>(std::move(index));
  const size_t n = shared->NumVertices();

  QueryEngineOptions plain_options;
  plain_options.num_threads = 1;
  QueryEngine plain(shared, plain_options);

  QueryEngineOptions cached_options = plain_options;
  cached_options.shared_cache = std::make_shared<ResultCache>(64 << 10);
  QueryEngine cached(shared, cached_options);
  ASSERT_NE(cached.cache(), nullptr);
  ASSERT_EQ(cached.cache()->fingerprint(),
            IndexContentFingerprint(shared->flat_labels()));

  // Two passes over a repeating workload: the second is mostly hits and
  // must still be bit-identical.
  auto queries = MakeCacheWorkload(n, 300, 5);
  const std::vector<BatchQueryInput> repeats(queries.begin(),
                                             queries.begin() + 150);
  queries.insert(queries.end(), repeats.begin(), repeats.end());
  for (int pass = 0; pass < 2; ++pass) {
    for (const BatchQueryInput& q : queries) {
      ASSERT_EQ(cached.Query(q.s, q.t, q.w), plain.Query(q.s, q.t, q.w))
          << "pass=" << pass << " s=" << q.s << " t=" << q.t
          << " w=" << q.w;
    }
    ASSERT_EQ(cached.Batch(queries), plain.Batch(queries)) << "pass=" << pass;
  }

  QueryEngineStats stats = cached.Stats();
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_inserts, 0u);
  // Degenerate queries bypass the cache entirely.
  Distance self = cached.Query(3, 3, 1.0f);
  Distance oob = cached.Query(0, static_cast<Vertex>(n + 7), 1.0f);
  EXPECT_EQ(self, 0u);
  EXPECT_EQ(oob, kInfDistance);
  EXPECT_EQ(cached.Stats().cache_hits + cached.Stats().cache_misses,
            stats.cache_hits + stats.cache_misses);
  // An uncached engine reports zero cache counters.
  EXPECT_EQ(plain.Stats().cache_hits, 0u);
  EXPECT_EQ(plain.Stats().cache_misses, 0u);
}

TEST(ResultCache, CachedShardedEngineAnswersBitIdentically) {
  QualityGraph g = MakeCacheGraph(123);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  const uint64_t n = index.NumVertices();

  ShardPlanOptions thirds;
  thirds.num_shards = 3;
  thirds.even_vertex = true;
  auto plan = PlanShards(index.flat_labels(), thirds);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto written = WriteShardSet(testing::TempDir() + "/cache_shards",
                               index.flat_labels(), plan.value());
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  const std::string& manifest = written.value().manifest_path;

  QueryEngineOptions plain_options;
  plain_options.num_threads = 1;
  auto plain = QueryEngine::OpenManifest(manifest, plain_options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  QueryEngineOptions cached_options = plain_options;
  cached_options.shared_cache = std::make_shared<ResultCache>(64 << 10);
  // Checksummed open: the engine chains the shards' content CRCs and
  // refuses the set unless they reproduce the manifest's fingerprint.
  SnapshotLoadOptions checked;
  checked.verify_checksums = true;
  auto cached = QueryEngine::OpenManifest(manifest, cached_options, checked);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  ASSERT_NE(cached.value().cache(), nullptr);
  // The sharded fingerprint is tiling-invariant: it must equal the
  // unsharded index's content fingerprint.
  EXPECT_EQ(cached.value().cache()->fingerprint(),
            IndexContentFingerprint(index.flat_labels()));

  auto queries = MakeCacheWorkload(n, 400, 17);
  for (int pass = 0; pass < 2; ++pass) {
    for (const BatchQueryInput& q : queries) {
      ASSERT_EQ(cached.value().Query(q.s, q.t, q.w),
                plain.value().Query(q.s, q.t, q.w))
          << "pass=" << pass << " s=" << q.s << " t=" << q.t << " w=" << q.w;
    }
    ASSERT_EQ(cached.value().Batch(queries), plain.value().Batch(queries));
  }
  EXPECT_GT(cached.value().Stats().cache_hits, 0u);

  for (const std::string& path : written.value().shard_paths) {
    std::remove(path.c_str());
  }
  std::remove(manifest.c_str());
}

// --------------------------------------------------- concurrency hammer

// Raw cache hammered from many threads — lookups, inserts, and periodic
// wholesale invalidation racing each other. Run under the TSan CI job.
TEST(ResultCache, ConcurrentHitInsertInvalidateHammer) {
  ResultCache cache(32 << 10);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wrong{0};

  auto worker = [&](uint64_t seed) {
    Rng rng(seed);
    Distance d = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(128));
      Vertex t = static_cast<Vertex>(rng.NextBounded(128));
      Quality w = static_cast<Quality>(rng.NextInRange(0, 8));
      // The "index" the hammer simulates: dist = s ^ t, valid on a fixed
      // interval — so any hit can be verified against ground truth. The
      // generation read here may be rebound before the insert lands.
      const uint64_t fp = cache.fingerprint();
      if (cache.LookupBound(s, t, w, fp, &d)) {
        if (d != (s ^ t)) wrong.fetch_add(1, std::memory_order_relaxed);
      } else {
        cache.InsertBound(s, t, MakeInterval(s ^ t, -kInfQuality, kInfQuality),
                          fp);
      }
    }
  };

  std::vector<std::thread> threads;
  for (uint64_t i = 0; i < 4; ++i) threads.emplace_back(worker, 100 + i);
  std::thread invalidator([&] {
    for (int round = 0; round < 50; ++round) {
      cache.Rebind(static_cast<uint64_t>(round));
      std::this_thread::yield();
      (void)cache.stats();  // stats() races the workers too
    }
  });
  invalidator.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  ResultCacheStats stats = cache.stats();
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

// Seqlock torn-read hammer: the lock-free read path must never observe a
// half-written slot. Writers keep overwriting the SAME few slots with
// self-consistent (interval, distance) tuples — interval [v, v] paired
// with distance v — while lock-free readers assert that any hit returns
// the distance matching the constraint it asked. A torn read would stitch
// w_lo/w_hi from one write to dist from another and trip the assertion;
// the all-atomic slot fields plus the version protocol are what TSan
// checks here (run under the TSan CI job).
TEST(ResultCache, SeqlockReaderTornReadHammer) {
  ResultCache cache(1 << 20);
  cache.Rebind(1);
  constexpr Vertex kPairs = 8;
  constexpr uint32_t kValues = 64;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};

  auto writer = [&](uint64_t seed) {
    Rng rng(seed);
    while (!stop.load(std::memory_order_relaxed)) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(kPairs));
      uint32_t v = static_cast<uint32_t>(rng.NextBounded(kValues));
      // Same slot, ever-changing payload: interval [v, v] certifies
      // distance v. Writers rotate through a slot's three intervals, so
      // the same interval index is overwritten constantly.
      cache.InsertBound(s, s + 100,
                        MakeInterval(v, static_cast<Quality>(v),
                                     static_cast<Quality>(v)),
                        1);
    }
  };
  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    Distance d = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(kPairs));
      uint32_t v = static_cast<uint32_t>(rng.NextBounded(kValues));
      Quality w = static_cast<Quality>(v);
      if (cache.LookupBound(s, s + 100, w, 1, &d) && d != Distance{v}) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> threads;
  for (uint64_t i = 0; i < 2; ++i) threads.emplace_back(writer, 200 + i);
  for (uint64_t i = 0; i < 4; ++i) threads.emplace_back(reader, 300 + i);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0u);
  ResultCacheStats stats = cache.stats();
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.hits, 0u);
}

// A cache-enabled engine hammered by concurrent batches from many caller
// threads: every result must still be bit-identical to the uncached
// reference. Run under the TSan CI job.
TEST(ResultCache, ConcurrentCachedBatchesStayCorrect) {
  QualityGraph g = MakeCacheGraph(7);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  auto shared = std::make_shared<const WcIndex>(std::move(index));
  const size_t n = shared->NumVertices();

  QueryEngineOptions options;
  options.num_threads = 3;
  options.shared_cache = std::make_shared<ResultCache>(64 << 10);
  QueryEngine cached(shared, options);
  QueryEngineOptions plain_options;
  plain_options.num_threads = 1;
  QueryEngine plain(shared, plain_options);

  auto queries = MakeCacheWorkload(n, 512, 29);
  const std::vector<Distance> expected = plain.Batch(queries);

  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 8; ++round) {
        if (cached.Batch(queries) != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(cached.Stats().cache_hits, 0u);
}

// ------------------------------------------------------- reload handoff
//
// OpenNextGeneration (net/swap_service.h) settles the shared cache on
// every reload. Generation B upgrades one edge of generation A, and the
// delta log records that upgrade against A's fingerprint.

struct HandoffFixture {
  std::shared_ptr<const WcIndex> index_a;
  std::shared_ptr<const WcIndex> index_b;
  DeltaLog delta;
  std::vector<BatchQueryInput> queries;
};

HandoffFixture MakeHandoffFixture() {
  HandoffFixture f;
  QualityGraph g = MakeCacheGraph(314);
  f.index_a = std::make_shared<const WcIndex>(
      WcIndex::Build(g, WcIndexOptions::Plus()));
  // A tight impact window, so most cached intervals survive the scope.
  DeltaRecord upgrade;
  upgrade.op = static_cast<uint8_t>(DeltaOp::kUpgrade);
  upgrade.u = 0;
  upgrade.v = g.Neighbors(0)[0].to;
  upgrade.old_quality = g.EdgeQuality(upgrade.u, upgrade.v);
  upgrade.quality = 5.0f;
  EXPECT_LT(upgrade.old_quality, upgrade.quality);
  DynamicWcIndex dyn(g);
  dyn.InsertEdge(upgrade.u, upgrade.v, upgrade.quality);
  f.index_b = std::make_shared<const WcIndex>(
      WcIndex::Build(dyn.Snapshot(), WcIndexOptions::Plus()));
  f.delta.base_fingerprint = IndexContentFingerprint(f.index_a->flat_labels());
  f.delta.batches.push_back(DeltaBatch{{upgrade}});
  f.queries = MakeCacheWorkload(f.index_a->NumVertices(), 400, 777);
  return f;
}

EngineOpener OpenIndex(std::shared_ptr<const WcIndex> index) {
  return [index](const QueryEngineOptions& options) -> Result<QueryEngine> {
    return QueryEngine(index, options);
  };
}

QueryEngineOptions CachedOptions() {
  QueryEngineOptions options;
  options.num_threads = 1;
  options.shared_cache = std::make_shared<ResultCache>(1 << 20);
  return options;
}

void Fill(const QueryEngine& engine, const HandoffFixture& f) {
  for (const BatchQueryInput& q : f.queries) engine.Query(q.s, q.t, q.w);
}

/// The next generation answers every queried pair as an uncached engine
/// over `index` does.
void ExpectAnswersOf(const QueryEngine& engine,
                     std::shared_ptr<const WcIndex> index,
                     const HandoffFixture& f) {
  QueryEngineOptions plain_options;
  plain_options.num_threads = 1;
  QueryEngine plain(std::move(index), plain_options);
  for (const BatchQueryInput& q : f.queries) {
    ASSERT_EQ(engine.Query(q.s, q.t, q.w), plain.Query(q.s, q.t, q.w))
        << "s=" << q.s << " t=" << q.t << " w=" << q.w;
  }
}

// A delta written against the serving generation scopes the cache exactly
// as InvalidateDelta with the whole-delta coupling does on an identically
// filled twin, the survivors keep hitting, and generation B answers as an
// uncached B engine.
TEST(ReloadHandoff, DeltaWrittenAgainstCurrentScopesTheCache) {
  const HandoffFixture f = MakeHandoffFixture();
  const QueryEngineOptions options = CachedOptions();
  const QueryEngineOptions twin_options = CachedOptions();
  QueryEngine engine_a(f.index_a, options);
  QueryEngine twin_a(f.index_a, twin_options);
  Fill(engine_a, f);
  Fill(twin_a, f);
  ASSERT_GT(options.shared_cache->stats().inserts, 0u);

  auto next =
      OpenNextGeneration(engine_a, &f.delta, options, OpenIndex(f.index_b));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  const QueryEngine& engine_b = *next.value().engine;
  ASSERT_NE(engine_b.cache_fingerprint(), engine_a.cache_fingerprint());
  EXPECT_EQ(next.value().cache, CacheHandoff::kScoped);
  EXPECT_EQ(options.shared_cache->fingerprint(), engine_b.cache_fingerprint());
  const std::vector<DeltaImpact> impacts = DeltaImpacts(f.delta);
  const size_t by_hand = twin_options.shared_cache->InvalidateDelta(
      engine_b.cache_fingerprint(), impacts,
      ReachabilityCoupling(*f.index_a, impacts));
  EXPECT_EQ(next.value().dropped, by_hand);
  EXPECT_GT(next.value().dropped, 0u);

  // The survivors hit under B's binding, exactly as on the twin.
  size_t survivors = 0;
  size_t twin_survivors = 0;
  Distance d = 0;
  for (const BatchQueryInput& q : f.queries) {
    survivors += options.shared_cache->LookupBound(
        q.s, q.t, q.w, engine_b.cache_fingerprint(), &d);
    twin_survivors += twin_options.shared_cache->LookupBound(
        q.s, q.t, q.w, engine_b.cache_fingerprint(), &d);
  }
  EXPECT_GT(survivors, 0u);
  EXPECT_EQ(survivors, twin_survivors);
  ExpectAnswersOf(engine_b, f.index_b, f);
}

// A log that is not stamped with the serving generation's fingerprint —
// none at all, base 0, or another snapshot's — cannot scope anything: the
// next engine's Rebind wipes the cache, so no queried pair hits.
TEST(ReloadHandoff, UnmatchedDeltaWipesTheCache) {
  const HandoffFixture f = MakeHandoffFixture();
  DeltaLog unstamped = f.delta;
  unstamped.base_fingerprint = 0;
  DeltaLog foreign = f.delta;
  foreign.base_fingerprint =
      IndexContentFingerprint(f.index_b->flat_labels());
  const DeltaLog* const deltas[] = {nullptr, &unstamped, &foreign};
  for (const DeltaLog* delta : deltas) {
    SCOPED_TRACE(delta == nullptr ? "no log" : delta == &foreign
                                                   ? "another snapshot's"
                                                   : "base 0");
    const QueryEngineOptions options = CachedOptions();
    QueryEngine engine_a(f.index_a, options);
    Fill(engine_a, f);

    auto next =
        OpenNextGeneration(engine_a, delta, options, OpenIndex(f.index_b));
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(next.value().cache, CacheHandoff::kWiped);
    EXPECT_EQ(next.value().dropped, 0u);
    const uint64_t fingerprint = next.value().engine->cache_fingerprint();
    Distance d = 0;
    for (const BatchQueryInput& q : f.queries) {
      EXPECT_FALSE(options.shared_cache->LookupBound(q.s, q.t, q.w,
                                                     fingerprint, &d));
    }
    ExpectAnswersOf(*next.value().engine, f.index_b, f);
  }
}

// Reopening the same labels (a touched file, a SIGHUP) drops nothing, even
// with a delta written against them: the replay hits exactly as often as
// the same replay on an identically filled cache that never reloaded.
TEST(ReloadHandoff, SameLabelsKeepTheCache) {
  const HandoffFixture f = MakeHandoffFixture();
  const QueryEngineOptions options = CachedOptions();
  const QueryEngineOptions twin_options = CachedOptions();
  QueryEngine engine_a(f.index_a, options);
  QueryEngine twin_a(f.index_a, twin_options);
  Fill(engine_a, f);
  Fill(twin_a, f);

  auto next =
      OpenNextGeneration(engine_a, &f.delta, options, OpenIndex(f.index_a));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.value().cache, CacheHandoff::kKept);
  EXPECT_EQ(next.value().dropped, 0u);
  EXPECT_EQ(next.value().engine->cache_fingerprint(),
            engine_a.cache_fingerprint());

  const uint64_t hits = options.shared_cache->stats().hits;
  const uint64_t twin_hits = twin_options.shared_cache->stats().hits;
  Fill(*next.value().engine, f);
  Fill(twin_a, f);
  EXPECT_GT(options.shared_cache->stats().hits, hits);
  EXPECT_EQ(options.shared_cache->stats().hits - hits,
            twin_options.shared_cache->stats().hits - twin_hits);
  ExpectAnswersOf(*next.value().engine, f.index_a, f);
}

// A manifest tiling carries no index to probe reachability on, so the
// delta scopes by quality overlap alone — coarser, still sound.
TEST(ReloadHandoff, ManifestTilingScopesByQualityAlone) {
  const HandoffFixture f = MakeHandoffFixture();
  ShardPlanOptions thirds;
  thirds.num_shards = 3;
  thirds.even_vertex = true;
  std::vector<WrittenShardSet> sets;
  for (const auto& [name, index] :
       {std::pair<std::string, std::shared_ptr<const WcIndex>>{"a",
                                                               f.index_a},
        {"b", f.index_b}}) {
    auto plan = PlanShards(index->flat_labels(), thirds);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto written = WriteShardSet(testing::TempDir() + "/handoff_" + name,
                                 index->flat_labels(), plan.value());
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    sets.push_back(std::move(written).value());
  }
  const std::string& manifest_a = sets[0].manifest_path;
  const std::string& manifest_b = sets[1].manifest_path;
  const QueryEngineOptions options = CachedOptions();
  const QueryEngineOptions twin_options = CachedOptions();
  auto engine_a = QueryEngine::OpenManifest(manifest_a, options);
  auto twin_a = QueryEngine::OpenManifest(manifest_a, twin_options);
  ASSERT_TRUE(engine_a.ok()) << engine_a.status().ToString();
  ASSERT_TRUE(twin_a.ok()) << twin_a.status().ToString();
  ASSERT_FALSE(engine_a.value().has_index());
  Fill(engine_a.value(), f);
  Fill(twin_a.value(), f);

  auto next = OpenNextGeneration(
      engine_a.value(), &f.delta, options,
      [&](const QueryEngineOptions& next_options) {
        return QueryEngine::OpenManifest(manifest_b, next_options);
      });
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.value().cache, CacheHandoff::kScoped);
  const size_t by_quality = twin_options.shared_cache->InvalidateDelta(
      next.value().engine->cache_fingerprint(), DeltaImpacts(f.delta));
  EXPECT_EQ(next.value().dropped, by_quality);
  ExpectAnswersOf(*next.value().engine, f.index_b, f);

  for (const WrittenShardSet& set : sets) {
    for (const std::string& path : set.shard_paths) std::remove(path.c_str());
    std::remove(set.manifest_path.c_str());
  }
}

// Two inserted edges that connect a pair only together. The old graph has
// edges {0-1, 2-3, 4-5}; the delta inserts {1, 2} and {3, 4}. Neither
// record alone is reached from 0 on one side and reaches 5 on the other,
// so testing records one by one keeps the cached INF for (0, 5); the
// whole-delta coupling drops it, and the new generation answers 5.
TEST(ResultCache, MultiRecordDeltaDropsPairsTheRecordsConnectTogether) {
  auto build = [](bool with_delta) {
    GraphBuilder builder(6);
    builder.AddEdge(0, 1, 5.0f);
    builder.AddEdge(2, 3, 5.0f);
    builder.AddEdge(4, 5, 5.0f);
    if (with_delta) {
      builder.AddEdge(1, 2, 5.0f);
      builder.AddEdge(3, 4, 5.0f);
    }
    WcIndex index = WcIndex::Build(builder.Build(), WcIndexOptions::Plus());
    return std::make_shared<const WcIndex>(std::move(index));
  };
  auto old_index = build(false);
  auto new_index = build(true);
  DeltaLog log;
  DeltaBatch batch;
  for (const auto& [u, v] : {std::pair<Vertex, Vertex>{1, 2}, {3, 4}}) {
    DeltaRecord record;
    record.op = static_cast<uint8_t>(DeltaOp::kInsert);
    record.u = u;
    record.v = v;
    record.quality = 5.0f;
    batch.records.push_back(record);
  }
  log.batches.push_back(batch);
  log.base_fingerprint = IndexContentFingerprint(old_index->flat_labels());
  ASSERT_EQ(DeltaImpacts(log).size(), 2u);

  const QueryEngineOptions options = CachedOptions();
  QueryEngine old_engine(old_index, options);
  ASSERT_EQ(old_engine.Query(0, 5, 1.0f), kInfDistance);  // now cached

  auto next =
      OpenNextGeneration(old_engine, &log, options, OpenIndex(new_index));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.value().cache, CacheHandoff::kScoped);
  EXPECT_EQ(next.value().dropped, 1u);
  EXPECT_EQ(next.value().engine->Query(0, 5, 1.0f), 5u);
}

}  // namespace
}  // namespace wcsd

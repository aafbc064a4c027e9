// Swap-under-load hammer: N threads query a SwappableQueryService while
// another thread hot-swaps the serving engine in a tight loop. The contract
// under test (ISSUE 7 tentpole): zero dropped or failed queries, every
// answer bit-identical to one of the two engine generations, and the
// generation counter monotone — in-process and over the wire. These tests
// are the TSan/ASan targets for the RCU-style swap path and the
// fingerprint-bound result-cache handoff.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/dynamic_wc_index.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "net/swap_service.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "util/random.h"

namespace wcsd {
namespace {

// Two index generations over the same vertex set: B is A plus one extra
// edge, so some (but not all) answers differ between them.
struct SwapFixture {
  std::shared_ptr<const WcIndex> index_a;
  std::shared_ptr<const WcIndex> index_b;
  std::vector<BatchQueryInput> workload;
  std::vector<Distance> expected_a;
  std::vector<Distance> expected_b;
};

SwapFixture MakeSwapFixture(size_t n, size_t m, size_t num_queries,
                            uint64_t seed) {
  SwapFixture f;
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(n, m, quality, seed);

  f.index_a = std::make_shared<const WcIndex>(
      WcIndex::Build(g, WcIndexOptions::Plus()));

  // Generation B: insert a high-quality shortcut edge between two vertices
  // the generator left far apart, so plenty of workload answers change.
  DynamicWcIndex dyn(g, WcIndexOptions::Plus());
  Vertex u = 0;
  Vertex v = static_cast<Vertex>(n - 1);
  dyn.InsertEdge(u, v, static_cast<Quality>(quality.num_levels));
  f.index_b = std::make_shared<const WcIndex>(
      WcIndex::Build(dyn.Snapshot(), WcIndexOptions::Plus()));

  Rng rng(seed ^ 0xabcd);
  f.workload.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    BatchQueryInput q{static_cast<Vertex>(rng.NextBounded(n)),
                      static_cast<Vertex>(rng.NextBounded(n)),
                      static_cast<Quality>(rng.NextInRange(1, 5))};
    f.workload.push_back(q);
    f.expected_a.push_back(f.index_a->Query(q.s, q.t, q.w));
    f.expected_b.push_back(f.index_b->Query(q.s, q.t, q.w));
  }
  return f;
}

std::shared_ptr<const QueryService> ServiceOver(
    std::shared_ptr<const WcIndex> index, const QueryEngineOptions& options) {
  return MakeQueryService(
      std::make_shared<const QueryEngine>(std::move(index), options));
}

// In-process hammer: every answer must match generation A or generation B,
// and the generation counter each thread observes must never go backwards.
TEST(SwapHammer, InProcessAnswersAlwaysFromOneGeneration) {
  SwapFixture f = MakeSwapFixture(120, 320, 200, 1217);
  QueryEngineOptions options;
  options.num_threads = 1;
  auto service_a = ServiceOver(f.index_a, options);
  auto service_b = ServiceOver(f.index_b, options);

  auto swappable = std::make_shared<SwappableQueryService>(service_a);
  EXPECT_EQ(swappable->generation(), 1u);

  constexpr int kQueryThreads = 4;
  constexpr int kSwaps = 300;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> generation_regressions{0};

  std::vector<std::thread> workers;
  workers.reserve(kQueryThreads);
  for (int w = 0; w < kQueryThreads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(0x5eed + static_cast<uint64_t>(w));
      uint64_t last_generation = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        size_t i = rng.NextBounded(f.workload.size());
        const BatchQueryInput& q = f.workload[i];
        Distance d = swappable->Query(q.s, q.t, q.w);
        if (d != f.expected_a[i] && d != f.expected_b[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        uint64_t generation = swappable->Stats().generation;
        if (generation < last_generation) {
          generation_regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_generation = generation;
      }
    });
  }

  for (int s = 0; s < kSwaps; ++s) {
    swappable->Swap((s % 2 == 0) ? service_b : service_a);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(generation_regressions.load(), 0u);
  EXPECT_EQ(swappable->generation(), 1u + kSwaps);
}

// Wire hammer: the same contract holds end to end through WcServer —
// no connection ever drops mid-swap, answers stay within {A, B}, and the
// kStatsReply generation is monotone per connection.
TEST(SwapHammer, WireServerSurvivesSwapsWithoutDrops) {
  SwapFixture f = MakeSwapFixture(80, 200, 120, 4119);
  QueryEngineOptions options;
  options.num_threads = 1;
  auto service_a = ServiceOver(f.index_a, options);
  auto service_b = ServiceOver(f.index_b, options);

  auto swappable = std::make_shared<SwappableQueryService>(service_a);
  auto server = WcServer::Start(swappable, WcServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Exact wire semantics before the storm: a fresh swappable service
  // reports generation 1, and one swap bumps it to 2.
  {
    auto client = WcClient::Connect("127.0.0.1", server.value().port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto stats = client.value().Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.value().generation, 1u);
    EXPECT_EQ(swappable->Swap(service_b), 2u);
    stats = client.value().Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.value().generation, 2u);
  }

  constexpr int kClientThreads = 3;
  constexpr int kSwaps = 150;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> generation_regressions{0};

  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      auto client = WcClient::Connect("127.0.0.1", server.value().port());
      if (!client.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      Rng rng(0xc11e + static_cast<uint64_t>(c));
      uint64_t last_generation = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        size_t i = rng.NextBounded(f.workload.size());
        const BatchQueryInput& q = f.workload[i];
        auto d = client.value().Query(q.s, q.t, q.w);
        if (!d.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        if (d.value() != f.expected_a[i] && d.value() != f.expected_b[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        auto stats = client.value().Stats();
        if (!stats.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        if (stats.value().generation < last_generation) {
          generation_regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_generation = stats.value().generation;
      }
    });
  }

  for (int s = 0; s < kSwaps; ++s) {
    swappable->Swap((s % 2 == 0) ? service_a : service_b);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(generation_regressions.load(), 0u);
}

// Shared-cache hammer: one ResultCache outlives the generations, engines
// bind their inserts to their own fingerprint, and the swapper rebinds the
// cache before each swap. A stale insert racing the rebind must either be
// swept or dropped — never served to the other generation. Under TSan this
// exercises the fingerprint-check-after-lock ordering in InsertBound.
TEST(SwapHammer, SharedCacheStaysCoherentAcrossSwaps) {
  SwapFixture f = MakeSwapFixture(100, 260, 160, 907);
  auto cache = std::make_shared<ResultCache>(256 << 10);

  QueryEngineOptions options;
  options.num_threads = 1;
  options.shared_cache = cache;
  auto engine_a =
      std::make_shared<const QueryEngine>(f.index_a, options);
  auto engine_b =
      std::make_shared<const QueryEngine>(f.index_b, options);
  ASSERT_NE(engine_a->cache_fingerprint(), engine_b->cache_fingerprint());
  cache->Rebind(engine_a->cache_fingerprint());

  auto swappable = std::make_shared<SwappableQueryService>(
      MakeQueryService(engine_a));

  constexpr int kQueryThreads = 4;
  constexpr int kSwaps = 200;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};

  std::vector<std::thread> workers;
  workers.reserve(kQueryThreads);
  for (int w = 0; w < kQueryThreads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(0xcafe + static_cast<uint64_t>(w));
      while (!stop.load(std::memory_order_relaxed)) {
        size_t i = rng.NextBounded(f.workload.size());
        const BatchQueryInput& q = f.workload[i];
        Distance d = swappable->Query(q.s, q.t, q.w);
        if (d != f.expected_a[i] && d != f.expected_b[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int s = 0; s < kSwaps; ++s) {
    const bool to_b = (s % 2 == 0);
    // Invalidate first, then swap: the incoming generation must never read
    // an entry only the outgoing index certified.
    cache->Rebind(to_b ? engine_b->cache_fingerprint()
                       : engine_a->cache_fingerprint());
    swappable->Swap(MakeQueryService(to_b ? engine_b : engine_a));
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(swappable->generation(), 1u + kSwaps);
}

// Cross-generation delta readback (regression for the unbound-Lookup bug):
// two engine generations serve CONCURRENTLY from one shared cache — the
// pinned old generation keeps answering during and after a swap — while an
// invalidator runs scoped InvalidateDelta back and forth between the two
// fingerprints. The strong assertion: an engine bound to generation X
// answers exactly generation X's value for every query, including the
// delta-touched pairs whose answers differ between generations. With an
// unbound Lookup, an old-generation engine could hit an entry the new
// generation inserted for a differing pair mid-sweep (slot certified by
// the new fingerprint while the sweep is still running) and answer from
// the wrong index; LookupBound's per-slot fingerprint check makes that
// impossible.
TEST(SwapHammer, CrossGenerationDeltaReadbackStaysBound) {
  SwapFixture f = MakeSwapFixture(100, 260, 200, 3391);
  auto cache = std::make_shared<ResultCache>(256 << 10);

  QueryEngineOptions options;
  options.num_threads = 1;
  options.shared_cache = cache;
  auto engine_a = std::make_shared<const QueryEngine>(f.index_a, options);
  auto engine_b = std::make_shared<const QueryEngine>(f.index_b, options);
  const uint64_t fp_a = engine_a->cache_fingerprint();
  const uint64_t fp_b = engine_b->cache_fingerprint();
  ASSERT_NE(fp_a, fp_b);

  // The pairs whose answers differ anywhere in the sampled workload: the
  // "delta-touched" set the scoped invalidation must always drop. Keys are
  // normalized (s <= t) like the cache's own.
  std::vector<uint64_t> differing;
  for (size_t i = 0; i < f.workload.size(); ++i) {
    if (f.expected_a[i] != f.expected_b[i]) {
      Vertex s = f.workload[i].s, t = f.workload[i].t;
      if (s > t) std::swap(s, t);
      differing.push_back((uint64_t{s} << 32) | t);
    }
  }
  ASSERT_FALSE(differing.empty()) << "fixture must have differing answers";
  auto is_differing = [&differing](Vertex s, Vertex t) {
    const uint64_t key = (uint64_t{s} << 32) | t;
    for (uint64_t k : differing) {
      if (k == key) return true;
    }
    return false;
  };

  constexpr int kThreadsPerGen = 2;
  constexpr int kRounds = 120;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wrong_generation_answers{0};

  auto worker = [&](const QueryEngine* engine,
                    const std::vector<Distance>* expected, uint64_t seed) {
    Rng rng(seed);
    while (!stop.load(std::memory_order_relaxed)) {
      size_t i = rng.NextBounded(f.workload.size());
      const BatchQueryInput& q = f.workload[i];
      // Exact-generation assertion: "either generation's answer" is NOT
      // good enough here — that is what the unbound bug would produce.
      if (engine->Query(q.s, q.t, q.w) != (*expected)[i]) {
        wrong_generation_answers.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreadsPerGen; ++w) {
    workers.emplace_back(worker, engine_a.get(), &f.expected_a,
                         0xaaa0 + static_cast<uint64_t>(w));
    workers.emplace_back(worker, engine_b.get(), &f.expected_b,
                         0xbbb0 + static_cast<uint64_t>(w));
  }

  // The invalidator alternates which generation the cache is bound to,
  // always dropping the differing pairs (the delta-touched set) and
  // re-certifying only pairs both generations agree on — the scoped-
  // invalidation soundness contract, exercised while both generations
  // read and insert concurrently.
  DeltaImpact impact{0, 0, -kInfQuality, kInfQuality};
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t next_fp = (round % 2 == 0) ? fp_b : fp_a;
    cache->InvalidateDelta(
        next_fp, {&impact, 1},
        [&is_differing](Vertex s, Vertex t, const DeltaImpact&, Quality) {
          return is_differing(s, t);
        });
    // Let each binding serve for a moment so both generations get real
    // cache traffic (hits + inserts) between rebinds.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(wrong_generation_answers.load(), 0u);
  // The cache was actually in play (hits happened).
  EXPECT_GT(cache->stats().hits, 0u);
}

// Marker service for the Stats()/generation consistency check: Stats()
// reports a constant marker in `queries`, so a reader can tell WHICH
// service produced the counters it got.
class MarkerService final : public QueryService {
 public:
  explicit MarkerService(uint64_t marker) : marker_(marker) {}
  Distance Query(Vertex, Vertex, Quality) const override { return 0; }
  std::vector<Distance> Batch(
      const std::vector<BatchQueryInput>& queries) const override {
    return std::vector<Distance>(queries.size(), 0);
  }
  uint64_t NumVertices() const override { return 1; }
  QueryEngineStats Stats() const override {
    QueryEngineStats stats;
    stats.queries = marker_;
    return stats;
  }

 private:
  uint64_t marker_;
};

// Regression for the Stats()/generation race: the service pointer and the
// generation counter must be captured under one critical section. The
// swapper maintains the invariant that the service installed at generation
// g carries marker g % 2; any Stats() result whose marker disagrees with
// its generation's parity means the counters of one generation were
// labeled with another generation's number — exactly what reading
// generation() after Pin() allowed.
TEST(SwapHammer, StatsGenerationStaysConsistentAcrossSwaps) {
  auto even = std::make_shared<MarkerService>(0);
  auto odd = std::make_shared<MarkerService>(1);

  // Initial generation is 1: install the odd marker.
  auto swappable = std::make_shared<SwappableQueryService>(odd);

  constexpr int kReaderThreads = 4;
  constexpr int kSwaps = 4000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mislabeled{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaderThreads; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        QueryEngineStats stats = swappable->Stats();
        if (stats.queries != stats.generation % 2) {
          mislabeled.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int s = 1; s <= kSwaps; ++s) {
    // This swap bumps the generation to 1 + s; install the matching
    // parity's marker service.
    swappable->Swap((1 + s) % 2 == 0 ? even : odd);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mislabeled.load(), 0u);
  EXPECT_EQ(swappable->generation(), 1u + kSwaps);
}

}  // namespace
}  // namespace wcsd

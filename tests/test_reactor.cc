// Multi-reactor server tests (per-core serving): `num_reactors = N` runs N
// epoll loops over SO_REUSEPORT listen sockets, each owning its
// connections end-to-end. The contract under test:
//   * answers are bit-identical to the single-reactor server at any N
//     (reactors share one immutable QueryService — nothing else),
//   * stats() is exactly the sum of reactor_stats() and accounts for
//     every connection and frame the clients produced,
//   * graceful drain and hot swap behave the same with N > 1.
// These tests are TSan/ASan targets: reactor counters are owned by one
// thread each and only read off-path, and the shared stopping/draining
// flags are the only cross-reactor state.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/dynamic_wc_index.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/swap_service.h"
#include "serve/query_engine.h"
#include "util/random.h"

namespace wcsd {
namespace {

struct ReactorFixture {
  QualityGraph graph;
  std::shared_ptr<const WcIndex> index;
  std::vector<BatchQueryInput> workload;
  std::vector<Distance> expected;
};

ReactorFixture MakeReactorFixture(size_t n, size_t m, size_t num_queries,
                                  uint64_t seed) {
  ReactorFixture f;
  QualityModel quality;
  quality.num_levels = 5;
  f.graph = GenerateRandomConnected(n, m, quality, seed);
  const QualityGraph& g = f.graph;
  f.index = std::make_shared<const WcIndex>(
      WcIndex::Build(g, WcIndexOptions::Plus()));
  Rng rng(seed ^ 0xfeed);
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

WcServer StartReactors(std::shared_ptr<const QueryService> service,
                       size_t num_reactors) {
  WcServerOptions options;
  options.num_reactors = num_reactors;
  auto server = WcServer::Start(std::move(service), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

// The tentpole contract: the same workload answered through 1, 2, and 4
// reactors is bit-identical to the in-process engine — the per-core
// configuration (single-threaded engine, queries inline on reactor
// threads) changes scheduling only, never answers.
TEST(Reactor, AnswersBitIdenticalAcrossReactorCounts) {
  ReactorFixture f = MakeReactorFixture(120, 320, 300, 515);
  QueryEngineOptions options;
  options.num_threads = 1;
  auto engine = std::make_shared<const QueryEngine>(f.index, options);
  auto service = MakeQueryService(engine);

  for (size_t reactors : {size_t{1}, size_t{2}, size_t{4}}) {
    WcServer server = StartReactors(service, reactors);
    ASSERT_EQ(server.num_reactors(), reactors);

    // Several concurrent connections so the kernel has something to
    // spread; each runs both frame shapes over the whole workload.
    constexpr size_t kConns = 8;
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> failures{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kConns; ++c) {
      clients.emplace_back([&] {
        auto client = WcClient::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        auto pipelined = client.value().QueryPipelined(f.workload, 32);
        auto batch = client.value().Batch(f.workload);
        if (!pipelined.ok() || !batch.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (pipelined.value() != f.expected ||
            batch.value() != f.expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0u) << "reactors=" << reactors;
    EXPECT_EQ(mismatches.load(), 0u) << "reactors=" << reactors;
    server.Stop();
  }
}

// stats() must be exactly the element-wise sum of reactor_stats(), and
// the sums must account for every connection and frame the clients made —
// no double counting across reactors, no lost updates.
TEST(Reactor, StatsAggregateExactlyAcrossReactors) {
  ReactorFixture f = MakeReactorFixture(80, 200, 64, 77);
  QueryEngineOptions options;
  options.num_threads = 1;
  auto engine = std::make_shared<const QueryEngine>(f.index, options);
  WcServer server = StartReactors(MakeQueryService(engine), 4);

  constexpr size_t kConns = 16;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kConns; ++c) {
    clients.emplace_back([&] {
      auto client = WcClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // One frame per workload query, plus one batch frame.
      auto pipelined = client.value().QueryPipelined(f.workload, 16);
      auto batch = client.value().Batch(f.workload);
      if (!pipelined.ok() || !batch.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0u);

  const std::vector<WcReactorStats> per_reactor = server.reactor_stats();
  ASSERT_EQ(per_reactor.size(), 4u);
  WcReactorStats sum;
  for (const WcReactorStats& r : per_reactor) {
    sum.connections_accepted += r.connections_accepted;
    sum.connections_closed += r.connections_closed;
    sum.frames_served += r.frames_served;
    sum.protocol_errors += r.protocol_errors;
  }
  const WcServerStats total = server.stats();
  EXPECT_EQ(total.connections_accepted, sum.connections_accepted);
  EXPECT_EQ(total.connections_closed, sum.connections_closed);
  EXPECT_EQ(total.frames_served, sum.frames_served);
  EXPECT_EQ(total.protocol_errors, sum.protocol_errors);

  // Client-side accounting: every connection and every frame lands in
  // exactly one reactor's counters.
  EXPECT_EQ(sum.connections_accepted, kConns);
  EXPECT_EQ(sum.frames_served, kConns * (f.workload.size() + 1));
  EXPECT_EQ(sum.protocol_errors, 0u);
  server.Stop();
}

// Graceful drain with several reactors: every reactor stops accepting,
// existing connections finish, and Drain() returns with all of them
// closed.
TEST(Reactor, DrainStopsAllReactors) {
  ReactorFixture f = MakeReactorFixture(60, 150, 32, 909);
  QueryEngineOptions options;
  options.num_threads = 1;
  auto engine = std::make_shared<const QueryEngine>(f.index, options);
  WcServer server = StartReactors(MakeQueryService(engine), 2);

  // Touch the server from a few connections first so more than one
  // reactor has likely seen traffic.
  for (int c = 0; c < 4; ++c) {
    auto client = WcClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto batch = client.value().Batch(f.workload);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch.value(), f.expected);
  }

  server.Drain();
  const WcServerStats stats = server.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.connections_closed, stats.connections_accepted);

  // No reactor accepts after drain: connects are refused or die on first
  // use (a racing accept queue entry may still let connect(2) succeed).
  auto late = WcClient::Connect("127.0.0.1", server.port(),
                                WcClientOptions{.deadline_ms = 500});
  if (late.ok()) {
    auto q = late.value().Query(0, 1, 1.0f);
    EXPECT_FALSE(q.ok());
  }
  server.Stop();
}

// Hot swap behind a multi-reactor server: all reactors route through the
// shared SwappableQueryService, so every answer matches one of the two
// generations no matter which reactor served it.
TEST(Reactor, SwapUnderMultiReactorLoad) {
  ReactorFixture f = MakeReactorFixture(100, 260, 160, 1313);
  // Generation B = A plus one shortcut edge at the top quality level.
  DynamicWcIndex dynamic(f.graph, WcIndexOptions::Plus());
  dynamic.InsertEdge(0, static_cast<Vertex>(f.index->NumVertices() - 1),
                     static_cast<Quality>(5));
  WcIndex built_b = WcIndex::Build(dynamic.Snapshot(), WcIndexOptions::Plus());
  auto index_b = std::make_shared<const WcIndex>(std::move(built_b));
  std::vector<Distance> expected_b;
  expected_b.reserve(f.workload.size());
  for (const BatchQueryInput& q : f.workload) {
    expected_b.push_back(index_b->Query(q.s, q.t, q.w));
  }

  QueryEngineOptions options;
  options.num_threads = 1;
  auto engine_a = std::make_shared<const QueryEngine>(f.index, options);
  auto engine_b = std::make_shared<const QueryEngine>(index_b, options);
  auto service_a = MakeQueryService(engine_a);
  auto service_b = MakeQueryService(engine_b);
  auto swappable = std::make_shared<SwappableQueryService>(service_a);
  WcServer server = StartReactors(swappable, 2);

  constexpr int kSwaps = 100;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_answers{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      auto client = WcClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      Rng rng(0x5eac + static_cast<uint64_t>(c));
      while (!stop.load(std::memory_order_relaxed)) {
        size_t i = rng.NextBounded(f.workload.size());
        const BatchQueryInput& q = f.workload[i];
        auto d = client.value().Query(q.s, q.t, q.w);
        if (!d.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (d.value() != f.expected[i] && d.value() != expected_b[i]) {
          bad_answers.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int s = 0; s < kSwaps; ++s) {
    swappable->Swap(s % 2 == 0 ? service_b : service_a);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(bad_answers.load(), 0u);
  EXPECT_EQ(swappable->generation(), 1u + kSwaps);
  server.Stop();
}

}  // namespace
}  // namespace wcsd

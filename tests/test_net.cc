// Network front-end tests: the WcServer must answer bit-identically to the
// in-process engines, survive concurrent pipelined
// load from many connections (the soak/hammer configuration the sanitizer
// CI jobs run), and never crash on the malformed-frame corpus — framing
// errors close cleanly after one error frame, frame-local errors leave the
// connection serving.
//
// The wire-golden tests mirror test_golden_format.cc: checked-in request
// and reply byte dumps in tests/data pin the on-wire encoding. Regenerate
// ONLY on a deliberate protocol change (bump net::kWireVersion first) by
// running this binary with WCSD_REGEN_WIRE_GOLDEN=1 in the environment.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/path_index.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "paper_fixtures.h"
#include "util/random.h"

namespace wcsd {
namespace {

using net::MsgType;
using net::WireError;
using net::WireHeader;

std::string GoldenPath(const std::string& name) {
  return std::string(WCSD_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

struct NetFixture {
  std::shared_ptr<const WcIndex> index;
  std::vector<BatchQueryInput> workload;
  std::vector<Distance> expected;
};

NetFixture MakeNetFixture(size_t n, size_t m, size_t num_queries,
                          uint64_t seed) {
  NetFixture f;
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(n, m, quality, seed);
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

WcServer StartServer(std::shared_ptr<const QueryService> service,
                     uint32_t max_payload = net::kMaxPayloadBytes) {
  WcServerOptions options;
  options.max_payload_bytes = max_payload;
  auto server = WcServer::Start(std::move(service), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

WcClient ConnectTo(const WcServer& server) {
  auto client = WcClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

// A cache-enabled engine behind the server: answers stay bit-identical,
// and the kStatsReply cache counters travel the wire.
TEST(WcServer, ReportsCacheCountersOverTheWire) {
  NetFixture f = MakeNetFixture(100, 260, 250, 229);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.shared_cache = std::make_shared<ResultCache>(64 << 10);
  auto engine = std::make_shared<const QueryEngine>(f.index, options);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  // Twice: the second pass is mostly interval hits.
  for (int pass = 0; pass < 2; ++pass) {
    auto batch = client.Batch(f.workload);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch.value(), f.expected) << "pass=" << pass;
  }

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats.value().cache_hits, 0u);
  EXPECT_GT(stats.value().cache_misses, 0u);
  EXPECT_GT(stats.value().cache_inserts, 0u);
  EXPECT_EQ(stats.value().cache_hits + stats.value().cache_misses,
            engine->Stats().cache_hits + engine->Stats().cache_misses);
}

// Every call shape: the networked answers must equal the in-process
// index bit-for-bit.
TEST(WcServer, BitIdenticalToInProcess) {
  NetFixture f = MakeNetFixture(120, 320, 400, 211);
  QueryEngineOptions options;
  options.num_threads = 2;
  auto engine = std::make_shared<const QueryEngine>(f.index, options);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  std::vector<Distance> expected;
  expected.reserve(f.workload.size());
  for (const BatchQueryInput& q : f.workload) {
    expected.push_back(f.index->Query(q.s, q.t, q.w));
  }
  for (size_t i = 0; i < 100; ++i) {
    const BatchQueryInput& q = f.workload[i];
    auto d = client.Query(q.s, q.t, q.w);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ASSERT_EQ(d.value(), expected[i]);
  }
  auto batch = client.Batch(f.workload);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value(), expected);
  auto pipelined = client.QueryPipelined(f.workload, /*window=*/32);
  ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();
  EXPECT_EQ(pipelined.value(), expected);
}

TEST(WcServer, ServesShardedBackendIdentically) {
  NetFixture f = MakeNetFixture(110, 280, 300, 223);
  const uint64_t n = f.index->NumVertices();
  ShardPlanOptions thirds;
  thirds.num_shards = 3;
  thirds.even_vertex = true;
  auto plan = PlanShards(f.index->flat_labels(), thirds);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto written = WriteShardSet(testing::TempDir() + "/net_shards",
                               f.index->flat_labels(), plan.value());
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  QueryEngineOptions options;
  options.num_threads = 2;
  auto sharded =
      QueryEngine::OpenManifest(written.value().manifest_path, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  WcServer server = StartServer(MakeQueryService(
      std::make_shared<const QueryEngine>(std::move(sharded).value())));
  WcClient client = ConnectTo(server);

  auto health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().num_vertices, n);
  auto batch = client.Batch(f.workload);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value(), f.expected);

  // The Stats frame reports per-shard balance for a sharded service: three
  // records tiling [0, n), with entry counts adding up to the index.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats.value().shards.size(), 3u);
  uint64_t cursor = 0;
  uint64_t entries = 0;
  for (const net::ShardBalancePayload& shard : stats.value().shards) {
    EXPECT_EQ(shard.vertex_begin, cursor);
    cursor = shard.vertex_end;
    entries += shard.entry_count;
    EXPECT_GT(shard.label_bytes, 0u);
  }
  EXPECT_EQ(cursor, n);
  EXPECT_EQ(entries, f.index->TotalEntries());
  for (const std::string& p : written.value().shard_paths) {
    std::remove(p.c_str());
  }
  std::remove(written.value().manifest_path.c_str());
}

TEST(WcServer, HealthAndStatsReportTheEngine) {
  NetFixture f = MakeNetFixture(80, 200, 50, 227);
  QueryEngineOptions options;
  options.num_threads = 1;
  auto engine = std::make_shared<const QueryEngine>(f.index, options);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().num_vertices, f.index->NumVertices());
  EXPECT_EQ(health.value().draining, 0u);

  for (size_t i = 0; i < 10; ++i) {
    const BatchQueryInput& q = f.workload[i];
    ASSERT_TRUE(client.Query(q.s, q.t, q.w).ok());
  }
  ASSERT_TRUE(client.Batch(f.workload).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().num_vertices, f.index->NumVertices());
  EXPECT_EQ(stats.value().queries, 10 + f.workload.size());
  EXPECT_EQ(stats.value().batches, 1u);
  EXPECT_GT(stats.value().reachable, 0u);
  // Unsharded engines report an empty balance section.
  EXPECT_TRUE(stats.value().shards.empty());

  WcServerStats server_stats = server.stats();
  EXPECT_EQ(server_stats.connections_accepted, 1u);
  // health + 10 queries + batch + stats.
  EXPECT_EQ(server_stats.frames_served, 13u);
  EXPECT_EQ(server_stats.protocol_errors, 0u);
}

TEST(WcServer, OutOfRangeVerticesAnswerInf) {
  NetFixture f = MakeNetFixture(60, 150, 10, 229);
  auto engine = std::make_shared<const QueryEngine>(f.index);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);
  auto d = client.Query(1u << 30, 2, 1.0f);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), kInfDistance);
}

// The soak/hammer configuration: many connections, each pipelining windows
// of single-query frames and interleaving batch frames, all against
// precomputed expected answers. This is the test the TSan and ASan CI jobs
// run — the server's event loop, the engine pool, and N client threads all
// overlap here.
TEST(WcServer, SoakManyConcurrentPipelinedConnections) {
  NetFixture f = MakeNetFixture(120, 320, 600, 233);
  QueryEngineOptions options;
  options.num_threads = 3;
  options.min_chunk = 16;
  auto engine = std::make_shared<const QueryEngine>(f.index, options);
  WcServer server = StartServer(MakeQueryService(engine));

  constexpr size_t kConnections = 8;
  constexpr size_t kRounds = 5;
  constexpr size_t kSlice = 300;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    callers.emplace_back([&, c] {
      auto client = WcClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t round = 0; round < kRounds; ++round) {
        size_t shift = (c * 131 + round * 17) % f.workload.size();
        std::vector<BatchQueryInput> slice;
        std::vector<Distance> expected;
        slice.reserve(kSlice);
        for (size_t i = 0; i < kSlice; ++i) {
          size_t j = (shift + i) % f.workload.size();
          slice.push_back(f.workload[j]);
          expected.push_back(f.expected[j]);
        }
        auto pipelined = client.value().QueryPipelined(slice, 24);
        if (!pipelined.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (pipelined.value() != expected) mismatches.fetch_add(1);
        auto batch = client.value().Batch(slice);
        if (!batch.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (batch.value() != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);

  QueryEngineStats engine_stats = engine->Stats();
  EXPECT_EQ(engine_stats.queries, kConnections * kRounds * kSlice * 2);
  EXPECT_EQ(engine_stats.batches, kConnections * kRounds);
  WcServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_served,
            kConnections * kRounds * (kSlice + 1));
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// The three v6 query families served over the wire must be bit-identical
// to their in-process core counterparts, and the path replies must be real
// routes: valid under the constraint, with exactly d(s,t,w) hops.
TEST(WcServer, ServesQueryFamiliesBitIdentically) {
  const size_t n = 100;
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(n, 260, quality, 263);
  WcIndex built = WcIndex::Build(g, WcIndexOptions::Plus());
  auto index = std::make_shared<const WcIndex>(std::move(built));
  QueryEngineOptions options;
  options.num_threads = 1;
  options.graph = std::make_shared<const QualityGraph>(g);
  auto engine = std::make_shared<const QueryEngine>(index, options);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  Rng rng(771);
  const std::vector<Quality> thresholds = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  for (int round = 0; round < 20; ++round) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 5));
    std::vector<Vertex> candidates;
    for (int i = 0; i < 12; ++i) {
      candidates.push_back(static_cast<Vertex>(rng.NextBounded(n)));
    }

    auto remote_topk = client.TopK(s, candidates, w, 5);
    ASSERT_TRUE(remote_topk.ok()) << remote_topk.status().ToString();
    auto local_topk = TopKClosest(*index, s, candidates, w, 5);
    ASSERT_EQ(remote_topk.value().size(), local_topk.size());
    for (size_t i = 0; i < local_topk.size(); ++i) {
      EXPECT_EQ(remote_topk.value()[i].vertex, local_topk[i].vertex);
      EXPECT_EQ(remote_topk.value()[i].dist, local_topk[i].dist);
    }

    auto remote_profile = client.Profile(s, t, thresholds);
    ASSERT_TRUE(remote_profile.ok()) << remote_profile.status().ToString();
    auto local_profile = QualityProfile(*index, s, t, thresholds);
    ASSERT_EQ(remote_profile.value().size(), local_profile.size());
    for (size_t i = 0; i < local_profile.size(); ++i) {
      EXPECT_EQ(remote_profile.value()[i].quality, local_profile[i].quality);
      EXPECT_EQ(remote_profile.value()[i].dist, local_profile[i].dist);
    }

    auto remote_path = client.Path(s, t, w);
    ASSERT_TRUE(remote_path.ok()) << remote_path.status().ToString();
    const Distance d = index->Query(s, t, w);
    if (d == kInfDistance) {
      EXPECT_TRUE(remote_path.value().empty());
    } else {
      ASSERT_EQ(remote_path.value().size(), static_cast<size_t>(d) + 1);
      EXPECT_EQ(remote_path.value().front(), s);
      EXPECT_EQ(remote_path.value().back(), t);
      EXPECT_TRUE(IsValidWPath(g, remote_path.value(), w));
    }
  }
}

// A server started without the graph cannot reconstruct routes: kPath is
// refused with kNotSupported (an Unimplemented status client-side), the
// connection keeps serving, and the label-only families still work.
TEST(WcServer, PathWithoutGraphIsUnimplemented) {
  NetFixture f = MakeNetFixture(60, 150, 5, 269);
  auto engine = std::make_shared<const QueryEngine>(f.index);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  auto path = client.Path(0, 1, 1.0f);
  EXPECT_FALSE(path.ok());
  EXPECT_EQ(path.status().code(), StatusCode::kUnimplemented);

  auto topk = client.TopK(0, {1, 2, 3}, 1.0f, 2);
  EXPECT_TRUE(topk.ok()) << topk.status().ToString();
  auto profile = client.Profile(0, 1, {1.0f, 2.0f});
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  const BatchQueryInput& q = f.workload[0];
  auto d = client.Query(q.s, q.t, q.w);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), f.expected[0]);
  // kNotSupported is a clean refusal, not a protocol error.
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

// A batch bigger than one frame can carry must fail the CALL, not the
// connection (server-side it would be a stream-poisoning framing error).
TEST(WcClient, OversizedBatchRejectedClientSide) {
  NetFixture f = MakeNetFixture(60, 150, 10, 257);
  auto engine = std::make_shared<const QueryEngine>(f.index);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  std::vector<BatchQueryInput> big(net::kMaxBatchQueries + 1,
                                   BatchQueryInput{0, 1, 1.0f});
  auto result = client.Batch(big);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // Nothing hit the wire; the connection is still healthy.
  auto d = client.Query(f.workload[0].s, f.workload[0].t, f.workload[0].w);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), f.expected[0]);
}

// A client may half-close after its last request and still read every
// buffered reply (the reply here is ~480 KB — far past the socket send
// buffer — so the server must keep draining after seeing EOF).
TEST(WcServer, HalfCloseStillDeliversLargeBufferedReply) {
  NetFixture f = MakeNetFixture(80, 200, 100, 251);
  auto engine = std::make_shared<const QueryEngine>(f.index);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  std::vector<BatchQueryInput> big;
  big.reserve(120000);
  for (size_t i = 0; i < 120000; ++i) {
    big.push_back(f.workload[i % f.workload.size()]);
  }
  std::vector<uint8_t> out;
  net::AppendBatchRequest(&out, 21, big);
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  ASSERT_TRUE(client.ShutdownSend().ok());

  auto frame = client.ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().header.type,
            static_cast<uint8_t>(MsgType::kBatchQueryReply));
  std::vector<Distance> dists;
  ASSERT_TRUE(net::BatchReplyFrame::Decode(frame.value().payload, &dists));
  ASSERT_EQ(dists.size(), big.size());
  for (size_t i : {size_t{0}, big.size() / 2, big.size() - 1}) {
    EXPECT_EQ(dists[i], f.expected[i % f.workload.size()]) << "query " << i;
  }
  EXPECT_FALSE(client.ReadRawFrame().ok());  // clean EOF after the drain
}

/// Holds chosen calls (1-based, in arrival order) until the test opens
/// them, so the test can watch the wire while the reactor is inside a
/// read pass. A held call gives up after five seconds and marks the run.
class GatedService final : public QueryService {
 public:
  GatedService(std::shared_ptr<const QueryService> inner,
               std::vector<uint64_t> gates)
      : inner_(std::move(inner)), gates_(std::move(gates)) {}
  Distance Query(Vertex s, Vertex t, Quality w) const override {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t call = ++calls_;
    if (std::find(gates_.begin(), gates_.end(), call) != gates_.end()) {
      held_ = call;
      cv_.notify_all();
      if (!cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return opened_ >= call; })) {
        timed_out_ = true;
      }
      held_ = 0;
    }
    lock.unlock();
    return inner_->Query(s, t, w);
  }
  std::vector<Distance> Batch(
      const std::vector<BatchQueryInput>& queries) const override {
    return inner_->Batch(queries);
  }
  uint64_t NumVertices() const override { return inner_->NumVertices(); }
  QueryEngineStats Stats() const override { return inner_->Stats(); }

  /// Waits until call `call` is held; false after five seconds.
  bool WaitHeld(uint64_t call) const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return held_ == call; });
  }
  /// Lets every call up to `call` through.
  void Open(uint64_t call) const {
    std::lock_guard<std::mutex> lock(mu_);
    opened_ = call;
    cv_.notify_all();
  }
  uint64_t held() const {
    std::lock_guard<std::mutex> lock(mu_);
    return held_;
  }
  bool timed_out() const {
    std::lock_guard<std::mutex> lock(mu_);
    return timed_out_;
  }

 private:
  std::shared_ptr<const QueryService> inner_;
  std::vector<uint64_t> gates_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable uint64_t calls_ = 0;
  mutable uint64_t held_ = 0;
  mutable uint64_t opened_ = 0;
  mutable bool timed_out_ = false;
};

// A pipelining client gets replies while a long read pass is still being
// served, so it can refill its window instead of waiting for the pass to
// end. The first frame holds the reactor while a burst of 1,200 frames
// lands in the socket; the next pass serves the burst and is held at its
// 900th frame, by which point its first 899 replies (25 KB) are due on the
// wire.
TEST(WcServer, LongReadPassStreamsRepliesBeforeItEnds) {
  NetFixture f = MakeNetFixture(80, 200, 100, 257);
  constexpr uint64_t kBurst = 1200;
  constexpr uint64_t kHeldFrame = 900;
  auto gated = std::make_shared<const GatedService>(
      MakeQueryService(std::make_shared<const QueryEngine>(f.index)),
      std::vector<uint64_t>{1, 1 + kHeldFrame});
  WcServer server = StartServer(gated);
  WcClient client = ConnectTo(server);

  std::vector<uint8_t> out;
  net::AppendQueryRequest(&out, 0, f.workload[0].s, f.workload[0].t,
                          f.workload[0].w);
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  ASSERT_TRUE(gated->WaitHeld(1));
  out.clear();
  for (uint64_t id = 1; id <= kBurst; ++id) {
    const BatchQueryInput& q = f.workload[id % f.workload.size()];
    net::AppendQueryRequest(&out, id, q.s, q.t, q.w);
  }
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  gated->Open(1);
  ASSERT_TRUE(gated->WaitHeld(1 + kHeldFrame));

  auto expect_reply = [&](uint64_t id) {
    auto frame = client.ReadRawFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame.value().header.type,
              static_cast<uint8_t>(MsgType::kQueryReply));
    ASSERT_EQ(frame.value().header.request_id, id);
    net::QueryReplyPayload reply{};
    ASSERT_TRUE(net::QueryReplyFrame::Decode(frame.value().payload, &reply));
    EXPECT_EQ(reply.dist, f.expected[id % f.workload.size()]) << id;
  };
  expect_reply(0);
  expect_reply(1);
  // The burst's first reply arrived while its pass was still held.
  EXPECT_EQ(gated->held(), 1 + kHeldFrame);
  gated->Open(1 + kBurst);
  for (uint64_t id = 2; id <= kBurst; ++id) expect_reply(id);
  EXPECT_FALSE(gated->timed_out());
}

/// Answers every counted reply family with one record more than its count
/// rule allows.
class OverCountingService final : public QueryService {
 public:
  Distance Query(Vertex, Vertex, Quality) const override { return 0; }
  std::vector<Distance> Batch(
      const std::vector<BatchQueryInput>& queries) const override {
    return std::vector<Distance>(queries.size() + 1, 0);
  }
  uint64_t NumVertices() const override { return 8; }
  QueryEngineStats Stats() const override { return {}; }
  ServeOutcome TopKEx(Vertex, std::span<const Vertex> candidates, Quality,
                      size_t k,
                      std::vector<RankedCandidate>* out) const override {
    out->assign(std::min(k, candidates.size()) + 1, RankedCandidate{1, 1});
    return ServeOutcome::kOk;
  }
  ServeOutcome ProfileEx(Vertex, Vertex, std::span<const Quality> thresholds,
                         std::vector<ProfilePoint>* out) const override {
    out->assign(thresholds.size() + 1, ProfilePoint{1.0f, 1});
    return ServeOutcome::kOk;
  }
};

// A reply that breaks its family's count rule cannot be trusted at all:
// the client returns Corruption, and the well-framed stream keeps serving.
TEST(WcClient, ReplyBreakingItsCountRuleIsCorruption) {
  WcServer server = StartServer(std::make_shared<const OverCountingService>());
  WcClient client = ConnectTo(server);

  // A batch reply must carry one distance per query.
  EXPECT_EQ(client.Batch({{0, 1, 1.0f}, {1, 2, 1.0f}}).status().code(),
            StatusCode::kCorruption);
  // A top-k reply carries at most k records ...
  EXPECT_EQ(client.TopK(0, {1, 2, 3}, 1.0f, 2).status().code(),
            StatusCode::kCorruption);
  // ... and at most one per candidate.
  EXPECT_EQ(client.TopK(0, {1}, 1.0f, 5).status().code(),
            StatusCode::kCorruption);
  // A profile reply carries one point per threshold.
  EXPECT_EQ(client.Profile(0, 1, {1.0f, 2.0f}).status().code(),
            StatusCode::kCorruption);

  auto d = client.Query(0, 1, 1.0f);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d.value(), 0u);
}

// ---------------------------------------------------------------- codec

template <typename T>
std::string BytesOf(const T* data, size_t n) {
  return std::string(reinterpret_cast<const char*>(data), n * sizeof(T));
}

/// The codec contract for one counted frame type, without a socket:
/// encoding then decoding gives back the input, and the decoder refuses a
/// short prefix, a count whose records overrun the payload, trailing
/// bytes, and a count of 0xFFFFFFFF, allocating nothing for any of them.
template <typename Frame>
void ExpectCountedCodec(const char* name, typename Frame::Prefix prefix,
                        const std::vector<typename Frame::Record>& records) {
  using Prefix = typename Frame::Prefix;
  using Record = typename Frame::Record;
  SCOPED_TRACE(name);
  std::vector<uint8_t> out;
  Frame::Append(&out, 77, prefix, records);
  WireHeader header;
  const uint8_t* at = nullptr;
  ASSERT_EQ(net::ParseFrame(out.data(), out.size(), net::kMaxPayloadBytes,
                            &header, &at),
            net::FrameStatus::kOk);
  EXPECT_EQ(header.type, static_cast<uint8_t>(Frame::kMsgType));
  EXPECT_EQ(header.request_id, 77u);
  const std::vector<uint8_t> payload(at, at + header.payload_bytes);

  Prefix decoded_prefix{};
  std::vector<Record> decoded;
  ASSERT_TRUE(Frame::Decode(payload, &decoded, &decoded_prefix));
  prefix.count = static_cast<uint32_t>(records.size());
  EXPECT_EQ(BytesOf(&decoded_prefix, 1), BytesOf(&prefix, 1));
  EXPECT_EQ(BytesOf(decoded.data(), decoded.size()),
            BytesOf(records.data(), records.size()));

  auto refused = [](const std::vector<uint8_t>& bytes) {
    std::vector<Record> none;
    Prefix ignored{};
    return !Frame::Decode(bytes, &none, &ignored) && none.capacity() == 0;
  };
  auto with_count = [&](uint32_t count) {
    std::vector<uint8_t> bytes = payload;
    std::memcpy(bytes.data() + offsetof(Prefix, count), &count,
                sizeof(count));
    return bytes;
  };
  EXPECT_TRUE(refused(std::vector<uint8_t>(
      payload.begin(), payload.begin() + sizeof(Prefix) - 1)));
  EXPECT_TRUE(refused(with_count(static_cast<uint32_t>(records.size() + 1))));
  std::vector<uint8_t> trailing = payload;
  trailing.push_back(0);
  EXPECT_TRUE(refused(trailing));
  EXPECT_TRUE(refused(with_count(0xFFFFFFFFu)));
}

TEST(WireCodec, CountedFramesRoundTripAndRefuseMalformedPayloads) {
  ExpectCountedCodec<net::BatchFrame>("kBatchQuery", {},
                                      {{0, 6, 1.0f}, {2, 5, 2.5f}});
  ExpectCountedCodec<net::BatchReplyFrame>("kBatchQueryReply", {},
                                           {3, kInfDistance, 0});
  ExpectCountedCodec<net::TopKFrame>("kTopK", {4, 2.0f, 3, 0}, {1, 2, 3, 9});
  ExpectCountedCodec<net::TopKReplyFrame>("kTopKReply", {},
                                          {{1, 1}, {3, 1}, {2, 2}});
  ExpectCountedCodec<net::ProfileFrame>("kProfile", {0, 4, 0},
                                        {1.0f, 2.5f, 5.0f});
  ExpectCountedCodec<net::ProfileReplyFrame>(
      "kProfileReply", {}, {{1.0f, 2}, {4.0f, kInfDistance}});
  ExpectCountedCodec<net::PathReplyFrame>("kPathReply", {}, {2, 3, 5});
  ExpectCountedCodec<net::PathReplyFrame>("kPathReply, unreachable", {}, {});
  net::StatsReplyPrefix stats{};
  stats.stats.num_vertices = 7;
  stats.stats.queries = 4;
  stats.stats.label_bytes = 123;
  ExpectCountedCodec<net::StatsReplyFrame>(
      "kStatsReply", stats, {{0, 3, 10, 400, 0, 0}, {3, 7, 12, 480, 1, 0}});
}

TEST(WireCodec, FixedFramesRefuseAnyOtherSize) {
  std::vector<uint8_t> out;
  net::AppendPathRequest(&out, 5, 2, 5, 2.0f);
  const std::vector<uint8_t> payload(out.begin() + sizeof(WireHeader),
                                     out.end());
  net::QueryPayload q{};
  ASSERT_TRUE(net::PathFrame::Decode(payload, &q));
  EXPECT_EQ(q.s, 2u);
  EXPECT_EQ(q.t, 5u);
  EXPECT_EQ(q.w, 2.0f);
  EXPECT_FALSE(net::PathFrame::Decode(
      std::span<const uint8_t>(payload).first(payload.size() - 1), &q));
  std::vector<uint8_t> longer = payload;
  longer.push_back(0);
  EXPECT_FALSE(net::PathFrame::Decode(longer, &q));
}

// ------------------------------------------------------------ malformed

struct MalformedFixture {
  MalformedFixture()
      : f(MakeNetFixture(60, 150, 20, 241)),
        engine(std::make_shared<const QueryEngine>(f.index)) {}

  /// A known-good query the corpus re-issues to prove the server (or the
  /// surviving connection) still works.
  void ExpectServes(WcClient& client) {
    const BatchQueryInput& q = f.workload[0];
    auto d = client.Query(q.s, q.t, q.w);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(d.value(), f.expected[0]);
  }

  NetFixture f;
  std::shared_ptr<const QueryEngine> engine;
};

TEST(WcServerMalformed, BadMagicGetsErrorFrameThenClose) {
  MalformedFixture fx;
  WcServer server = StartServer(MakeQueryService(fx.engine));
  WcClient client = ConnectTo(server);

  std::vector<uint8_t> out;
  net::AppendQueryRequest(&out, 7, 0, 1, 1.0f);
  out[0] ^= 0xFF;  // clobber the magic (offset 0, u32 LE)
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  auto frame = client.ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().header.type, static_cast<uint8_t>(MsgType::kError));
  EXPECT_EQ(frame.value().header.status,
            static_cast<uint8_t>(WireError::kBadMagic));
  // The stream is poisoned; the server closes after the error frame.
  EXPECT_FALSE(client.ReadRawFrame().ok());

  WcClient fresh = ConnectTo(server);
  fx.ExpectServes(fresh);
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST(WcServerMalformed, BadVersionGetsErrorFrameThenClose) {
  MalformedFixture fx;
  WcServer server = StartServer(MakeQueryService(fx.engine));
  WcClient client = ConnectTo(server);

  std::vector<uint8_t> out;
  net::AppendQueryRequest(&out, 9, 0, 1, 1.0f);
  out[4] = 0x7F;  // clobber the version field (offset 4, u16 LE)
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  auto frame = client.ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().header.status,
            static_cast<uint8_t>(WireError::kBadVersion));
  EXPECT_FALSE(client.ReadRawFrame().ok());

  WcClient fresh = ConnectTo(server);
  fx.ExpectServes(fresh);
}

TEST(WcServerMalformed, OversizedLengthRejectedBeforeAllocation) {
  MalformedFixture fx;
  // Tiny payload cap so the probe does not need a real 16 MiB frame.
  WcServer server =
      StartServer(MakeQueryService(fx.engine), /*max_payload=*/4096);
  WcClient client = ConnectTo(server);

  std::vector<uint8_t> out;
  net::AppendFrame(&out, MsgType::kBatchQuery, WireError::kOk, 42, nullptr,
                   0);
  // Announce a payload that never arrives; the header alone rejects it.
  const uint32_t announced = 0xFFFFFF00;
  std::memcpy(out.data() + offsetof(WireHeader, payload_bytes), &announced,
              sizeof(announced));
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  auto frame = client.ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().header.status,
            static_cast<uint8_t>(WireError::kOversizedFrame));
  // Oversized frames keep a trustworthy header, so the id is echoed.
  EXPECT_EQ(frame.value().header.request_id, 42u);
  EXPECT_FALSE(client.ReadRawFrame().ok());

  WcClient fresh = ConnectTo(server);
  fx.ExpectServes(fresh);
}

TEST(WcServerMalformed, TruncatedFrameClosesQuietly) {
  MalformedFixture fx;
  WcServer server = StartServer(MakeQueryService(fx.engine));
  {
    WcClient client = ConnectTo(server);
    std::vector<uint8_t> out;
    net::AppendQueryRequest(&out, 5, 0, 1, 1.0f);
    // Half a header, then EOF: no reply owed, no crash allowed.
    ASSERT_TRUE(client.SendBytes(out.data(), 10).ok());
    ASSERT_TRUE(client.ShutdownSend().ok());
    EXPECT_FALSE(client.ReadRawFrame().ok());
  }
  {
    WcClient client = ConnectTo(server);
    std::vector<uint8_t> out;
    net::AppendQueryRequest(&out, 6, 0, 1, 1.0f);
    // A full header whose payload never arrives.
    ASSERT_TRUE(client.SendBytes(out.data(), sizeof(WireHeader) + 4).ok());
    ASSERT_TRUE(client.ShutdownSend().ok());
    EXPECT_FALSE(client.ReadRawFrame().ok());
  }
  WcClient fresh = ConnectTo(server);
  fx.ExpectServes(fresh);
}

TEST(WcServerMalformed, BadPayloadSizeKeepsConnectionServing) {
  MalformedFixture fx;
  WcServer server = StartServer(MakeQueryService(fx.engine));
  WcClient client = ConnectTo(server);

  uint8_t stub[5] = {1, 2, 3, 4, 5};
  std::vector<uint8_t> out;
  net::AppendFrame(&out, MsgType::kQuery, WireError::kOk, 11, stub,
                   sizeof(stub));
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  auto frame = client.ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().header.status,
            static_cast<uint8_t>(WireError::kBadPayload));
  EXPECT_EQ(frame.value().header.request_id, 11u);
  // Frame-local error: the SAME connection keeps serving.
  fx.ExpectServes(client);
}

// A counted request whose payload is not its shape — shorter than its
// prefix, or a count that disagrees with the records it carries — gets
// kBadPayload, and the same connection keeps serving. One row per counted
// request type.
TEST(WcServerMalformed, CountedRequestMismatchKeepsConnectionServing) {
  MalformedFixture fx;
  WcServer server = StartServer(MakeQueryService(fx.engine));
  WcClient client = ConnectTo(server);

  struct Row {
    MsgType type;
    std::vector<uint8_t> frame;  // a well-formed request with 2 records
    size_t prefix_bytes;
    size_t count_offset;
  };
  std::vector<Row> rows(3);
  rows[0] = {MsgType::kBatchQuery, {}, sizeof(net::CountPrefix),
             offsetof(net::CountPrefix, count)};
  net::AppendBatchRequest(&rows[0].frame, 0,
                          std::vector<BatchQueryInput>{{0, 1, 1.0f},
                                                       {1, 2, 1.0f}});
  rows[1] = {MsgType::kTopK, {}, sizeof(net::TopKRequestPayload),
             offsetof(net::TopKRequestPayload, count)};
  net::AppendTopKRequest(&rows[1].frame, 0, 0, std::vector<Vertex>{1, 2},
                         1.0f, 2);
  rows[2] = {MsgType::kProfile, {}, sizeof(net::ProfileRequestPayload),
             offsetof(net::ProfileRequestPayload, count)};
  net::AppendProfileRequest(&rows[2].frame, 0, 0, 1,
                            std::vector<Quality>{1.0f, 2.0f});

  uint64_t id = 100;
  for (const Row& row : rows) {
    SCOPED_TRACE(static_cast<int>(row.type));
    std::vector<uint8_t> payload(row.frame.begin() + sizeof(WireHeader),
                                 row.frame.end());
    std::vector<uint8_t> out;
    // A prefix cut one byte short.
    net::AppendFrame(&out, row.type, WireError::kOk, ++id, payload.data(),
                     row.prefix_bytes - 1);
    // Announces 10 records but carries 2.
    const uint32_t count = 10;
    std::memcpy(payload.data() + row.count_offset, &count, sizeof(count));
    net::AppendFrame(&out, row.type, WireError::kOk, ++id, payload.data(),
                     payload.size());
    ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
    for (uint64_t expected_id : {id - 1, id}) {
      auto frame = client.ReadRawFrame();
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      EXPECT_EQ(frame.value().header.type,
                static_cast<uint8_t>(MsgType::kError));
      EXPECT_EQ(frame.value().header.status,
                static_cast<uint8_t>(WireError::kBadPayload));
      EXPECT_EQ(frame.value().header.request_id, expected_id);
    }
    fx.ExpectServes(client);
  }
  EXPECT_EQ(server.stats().protocol_errors, 2 * rows.size());
}

// No counted request may carry more than kMaxBatchQueries records, with
// or without a configured max_batch_queries: past that its reply would not
// fit one frame. A kProfile frame holding as many thresholds as the frame
// limit allows, and a kTopK frame one candidate over the cap, are shed with
// kOverloaded, and the same connection keeps serving.
TEST(WcServerMalformed, RequestsOverTheRecordCapAreShed) {
  MalformedFixture fx;
  WcServer server = StartServer(MakeQueryService(fx.engine));
  WcClient client = ConnectTo(server);

  const size_t max_thresholds =
      (net::kMaxPayloadBytes - sizeof(net::ProfileRequestPayload)) /
      sizeof(Quality);
  ASSERT_GT(max_thresholds, net::kMaxBatchQueries);
  std::vector<uint8_t> out;
  net::AppendProfileRequest(&out, 201, 0, 1,
                            std::vector<Quality>(max_thresholds, 1.0f));
  net::AppendTopKRequest(&out, 202, 0,
                         std::vector<Vertex>(net::kMaxBatchQueries + 1, 1),
                         1.0f, UINT32_MAX);
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  for (uint64_t expected_id : {uint64_t{201}, uint64_t{202}}) {
    auto frame = client.ReadRawFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame.value().header.type,
              static_cast<uint8_t>(MsgType::kError));
    EXPECT_EQ(frame.value().header.status,
              static_cast<uint8_t>(WireError::kOverloaded));
    EXPECT_EQ(frame.value().header.request_id, expected_id);
  }
  fx.ExpectServes(client);
  EXPECT_EQ(server.stats().overload_rejections, 2u);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(WcServerMalformed, UnknownTypeKeepsConnectionServing) {
  MalformedFixture fx;
  WcServer server = StartServer(MakeQueryService(fx.engine));
  WcClient client = ConnectTo(server);

  std::vector<uint8_t> out;
  net::AppendFrame(&out, static_cast<MsgType>(99), WireError::kOk, 17,
                   nullptr, 0);
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());
  auto frame = client.ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().header.status,
            static_cast<uint8_t>(WireError::kUnknownType));
  EXPECT_EQ(frame.value().header.request_id, 17u);
  fx.ExpectServes(client);
}

TEST(WcServerMalformed, RandomGarbageNeverCrashesTheServer) {
  MalformedFixture fx;
  WcServer server =
      StartServer(MakeQueryService(fx.engine), /*max_payload=*/1 << 16);
  Rng rng(991);
  for (size_t round = 0; round < 40; ++round) {
    auto client = WcClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    size_t len = 1 + static_cast<size_t>(rng.NextBounded(200));
    std::vector<uint8_t> garbage(len);
    for (uint8_t& b : garbage) {
      b = static_cast<uint8_t>(rng.NextBounded(256));
    }
    ASSERT_TRUE(client.value().SendBytes(garbage.data(), garbage.size()).ok());
    client.value().ShutdownSend().ok();
    // Drain whatever the server says (error frame or clean close);
    // the only requirement is that it keeps serving afterwards.
    while (client.value().ReadRawFrame().ok()) {
    }
  }
  WcClient fresh = ConnectTo(server);
  fx.ExpectServes(fresh);
}

// --------------------------------------------------------- wire goldens

/// The fixed request script the goldens pin: health, one Figure 3 query,
/// a three-query batch, stats, then the v6 families — top-k closest,
/// quality profile, and path reconstruction. Ids are deliberately explicit
/// — they are part of the pinned bytes.
std::vector<uint8_t> GoldenRequestBytes() {
  std::vector<uint8_t> out;
  net::AppendHealthRequest(&out, 1);
  net::AppendQueryRequest(&out, 2, 2, 5, 2.0f);
  const std::vector<BatchQueryInput> batch = {
      {0, 6, 1.0f}, {2, 5, 2.0f}, {1, 4, 3.0f}};
  net::AppendBatchRequest(&out, 3, batch);
  net::AppendStatsRequest(&out, 4);
  const std::vector<Vertex> candidates = {1, 2, 3, 4, 5};
  net::AppendTopKRequest(&out, 5, 0, candidates, 1.0f, 3);
  const std::vector<Quality> thresholds = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  net::AppendProfileRequest(&out, 6, 0, 4, thresholds);
  net::AppendPathRequest(&out, 7, 2, 5, 2.0f);
  return out;
}

/// Runs the golden request script against a deterministic server over the
/// checked-in Figure 3 snapshot and returns the reply stream, re-encoded
/// frame by frame (AppendFrame is byte-faithful, which this also proves).
std::vector<uint8_t> GoldenReplyBytesFromLiveServer() {
  auto index = WcIndex::LoadMmap(GoldenPath("fig3_golden.wcsnap"));
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  QueryEngineOptions options;
  options.num_threads = 1;  // deterministic stats aggregation
  // The Figure 3 edges let the golden server answer the kPath frame; the
  // snapshot itself is a v1 file with no parent quads, so the pinned stats
  // reply also locks the degraded has_parents=0 flag.
  options.graph = std::make_shared<const QualityGraph>(MakeFigure3Graph());
  auto engine = std::make_shared<const QueryEngine>(
      std::make_shared<const WcIndex>(std::move(index).value()), options);
  WcServer server = StartServer(MakeQueryService(engine));
  WcClient client = ConnectTo(server);

  std::vector<uint8_t> requests = GoldenRequestBytes();
  EXPECT_TRUE(client.SendBytes(requests.data(), requests.size()).ok());
  std::vector<uint8_t> replies;
  for (int i = 0; i < 7; ++i) {
    auto frame = client.ReadRawFrame();
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    if (!frame.ok()) break;
    net::AppendFrame(&replies,
                     static_cast<MsgType>(frame.value().header.type),
                     static_cast<WireError>(frame.value().header.status),
                     frame.value().header.request_id,
                     frame.value().payload.data(),
                     frame.value().payload.size());
  }
  return replies;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

bool RegenRequested() {
  const char* regen = std::getenv("WCSD_REGEN_WIRE_GOLDEN");
  return regen != nullptr && regen[0] == '1';
}

TEST(WireGolden, RequestEncodingIsByteStable) {
  std::vector<uint8_t> requests = GoldenRequestBytes();
  if (RegenRequested()) {
    WriteFileBytes(GoldenPath("wire_requests.bin"), requests);
  }
  std::string golden = ReadFileBytes(GoldenPath("wire_requests.bin"));
  EXPECT_EQ(std::string(requests.begin(), requests.end()), golden)
      << "the wire encoder no longer produces the golden request bytes — "
         "if the protocol changed deliberately, bump net::kWireVersion and "
         "regenerate with WCSD_REGEN_WIRE_GOLDEN=1";
}

TEST(WireGolden, ServerRepliesAreByteStable) {
  std::vector<uint8_t> replies = GoldenReplyBytesFromLiveServer();
  if (RegenRequested()) {
    WriteFileBytes(GoldenPath("wire_replies.bin"), replies);
  }
  std::string golden = ReadFileBytes(GoldenPath("wire_replies.bin"));
  EXPECT_EQ(std::string(replies.begin(), replies.end()), golden)
      << "the server no longer produces the golden reply bytes for the "
         "golden request script — if the protocol or the reply payloads "
         "changed deliberately, bump net::kWireVersion and regenerate with "
         "WCSD_REGEN_WIRE_GOLDEN=1";
}

// Decoding the pinned reply stream with the codec the client uses must
// yield the paper's answers — the semantic half of the golden contract (the
// byte compare is the format half).
TEST(WireGolden, GoldenRepliesDecodeToPaperAnswers) {
  std::string golden = ReadFileBytes(GoldenPath("wire_replies.bin"));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(golden.data());
  size_t at = 0;
  // The next frame's payload; empty when the golden is stale.
  auto next = [&](MsgType expected_type) -> std::span<const uint8_t> {
    WireHeader header;
    const uint8_t* payload = nullptr;
    EXPECT_EQ(net::ParseFrame(data + at, golden.size() - at,
                              net::kMaxPayloadBytes, &header, &payload),
              net::FrameStatus::kOk);
    if (payload == nullptr) return {};
    EXPECT_EQ(header.type, static_cast<uint8_t>(expected_type));
    at += sizeof(WireHeader) + header.payload_bytes;
    return {payload, header.payload_bytes};
  };
  QualityGraph g = MakeFigure3Graph();

  net::HealthReplyPayload health{};
  ASSERT_TRUE(
      net::HealthReplyFrame::Decode(next(MsgType::kHealthReply), &health));
  EXPECT_EQ(health.num_vertices, g.NumVertices());
  EXPECT_EQ(health.draining, 0u);

  net::QueryReplyPayload query{};
  ASSERT_TRUE(
      net::QueryReplyFrame::Decode(next(MsgType::kQueryReply), &query));
  EXPECT_EQ(query.dist, 2u);  // the paper's dist(2, 5 | w >= 2) spot check

  std::vector<Distance> batch;
  ASSERT_TRUE(
      net::BatchReplyFrame::Decode(next(MsgType::kBatchQueryReply), &batch));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[1], query.dist);  // the batch repeats the single query

  net::StatsReplyPrefix prefix{};
  std::vector<net::ShardBalancePayload> shards;
  ASSERT_TRUE(net::StatsReplyFrame::Decode(next(MsgType::kStatsReply),
                                           &shards, &prefix));
  const net::StatsReplyPayload& stats = prefix.stats;
  EXPECT_EQ(stats.num_vertices, g.NumVertices());
  EXPECT_TRUE(shards.empty());  // the golden server is unsharded
  EXPECT_EQ(stats.queries, 4u);   // 1 single + 3 batched
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);  // the golden server serves uncached
  EXPECT_EQ(stats.cache_misses, 0u);
  // v4 robustness counters: a healthy, unloaded server reports all-quiet.
  EXPECT_EQ(stats.overload_rejections, 0u);
  EXPECT_EQ(stats.deadline_rejections, 0u);
  EXPECT_EQ(stats.shard_unavailable, 0u);
  // v5: the golden server is not swappable, so its generation is 0.
  EXPECT_EQ(stats.generation, 0u);
  EXPECT_EQ(stats.draining, 0u);
  // v6: fig3_golden.wcsnap is a v1 snapshot without parent quads, so the
  // server must report the degraded parent-less mode explicitly. The stats
  // frame precedes the kPath frame in the script, so fallbacks are 0 here.
  EXPECT_EQ(stats.has_parents, 0u);
  EXPECT_EQ(stats.path_fallbacks, 0u);

  // v6 top-k: distances from v0 at w=1 are v1:1, v3:1, v2:2 (ties break by
  // vertex id).
  std::vector<RankedCandidate> ranked;
  ASSERT_TRUE(net::TopKReplyFrame::Decode(next(MsgType::kTopKReply), &ranked));
  ASSERT_EQ(ranked.size(), 3u);
  const uint32_t expected_topk[3][2] = {{1, 1}, {3, 1}, {2, 2}};
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ranked[i].vertex, expected_topk[i][0]) << "rank " << i;
    EXPECT_EQ(ranked[i].dist, expected_topk[i][1]) << "rank " << i;
  }

  // v6 profile: the paper's (v0, v4) trade-off curve — d = 2/3/4 at
  // w = 1/2/3, unreachable past w = 3.
  std::vector<ProfilePoint> profile;
  ASSERT_TRUE(net::ProfileReplyFrame::Decode(next(MsgType::kProfileReply),
                                             &profile));
  ASSERT_EQ(profile.size(), 5u);
  const uint32_t expected_profile[5] = {2, 3, 4, kInfDistance,
                                        kInfDistance};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(profile[i].quality, static_cast<float>(i + 1))
        << "threshold " << i;
    EXPECT_EQ(profile[i].dist, expected_profile[i]) << "threshold " << i;
  }

  // v6 path: a valid w>=2 route for the paper's dist(2, 5 | w >= 2) = 2
  // spot check — exactly dist+1 vertices, endpoints included.
  std::vector<Vertex> path;
  ASSERT_TRUE(net::PathReplyFrame::Decode(next(MsgType::kPathReply), &path));
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), 2u);
  EXPECT_EQ(path.back(), 5u);
  EXPECT_TRUE(IsValidWPath(g, path, 2.0f));

  EXPECT_EQ(at, golden.size());
}

// An old reader's view of the kStatsReply payload must survive every
// extension: new fields append strictly after the old layout, so decoding
// only the first 104 (v5) or 120 (v6) bytes with the old field offsets
// yields the same counters. (wire.h pins this with static_asserts; this
// test proves it against the actual pinned bytes.)
TEST(WireGolden, StatsReplyKeepsV5PrefixLayout) {
  static_assert(offsetof(net::StatsReplyPayload, has_parents) == 104,
                "v6 stats fields must append after the v5 layout");
  static_assert(offsetof(net::StatsReplyPayload, compressed) == 120,
                "v7 stats fields must append after the v6 layout");
  static_assert(sizeof(net::StatsReplyPayload) == 168,
                "v7 stats payload is the 120-byte v6 layout + 6 u64");
  std::string golden = ReadFileBytes(GoldenPath("wire_replies.bin"));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(golden.data());
  // Walk to the kStatsReply frame (4th in the golden script).
  size_t at = 0;
  const uint8_t* stats_payload = nullptr;
  for (int i = 0; i < 4; ++i) {
    WireHeader header;
    const uint8_t* payload = nullptr;
    ASSERT_EQ(net::ParseFrame(data + at, golden.size() - at,
                              net::kMaxPayloadBytes, &header, &payload),
              net::FrameStatus::kOk);
    stats_payload = payload;
    at += sizeof(WireHeader) + header.payload_bytes;
  }
  ASSERT_NE(stats_payload, nullptr);
  // Decode with hand-written v5 offsets, no struct: what a v5-era reader
  // that ignores trailing bytes would compute.
  auto u64_at = [&](size_t offset) {
    uint64_t v;
    std::memcpy(&v, stats_payload + offset, sizeof(v));
    return v;
  };
  EXPECT_EQ(u64_at(0), MakeFigure3Graph().NumVertices());  // num_vertices
  EXPECT_EQ(u64_at(8), 4u);                                // queries
  EXPECT_EQ(u64_at(24), 1u);                               // batches
  EXPECT_EQ(u64_at(88), 0u);                               // generation
  EXPECT_EQ(u64_at(96), 0u);                               // draining
}

}  // namespace
}  // namespace wcsd

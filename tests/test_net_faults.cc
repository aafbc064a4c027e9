// Fault-injected serving tests: the production-hardening contract of the
// network stack under deterministic failure injection (util/failpoint.h)
// and degraded-mode sharded serving.
//
//   * Syscall faults: injected EINTR, partial sends/receives, and
//     connection resets on the `net.send`/`net.recv` shims must either be
//     absorbed transparently (EINTR, shorts — answers stay bit-identical
//     to the in-process engine) or surface as a clean Status, never a
//     crash or a hang.
//   * Overload control: admission limits shed query frames with
//     kOverloaded error frames — the connection keeps serving, stats and
//     health stay answerable, and the client retry policy actually
//     retries.
//   * Deadlines: a frame served too late fails with kDeadlineExceeded; a
//     client-side deadline bounds the whole call against a stuck server.
//   * Timeouts: idle and slow-loris connections are closed and counted.
//   * Graceful drain: in-flight work finishes (zero dropped replies), the
//     draining flag travels the health frame, new connections stop.
//   * Degraded mode: a shard set with a corrupt/missing shard serves
//     every healthy-range query bit-identically and refuses quarantined
//     ranges with kShardUnavailable (or answers them via the fallback
//     graph), locally and over the wire.
//
// The randomized fault soak at the bottom is the configuration the
// sanitizer CI jobs run.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/query_engine.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace wcsd {
namespace {

using net::MsgType;
using net::WireError;

class NetFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoints::ClearAll(); }
  void TearDown() override { failpoints::ClearAll(); }
};

struct Fixture {
  QualityGraph graph;
  std::shared_ptr<const WcIndex> index;
  std::vector<BatchQueryInput> workload;
  std::vector<Distance> expected;
};

Fixture MakeFixture(size_t n, size_t m, size_t num_queries, uint64_t seed) {
  Fixture f;
  QualityModel quality;
  quality.num_levels = 5;
  f.graph = GenerateRandomConnected(n, m, quality, seed);
  f.index = std::make_shared<const WcIndex>(
      WcIndex::Build(f.graph, WcIndexOptions::Plus()));
  Rng rng(seed ^ 0xfa17);
  for (size_t i = 0; i < num_queries; ++i) {
    BatchQueryInput q{static_cast<Vertex>(rng.NextBounded(n)),
                      static_cast<Vertex>(rng.NextBounded(n)),
                      static_cast<Quality>(rng.NextInRange(1, 5))};
    f.workload.push_back(q);
    f.expected.push_back(f.index->Query(q.s, q.t, q.w));
  }
  return f;
}

std::shared_ptr<const QueryService> MakeService(const Fixture& f) {
  QueryEngineOptions options;
  options.num_threads = 1;
  return MakeQueryService(
      std::make_shared<const QueryEngine>(f.index, options));
}

WcServer StartServer(std::shared_ptr<const QueryService> service,
                     const WcServerOptions& options = {}) {
  auto server = WcServer::Start(std::move(service), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

WcClient ConnectTo(const WcServer& server) {
  auto client = WcClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

/// Wraps a service so every Query (and each Batch) takes at least
/// `delay_ms` — the "server is busy" knob for deadline and drain tests.
class DelayService : public QueryService {
 public:
  DelayService(std::shared_ptr<const QueryService> inner, uint64_t delay_ms)
      : inner_(std::move(inner)), delay_ms_(delay_ms) {}
  Distance Query(Vertex s, Vertex t, Quality w) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return inner_->Query(s, t, w);
  }
  std::vector<Distance> Batch(
      const std::vector<BatchQueryInput>& queries) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return inner_->Batch(queries);
  }
  uint64_t NumVertices() const override { return inner_->NumVertices(); }
  QueryEngineStats Stats() const override { return inner_->Stats(); }

 private:
  std::shared_ptr<const QueryService> inner_;
  uint64_t delay_ms_;
};

// ------------------------------------------------------- syscall faults

// Satellite: injected EINTR on both directions of both peers must be
// retried transparently — the regression this pins is a send/recv loop
// that treats EINTR as a hard error.
TEST_F(NetFaultsTest, EintrOnSendAndRecvIsTransparent) {
  Fixture f = MakeFixture(80, 200, 60, 31);
  WcServer server = StartServer(MakeService(f));
  WcClient client = ConnectTo(server);

  // Fire a bounded burst of EINTRs at every fourth syscall on each shim.
  ASSERT_TRUE(failpoints::Set("net.send", "error:EINTR@2x40").ok());
  ASSERT_TRUE(failpoints::Set("net.recv", "error:EINTR@3x40").ok());
  auto batch = client.Batch(f.workload);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value(), f.expected);
  failpoints::ClearAll();

  auto piped = client.QueryPipelined(f.workload, 8);
  ASSERT_TRUE(piped.ok());
  EXPECT_EQ(piped.value(), f.expected);
}

// Satellite: partial sends and receives — every frame reassembles and the
// answers stay bit-identical no matter how the bytes were cut.
TEST_F(NetFaultsTest, ShortSendsAndRecvsReassemble) {
  Fixture f = MakeFixture(80, 200, 40, 32);
  WcServer server = StartServer(MakeService(f));
  WcClient client = ConnectTo(server);

  // Every syscall in the window moves at most 7 (send) / 5 (recv) bytes:
  // headers and payloads are forcibly torn across many syscalls.
  ASSERT_TRUE(failpoints::Set("net.send", "short:7x300").ok());
  ASSERT_TRUE(failpoints::Set("net.recv", "short:5x300").ok());
  for (size_t i = 0; i < 6; ++i) {
    const BatchQueryInput& q = f.workload[i];
    auto d = client.Query(q.s, q.t, q.w);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(d.value(), f.expected[i]) << i;
  }
  failpoints::ClearAll();

  auto batch = client.Batch(f.workload);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value(), f.expected);
}

// An injected connection reset surfaces as a clean IoError — never a
// crash, never a hang — and a fresh connection serves again.
TEST_F(NetFaultsTest, InjectedConnResetSurfacesCleanly) {
  Fixture f = MakeFixture(60, 150, 10, 33);
  WcServer server = StartServer(MakeService(f));
  WcClient client = ConnectTo(server);

  ASSERT_TRUE(failpoints::Set("net.send", "error:ECONNRESETx1").ok());
  auto d = client.Query(f.workload[0].s, f.workload[0].t, f.workload[0].w);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kIoError);
  failpoints::ClearAll();

  WcClient fresh = ConnectTo(server);
  auto again =
      fresh.Query(f.workload[0].s, f.workload[0].t, f.workload[0].w);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value(), f.expected[0]);
}

// ------------------------------------------------------ overload control

// A batch over the admission limit is shed with kOverloaded (surfaced as
// Unavailable), the connection keeps serving, and the client retry policy
// demonstrably retries: every attempt shows up in the rejection counter.
TEST_F(NetFaultsTest, OversizedBatchShedAndRetried) {
  Fixture f = MakeFixture(60, 150, 10, 34);
  WcServerOptions options;
  options.max_batch_queries = 4;
  WcServer server = StartServer(MakeService(f), options);

  // Within the limit: served.
  WcClient plain = ConnectTo(server);
  std::vector<BatchQueryInput> small(f.workload.begin(),
                                     f.workload.begin() + 4);
  auto ok = plain.Batch(small);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value(),
            std::vector<Distance>(f.expected.begin(), f.expected.begin() + 4));

  // Over the limit, no retries: one clean Unavailable, one rejection.
  auto shed = plain.Batch(f.workload);
  EXPECT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().overload_rejections, 1u);
  // The SAME connection still serves.
  auto after = plain.Batch(small);
  ASSERT_TRUE(after.ok());

  // With retries: the client re-sends twice more before giving up, and
  // each attempt is counted — proof the retry loop ran.
  WcClientOptions copts;
  copts.max_retries = 2;
  copts.backoff_base_ms = 1;
  copts.jitter_seed = 7;
  auto retrying = WcClient::Connect("127.0.0.1", server.port(), copts);
  ASSERT_TRUE(retrying.ok()) << retrying.status().ToString();
  auto still_shed = retrying.value().Batch(f.workload);
  EXPECT_FALSE(still_shed.ok());
  EXPECT_EQ(still_shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().overload_rejections, 4u);  // 1 + 3 attempts
}

// Soft overload: with a reply backlog past the shed threshold, pipelined
// query frames are refused with kOverloaded error frames while stats and
// health — the operator's eyes — are still answered.
TEST_F(NetFaultsTest, BackloggedConnectionShedsButAnswersHealth) {
  Fixture f = MakeFixture(60, 150, 10, 35);
  WcServerOptions options;
  options.overload_shed_reply_bytes = 1;  // any unflushed reply sheds
  WcServer server = StartServer(MakeService(f), options);
  WcClient client = ConnectTo(server);

  // Two pipelined queries in one write: the first is served (backlog was
  // empty), the second sees the first's un-flushed reply and is shed.
  std::vector<uint8_t> out;
  net::AppendQueryRequest(&out, 1, f.workload[0].s, f.workload[0].t,
                          f.workload[0].w);
  net::AppendQueryRequest(&out, 2, f.workload[1].s, f.workload[1].t,
                          f.workload[1].w);
  net::AppendHealthRequest(&out, 3);  // exempt from shedding
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());

  auto first = client.ReadRawFrame();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().header.type,
            static_cast<uint8_t>(MsgType::kQueryReply));
  EXPECT_EQ(first.value().header.status,
            static_cast<uint8_t>(WireError::kOk));

  auto second = client.ReadRawFrame();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().header.type,
            static_cast<uint8_t>(MsgType::kError));
  EXPECT_EQ(second.value().header.status,
            static_cast<uint8_t>(WireError::kOverloaded));
  EXPECT_EQ(second.value().header.request_id, 2u);

  auto third = client.ReadRawFrame();
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third.value().header.type,
            static_cast<uint8_t>(MsgType::kHealthReply));

  EXPECT_GE(server.stats().overload_rejections, 1u);
  // Shed frames are neither protocol errors nor served frames.
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

// ------------------------------------------------------------ deadlines

// A pipelined frame that waited out its deadline behind earlier slow work
// fails with kDeadlineExceeded instead of being served arbitrarily late.
TEST_F(NetFaultsTest, LateFrameFailsInsteadOfServingLate) {
  Fixture f = MakeFixture(60, 150, 10, 36);
  WcServerOptions options;
  options.request_deadline_ms = 60;
  WcServer server =
      StartServer(std::make_shared<DelayService>(MakeService(f), 200),
                  options);
  WcClient client = ConnectTo(server);

  // Both frames arrive together; the first is admitted immediately, the
  // second has burned 200 ms behind it by the time it is considered.
  std::vector<uint8_t> out;
  net::AppendQueryRequest(&out, 1, f.workload[0].s, f.workload[0].t,
                          f.workload[0].w);
  net::AppendQueryRequest(&out, 2, f.workload[1].s, f.workload[1].t,
                          f.workload[1].w);
  ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());

  auto first = client.ReadRawFrame();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().header.status,
            static_cast<uint8_t>(WireError::kOk));
  auto second = client.ReadRawFrame();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().header.type,
            static_cast<uint8_t>(MsgType::kError));
  EXPECT_EQ(second.value().header.status,
            static_cast<uint8_t>(WireError::kDeadlineExceeded));
  EXPECT_EQ(server.stats().deadline_rejections, 1u);
}

// Satellite: the client-side deadline spans the whole request — a stuck
// server cannot hold the caller past its budget.
TEST_F(NetFaultsTest, ClientDeadlineBoundsTheWholeCall) {
  Fixture f = MakeFixture(60, 150, 10, 37);
  WcServer server =
      StartServer(std::make_shared<DelayService>(MakeService(f), 1500));

  WcClientOptions copts;
  copts.deadline_ms = 120;
  auto client = WcClient::Connect("127.0.0.1", server.port(), copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto start = std::chrono::steady_clock::now();
  auto d = client.value().Query(f.workload[0].s, f.workload[0].t,
                                f.workload[0].w);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kDeadlineExceeded)
      << d.status().ToString();
  // Generous bound: the point is "about the deadline", not "the sleep".
  EXPECT_LT(elapsed, 1000);
}

// ------------------------------------------------------------- timeouts

TEST_F(NetFaultsTest, IdleConnectionsAreClosed) {
  Fixture f = MakeFixture(60, 150, 10, 38);
  WcServerOptions options;
  options.idle_timeout_ms = 100;
  WcServer server = StartServer(MakeService(f), options);
  WcClient client = ConnectTo(server);

  // Say nothing; the sweep (every ~500 ms) must close us.
  auto frame = client.ReadRawFrame();
  EXPECT_FALSE(frame.ok());  // clean EOF, not a hang
  EXPECT_GE(server.stats().timeout_closed, 1u);
}

TEST_F(NetFaultsTest, SlowLorisPartialFrameIsClosed) {
  Fixture f = MakeFixture(60, 150, 10, 39);
  WcServerOptions options;
  options.header_timeout_ms = 100;  // idle timeout stays off
  WcServer server = StartServer(MakeService(f), options);
  WcClient client = ConnectTo(server);

  // Drip 6 bytes of a frame header and stall — the classic slow-loris.
  std::vector<uint8_t> out;
  net::AppendHealthRequest(&out, 1);
  ASSERT_TRUE(client.SendBytes(out.data(), 6).ok());
  auto frame = client.ReadRawFrame();
  EXPECT_FALSE(frame.ok());
  EXPECT_GE(server.stats().timeout_closed, 1u);

  // A connection with NO partial frame is untouched by the header
  // timeout: after sitting past the window it still serves.
  WcClient patient = ConnectTo(server);
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  auto health = patient.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().num_vertices, f.index->NumVertices());
}

// --------------------------------------------------------------- drain

// Satellite acceptance: SIGTERM-style drain loses nothing. In-flight work
// finishes and is delivered, the health frame reports draining while it
// happens, and the server refuses new work once drained.
TEST_F(NetFaultsTest, DrainFinishesInFlightWithZeroDropped) {
  Fixture f = MakeFixture(60, 150, 8, 40);
  WcServer server =
      StartServer(std::make_shared<DelayService>(MakeService(f), 150));
  uint16_t port = server.port();

  std::vector<Distance> got;
  std::atomic<bool> drained{false};
  std::thread drainer;
  {
    WcClient client = ConnectTo(server);
    // A slow batch goes in flight...
    std::vector<uint8_t> out;
    net::AppendBatchRequest(&out, 1, f.workload);
    ASSERT_TRUE(client.SendBytes(out.data(), out.size()).ok());

    // ...then drain begins while it is still being served.
    drainer = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      server.Drain();
      drained.store(true);
    });

    // The in-flight batch completes and arrives intact: zero dropped.
    // (Non-fatal checks only from here on: the drainer thread must be
    // joined on every exit path.)
    auto reply = client.ReadRawFrame();
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    if (reply.ok()) {
      EXPECT_EQ(reply.value().header.status,
                static_cast<uint8_t>(WireError::kOk));
      EXPECT_TRUE(net::BatchReplyFrame::Decode(reply.value().payload, &got));
    }

    // The connection is still served during the drain window: health
    // answers, and it says so.
    auto health = client.Health();
    EXPECT_TRUE(health.ok()) << health.status().ToString();
    if (health.ok()) {
      EXPECT_EQ(health.value().draining, 1u);
    }
  }
  // Client destroyed -> last connection closed -> drain returns.
  drainer.join();
  EXPECT_TRUE(drained.load());
  EXPECT_EQ(got, f.expected);
  EXPECT_TRUE(server.stats().draining);

  // Drained means stopped: new connections are refused.
  auto late =
      WcClient::Connect("127.0.0.1", port, WcClientOptions{.deadline_ms = 200});
  EXPECT_FALSE(late.ok());
}

// ------------------------------------------------------- degraded mode

struct DegradedSet {
  Fixture fixture;
  std::string manifest_path;
  std::vector<std::string> shard_paths;
  uint64_t q_begin = 0;  // quarantined vertex range
  uint64_t q_end = 0;
};

/// Builds a 3-shard set and corrupts the MIDDLE shard's header bytes, so
/// the manifest's header-CRC cross-check quarantines exactly that range.
DegradedSet MakeDegradedSet(uint64_t seed, const std::string& tag) {
  DegradedSet set;
  set.fixture = MakeFixture(90, 230, 80, seed);
  const FlatLabelSet& flat = set.fixture.index->flat_labels();
  ShardPlanOptions plan_options;
  plan_options.num_shards = 3;
  auto plan = PlanShards(flat, plan_options);
  EXPECT_TRUE(plan.ok());
  std::string stem = testing::TempDir() + "/degraded_" + tag;
  auto written = WriteShardSet(stem, flat, plan.value());
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  set.manifest_path = written.value().manifest_path;
  set.shard_paths = written.value().shard_paths;
  set.q_begin = plan.value().shards[1].begin;
  set.q_end = plan.value().shards[1].end;

  // Flip bytes inside the middle shard's header page.
  std::fstream file(set.shard_paths[1],
                    std::ios::binary | std::ios::in | std::ios::out);
  EXPECT_TRUE(file.good());
  file.seekp(24);
  const char garbage[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
  file.write(garbage, sizeof(garbage));
  file.close();
  return set;
}

bool Touches(const DegradedSet& set, const BatchQueryInput& q) {
  // s == t answers 0 without reading any label slice, so it can never
  // touch a quarantined shard — mirroring the engine's refusal predicate.
  if (q.s == q.t) return false;
  auto in = [&](Vertex v) {
    return v >= set.q_begin && v < set.q_end;
  };
  return in(q.s) || in(q.t);
}

TEST_F(NetFaultsTest, QuarantineIsOptIn) {
  DegradedSet set = MakeDegradedSet(41, "optin");
  // Default: a corrupt shard fails the whole open.
  auto strict = QueryEngine::OpenManifest(set.manifest_path);
  EXPECT_FALSE(strict.ok());

  DegradedOpenOptions degraded;
  degraded.quarantine_failed_shards = true;
  auto engine = QueryEngine::OpenManifest(set.manifest_path, {}, {},
                                          degraded);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(engine.value().degraded());
  EXPECT_EQ(engine.value().num_quarantined(), 1u);
  EXPECT_EQ(engine.value().num_shards(), 3u);
}

TEST_F(NetFaultsTest, DegradedServesHealthyRangesBitIdentically) {
  DegradedSet set = MakeDegradedSet(42, "healthy");
  DegradedOpenOptions degraded;
  degraded.quarantine_failed_shards = true;
  auto engine = QueryEngine::OpenManifest(set.manifest_path, {}, {},
                                          degraded);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  size_t healthy = 0;
  size_t refused = 0;
  for (size_t i = 0; i < set.fixture.workload.size(); ++i) {
    const BatchQueryInput& q = set.fixture.workload[i];
    Distance d = kInfDistance;
    ServeOutcome outcome = engine.value().QueryEx(q.s, q.t, q.w, &d);
    if (!Touches(set, q)) {
      // Bit-identical to the intact index: quarantining one shard may
      // not perturb answers that never touch it.
      EXPECT_EQ(outcome, ServeOutcome::kOk) << i;
      EXPECT_EQ(d, set.fixture.expected[i]) << i;
      ++healthy;
    } else {
      EXPECT_EQ(outcome, ServeOutcome::kShardUnavailable) << i;
      EXPECT_EQ(d, kInfDistance) << i;
      EXPECT_EQ(engine.value().Query(q.s, q.t, q.w), kInfDistance) << i;
      ++refused;
    }
  }
  // The workload must genuinely exercise both sides.
  EXPECT_GT(healthy, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_GE(engine.value().Stats().shard_unavailable, refused);

  // Whole-batch refusal: one touching query poisons the batch (no
  // per-query error channel in a u32 result array).
  std::vector<Distance> out;
  EXPECT_EQ(engine.value().BatchEx(set.fixture.workload, &out),
            ServeOutcome::kShardUnavailable);
  EXPECT_TRUE(out.empty());

  // A batch of only-healthy queries serves bit-identically.
  std::vector<BatchQueryInput> clean;
  std::vector<Distance> clean_expected;
  for (size_t i = 0; i < set.fixture.workload.size(); ++i) {
    if (!Touches(set, set.fixture.workload[i])) {
      clean.push_back(set.fixture.workload[i]);
      clean_expected.push_back(set.fixture.expected[i]);
    }
  }
  EXPECT_EQ(engine.value().BatchEx(clean, &out), ServeOutcome::kOk);
  EXPECT_EQ(out, clean_expected);
}

TEST_F(NetFaultsTest, FallbackGraphAnswersQuarantinedRangeExactly) {
  DegradedSet set = MakeDegradedSet(43, "fallback");
  DegradedOpenOptions degraded;
  degraded.quarantine_failed_shards = true;
  degraded.fallback_graph = &set.fixture.graph;
  auto engine = QueryEngine::OpenManifest(set.manifest_path, {}, {},
                                          degraded);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // With the fallback, EVERY query answers exactly — quarantined ranges
  // via online ConstrainedDijkstra, the rest from labels.
  for (size_t i = 0; i < set.fixture.workload.size(); ++i) {
    const BatchQueryInput& q = set.fixture.workload[i];
    Distance d = kInfDistance;
    EXPECT_EQ(engine.value().QueryEx(q.s, q.t, q.w, &d), ServeOutcome::kOk);
    EXPECT_EQ(d, set.fixture.expected[i]) << i;
  }
  std::vector<Distance> out;
  EXPECT_EQ(engine.value().BatchEx(set.fixture.workload, &out),
            ServeOutcome::kOk);
  EXPECT_EQ(out, set.fixture.expected);
}

TEST_F(NetFaultsTest, MissingShardFileQuarantinesToo) {
  DegradedSet set = MakeDegradedSet(44, "missing");
  // Delete a DIFFERENT (healthy) shard: now two are down.
  std::remove(set.shard_paths[2].c_str());
  DegradedOpenOptions degraded;
  degraded.quarantine_failed_shards = true;
  auto engine = QueryEngine::OpenManifest(set.manifest_path, {}, {},
                                          degraded);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine.value().num_quarantined(), 2u);

  // Balance reporting marks the quarantined shards with zero mass.
  auto balance = engine.value().ShardBalance();
  ASSERT_EQ(balance.size(), 3u);
  EXPECT_FALSE(balance[0].quarantined);
  EXPECT_TRUE(balance[1].quarantined);
  EXPECT_TRUE(balance[2].quarantined);
  EXPECT_EQ(balance[1].entry_count, 0u);
  EXPECT_EQ(balance[2].label_bytes, 0u);
  EXPECT_GT(balance[0].entry_count, 0u);
}

TEST_F(NetFaultsTest, AllShardsFailedRefusesToOpen) {
  DegradedSet set = MakeDegradedSet(45, "allgone");
  for (const std::string& path : set.shard_paths) {
    std::remove(path.c_str());
  }
  DegradedOpenOptions degraded;
  degraded.quarantine_failed_shards = true;
  auto engine = QueryEngine::OpenManifest(set.manifest_path, {}, {},
                                          degraded);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kUnavailable);
}

// Tentpole acceptance: degraded mode over the wire. Healthy-range queries
// answer bit-identically; quarantined-range queries get a clean
// kShardUnavailable error frame (the connection survives); the stats
// frame reports the quarantine.
TEST_F(NetFaultsTest, DegradedShardSetServesOverTheWire) {
  DegradedSet set = MakeDegradedSet(46, "wire");
  DegradedOpenOptions degraded;
  degraded.quarantine_failed_shards = true;
  QueryEngineOptions eopts;
  eopts.num_threads = 1;
  auto engine = QueryEngine::OpenManifest(set.manifest_path, eopts,
                                          {}, degraded);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  WcServer server = StartServer(MakeQueryService(
      std::make_shared<const QueryEngine>(std::move(engine).value())));
  WcClient client = ConnectTo(server);

  size_t refused = 0;
  for (size_t i = 0; i < set.fixture.workload.size(); ++i) {
    const BatchQueryInput& q = set.fixture.workload[i];
    auto d = client.Query(q.s, q.t, q.w);
    if (!Touches(set, q)) {
      ASSERT_TRUE(d.ok()) << d.status().ToString();
      EXPECT_EQ(d.value(), set.fixture.expected[i]) << i;
    } else {
      // A clean, typed refusal on a connection that keeps serving.
      EXPECT_FALSE(d.ok()) << i;
      EXPECT_EQ(d.status().code(), StatusCode::kUnavailable) << i;
      ++refused;
    }
  }
  ASSERT_GT(refused, 0u);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().shard_unavailable, refused);
  ASSERT_EQ(stats.value().shards.size(), 3u);
  EXPECT_EQ(stats.value().shards[1].quarantined, 1u);
  EXPECT_EQ(stats.value().shards[0].quarantined, 0u);
  EXPECT_EQ(server.stats().shard_unavailable, refused);
  // Refusals are not protocol errors: the input was well-formed.
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

// ------------------------------------------------------------ fault soak

// Satellite: randomized fault soak — pipelined mixed traffic with random
// failpoint storms on both shims. Rounds that only inject retryable
// faults (EINTR, shorts, delays) must stay bit-identical; rounds that
// inject resets may fail calls cleanly but must never crash, hang, or
// poison a later round. This test (with the whole binary) runs under TSan
// and ASan in CI.
TEST_F(NetFaultsTest, RandomizedFaultSoakStaysBitIdentical) {
  Fixture f = MakeFixture(100, 260, 120, 47);
  WcServer server = StartServer(MakeService(f));
  Rng rng(4711);

  for (int round = 0; round < 12; ++round) {
    const bool reset_round = round % 4 == 3;
    std::string send_spec;
    std::string recv_spec;
    if (reset_round) {
      send_spec = "error:ECONNRESET@" +
                  std::to_string(rng.NextBounded(40)) + "x1";
      recv_spec = "error:EINTR@" + std::to_string(rng.NextBounded(10)) +
                  "x" + std::to_string(1 + rng.NextBounded(5));
    } else {
      switch (rng.NextBounded(3)) {
        case 0:
          send_spec = "error:EINTR@" + std::to_string(rng.NextBounded(8)) +
                      "x" + std::to_string(1 + rng.NextBounded(30));
          recv_spec = "short:" + std::to_string(1 + rng.NextBounded(9)) +
                      "x" + std::to_string(1 + rng.NextBounded(200));
          break;
        case 1:
          send_spec = "short:" + std::to_string(1 + rng.NextBounded(9)) +
                      "x" + std::to_string(1 + rng.NextBounded(200));
          recv_spec = "error:EINTR@" + std::to_string(rng.NextBounded(8)) +
                      "x" + std::to_string(1 + rng.NextBounded(30));
          break;
        default:
          send_spec = "delay:1x" + std::to_string(1 + rng.NextBounded(4));
          recv_spec = "short:" + std::to_string(2 + rng.NextBounded(8)) +
                      "x" + std::to_string(1 + rng.NextBounded(150));
          break;
      }
    }
    ASSERT_TRUE(failpoints::Set("net.send", send_spec).ok()) << send_spec;
    ASSERT_TRUE(failpoints::Set("net.recv", recv_spec).ok()) << recv_spec;

    auto client = WcClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      // Only a reset round may break the connect handshake.
      ASSERT_TRUE(reset_round) << client.status().ToString();
      failpoints::ClearAll();
      continue;
    }
    auto piped = client.value().QueryPipelined(f.workload, 8);
    auto batch = client.value().Batch(f.workload);
    failpoints::ClearAll();

    if (reset_round) {
      // Clean outcomes only: either served identically or a typed error.
      if (piped.ok()) {
        EXPECT_EQ(piped.value(), f.expected);
      }
      if (batch.ok()) {
        EXPECT_EQ(batch.value(), f.expected);
      }
    } else {
      ASSERT_TRUE(piped.ok())
          << "round " << round << " send=" << send_spec
          << " recv=" << recv_spec << ": " << piped.status().ToString();
      EXPECT_EQ(piped.value(), f.expected) << "round " << round;
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      EXPECT_EQ(batch.value(), f.expected) << "round " << round;
    }
  }

  // After the storm: a fresh connection serves the whole workload
  // bit-identically — nothing leaked, nothing wedged.
  WcClient fresh = ConnectTo(server);
  auto final_pass = fresh.Batch(f.workload);
  ASSERT_TRUE(final_pass.ok()) << final_pass.status().ToString();
  EXPECT_EQ(final_pass.value(), f.expected);
}

}  // namespace
}  // namespace wcsd

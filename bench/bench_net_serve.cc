// Closed-loop load generator for the network front end: an in-process
// WcServer over an mmap'd snapshot, hammered by N client connections, each
// running its own closed loop (send, wait, repeat — the throughput shape a
// fleet of synchronous callers produces). Two frame shapes per connection
// count:
//   * pipelined — single-query frames with a 64-deep window in flight,
//   * batch     — kBatchQuery frames of 512 queries.
// Emits BENCH_net_serve.json next to the console table so the serving
// throughput trajectory is tracked across PRs like the micro benches.
//
// A second sweep varies the server's reactor count (per-core serving:
// SO_REUSEPORT epoll loops, each owning its connections end-to-end) at a
// fixed connection count, with a single-threaded engine so queries run
// inline on the reactor threads — the per-core configuration `serve
// --reactors N` uses. Per-reactor frame counters land in the JSON so CI
// can check the kernel actually spread the load.
//
// Flags: --conns=1,2,4,8  connection counts to sweep
//        --rounds=3       passes over the workload per connection
//        --queries=8192   workload size per connection pass
//        --threads=0      engine worker threads (0 = hardware)
//        --scale=0.25     social dataset scale (EU family)
//        --reactors=1,2,4 reactor counts to sweep
//        --reactor-conns=8  connections driving the reactor sweep

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/datasets.h"
#include "bench/harness.h"
#include "bench/workload.h"
#include "core/wc_index.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/query_engine.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/timer.h"

namespace wcsd {
namespace {

std::vector<size_t> ParseConnList(const std::string& list) {
  std::vector<size_t> conns;
  size_t begin = 0;
  while (begin <= list.size()) {
    size_t comma = list.find(',', begin);
    if (comma == std::string::npos) comma = list.size();
    if (comma > begin) {
      long v = std::strtol(list.substr(begin, comma - begin).c_str(),
                           nullptr, 10);
      if (v > 0) conns.push_back(static_cast<size_t>(v));
    }
    begin = comma + 1;
  }
  return conns;
}

struct LoadResult {
  double seconds = 0;
  size_t queries = 0;
  size_t errors = 0;
};

/// Runs `conns` closed-loop clients against the server and returns the
/// aggregate wall time and query count. `batch_frames` picks the frame
/// shape.
LoadResult RunLoad(uint16_t port, size_t conns, size_t rounds,
                   const std::vector<BatchQueryInput>& workload,
                   bool batch_frames) {
  constexpr size_t kBatchFrame = 512;
  std::vector<std::thread> threads;
  std::vector<LoadResult> per_conn(conns);
  Timer wall;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      auto client = WcClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        per_conn[c].errors++;
        return;
      }
      for (size_t round = 0; round < rounds; ++round) {
        if (batch_frames) {
          for (size_t at = 0; at < workload.size(); at += kBatchFrame) {
            size_t end = std::min(workload.size(), at + kBatchFrame);
            std::vector<BatchQueryInput> frame(workload.begin() + at,
                                               workload.begin() + end);
            auto result = client.value().Batch(frame);
            if (!result.ok()) {
              per_conn[c].errors++;
              return;
            }
            per_conn[c].queries += frame.size();
          }
        } else {
          auto result = client.value().QueryPipelined(workload, 64);
          if (!result.ok()) {
            per_conn[c].errors++;
            return;
          }
          per_conn[c].queries += workload.size();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult total;
  total.seconds = wall.Seconds();
  for (const LoadResult& r : per_conn) {
    total.queries += r.queries;
    total.errors += r.errors;
  }
  return total;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  std::vector<size_t> conns = ParseConnList(flags.GetString("conns",
                                                            "1,2,4,8"));
  size_t rounds = static_cast<size_t>(flags.GetInt("rounds", 3));
  size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 8192));
  double scale = flags.GetDouble("scale", 0.25);

  Dataset dataset = MakeSocialDataset("EU", scale);
  WcIndex index = WcIndex::Build(dataset.graph, WcIndexOptions::Plus());
  std::string snap = "/tmp/bench_net_serve.wcsnap";
  if (!index.SaveSnapshot(snap).ok()) {
    std::fprintf(stderr, "snapshot write failed\n");
    return 1;
  }

  QueryEngineOptions options;
  options.num_threads = static_cast<size_t>(flags.GetInt("threads", 0));
  auto engine = QueryEngine::Open(snap, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine open failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  auto shared =
      std::make_shared<const QueryEngine>(std::move(engine).value());
  auto server = WcServer::Start(MakeQueryService(shared));
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  std::vector<BatchQueryInput> workload;
  workload.reserve(num_queries);
  Rng rng(7);
  const size_t n = shared->index().NumVertices();
  for (size_t i = 0; i < num_queries; ++i) {
    workload.push_back(
        {static_cast<Vertex>(rng.NextBounded(n)),
         static_cast<Vertex>(rng.NextBounded(n)),
         static_cast<Quality>(rng.NextInRange(1, dataset.num_qualities))});
  }

  std::printf("net serve: %zu vertices, %zu entries, %zu engine threads\n",
              n, shared->index().TotalEntries(), shared->num_threads());
  TablePrinter table("network serving throughput",
                     {"mode", "conns", "queries", "q/s", "us/query"},
                     {10, 6, 9, 12, 9});
  BenchJsonWriter writer("net_serve");
  for (bool batch_frames : {false, true}) {
    const char* mode = batch_frames ? "batch" : "pipelined";
    for (size_t c : conns) {
      LoadResult result =
          RunLoad(server.value().port(), c, rounds, workload, batch_frames);
      if (result.errors > 0 || result.queries == 0) {
        std::fprintf(stderr, "load run failed (mode=%s conns=%zu)\n", mode,
                     c);
        return 1;
      }
      double qps = static_cast<double>(result.queries) / result.seconds;
      double us = result.seconds * 1e6 /
                  static_cast<double>(result.queries);
      char qps_cell[32], us_cell[32];
      std::snprintf(qps_cell, sizeof(qps_cell), "%.0f", qps);
      std::snprintf(us_cell, sizeof(us_cell), "%.2f", us);
      table.Row({mode, std::to_string(c), std::to_string(result.queries),
                 qps_cell, us_cell});
      BenchRecord record;
      record.name = std::string("BM_NetServe/mode:") + mode +
                    "/conns:" + std::to_string(c);
      record.median_ns = result.seconds * 1e9 /
                         static_cast<double>(result.queries);
      record.threads = c;
      record.backend = "flat";
      writer.Record(std::move(record));
    }
  }
  server.value().Stop();

  // Reactor-scaling sweep: per-core configuration (engine threads = 1, the
  // reactors are the parallelism), fresh server per reactor count.
  std::vector<size_t> reactor_counts =
      ParseConnList(flags.GetString("reactors", "1,2,4"));
  size_t reactor_conns =
      static_cast<size_t>(flags.GetInt("reactor-conns", 8));
  QueryEngineOptions percore_options;
  percore_options.num_threads = 1;
  auto percore_engine = QueryEngine::Open(snap, percore_options);
  if (!percore_engine.ok()) {
    std::fprintf(stderr, "engine open failed: %s\n",
                 percore_engine.status().ToString().c_str());
    return 1;
  }
  auto percore = std::make_shared<const QueryEngine>(
      std::move(percore_engine).value());
  TablePrinter reactor_table(
      "reactor scaling (per-core: 1 engine thread per reactor)",
      {"mode", "reactors", "conns", "q/s", "active"}, {10, 8, 6, 12, 6});
  for (bool batch_frames : {false, true}) {
    const char* mode = batch_frames ? "batch" : "pipelined";
    for (size_t r : reactor_counts) {
      WcServerOptions server_options;
      server_options.num_reactors = r;
      auto rserver =
          WcServer::Start(MakeQueryService(percore), server_options);
      if (!rserver.ok()) {
        std::fprintf(stderr, "server start failed (reactors=%zu): %s\n", r,
                     rserver.status().ToString().c_str());
        return 1;
      }
      LoadResult result = RunLoad(rserver.value().port(), reactor_conns,
                                  rounds, workload, batch_frames);
      if (result.errors > 0 || result.queries == 0) {
        std::fprintf(stderr, "load run failed (mode=%s reactors=%zu)\n",
                     mode, r);
        return 1;
      }
      std::vector<WcReactorStats> per_reactor =
          rserver.value().reactor_stats();
      rserver.value().Stop();
      size_t active = 0;
      for (const WcReactorStats& stats : per_reactor) {
        if (stats.frames_served > 0) ++active;
      }
      double qps = static_cast<double>(result.queries) / result.seconds;
      char qps_cell[32];
      std::snprintf(qps_cell, sizeof(qps_cell), "%.0f", qps);
      reactor_table.Row({mode, std::to_string(r),
                         std::to_string(reactor_conns), qps_cell,
                         std::to_string(active)});
      BenchRecord record;
      record.name = std::string("BM_NetServeReactors/mode:") + mode +
                    "/reactors:" + std::to_string(r);
      record.median_ns =
          result.seconds * 1e9 / static_cast<double>(result.queries);
      record.threads = r;
      record.backend = "flat";
      record.counters.emplace_back("reactors",
                                   static_cast<double>(per_reactor.size()));
      record.counters.emplace_back("active_reactors",
                                   static_cast<double>(active));
      for (size_t i = 0; i < per_reactor.size(); ++i) {
        record.counters.emplace_back(
            "reactor" + std::to_string(i) + "_frames",
            static_cast<double>(per_reactor[i].frames_served));
        record.counters.emplace_back(
            "reactor" + std::to_string(i) + "_conns",
            static_cast<double>(per_reactor[i].connections_accepted));
      }
      writer.Record(std::move(record));
    }
  }

  std::remove(snap.c_str());
  std::string path;
  Status st = writer.WriteFile(&path);
  if (!st.ok()) {
    std::fprintf(stderr, "BENCH json: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu records)\n", path.c_str(),
              writer.records().size());
  return 0;
}

}  // namespace
}  // namespace wcsd

int main(int argc, char** argv) { return wcsd::Run(argc, argv); }

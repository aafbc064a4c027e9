// The benchmark's serving process: one WcServer reactor over one serving
// engine, assembled from the library's public pieces the way
// `wcsd_cli serve` assembles them, and steered by the runner through
// line commands on stdin (one reply line each on stdout):
//
//   usage                      -> usage <cpu_ns> <rss_kib>
//   trace on | trace off       -> ok            (span recording switch)
//   dump <path>                -> dumped <spans> <dropped>
//   swap <snap> <delta> <graph> -> swapped <generation> <recv_ns> <done_ns>
//                                   <dropped_intervals> <hits> <lookups>
//   quit (or end of input)     -> bye <frames> <protocol_errors> <overload>
//                                   <deadline> <shard_unavailable>
//
// Start-up prints `ready <port> <open_start_ns> <open_end_ns>`, bracketing
// the engine open (QueryEngine::Open / ShardedQueryEngine::OpenManifest,
// including the result cache's fingerprint pass). After a swap, <hits> of
// the shared result cache's first <lookups> (>= 2000, or whatever arrived
// within two seconds) show how warm the scoped invalidation kept it.
//
// Flags:
//   --snapshot=P | --manifest=P   what to serve (flat/compressed snapshot
//                                 or a shard-set manifest)
//   --cache-kib=N                 shared result cache budget (0 = none)
//   --decode-cache-kib=N          decoded-label cache budget (0 = none)
//   --graph=P                     binary graph enabling kPath
//   --swappable                   serve through SwappableQueryService
//   --trace                       wrap each generation in the span decorator
//   --reactor-cpu=C --control-cpu=C  CPU pinning (-1 = leave unpinned)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "graph/io.h"
#include "labeling/delta.h"
#include "net/server.h"
#include "net/swap_service.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "serve/sharded_engine.h"
#include "util/flags.h"

namespace perfbench {
namespace {

using wcsd::BatchQueryInput;
using wcsd::Distance;
using wcsd::ProfilePoint;
using wcsd::QueryEngineStats;
using wcsd::QueryService;
using wcsd::Quality;
using wcsd::RankedCandidate;
using wcsd::ServeOutcome;
using wcsd::Vertex;

/// Fixed-capacity span buffer, switched on only for traced phases. The
/// reactor records under an uncontended mutex; the control thread dumps
/// under the same mutex.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) { spans_.reserve(capacity); }

  void Record(const ServerSpan& span) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
  }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Writes the recorded spans to `path` and empties the buffer. Returns
  /// {written, dropped past capacity}.
  std::pair<size_t, size_t> Dump(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t written = 0;
    if (FILE* f = std::fopen(path.c_str(), "wb")) {
      written =
          std::fwrite(spans_.data(), sizeof(ServerSpan), spans_.size(), f);
      if (std::fclose(f) != 0) written = 0;
    }
    const std::pair<size_t, size_t> result{written, dropped_};
    spans_.clear();
    dropped_ = 0;
    return result;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<ServerSpan> spans_;  // guarded by mu_
  size_t dropped_ = 0;             // guarded by mu_
};

/// The benchmark-owned decorator around one generation's engine service:
/// every call the wire server makes into the QueryService becomes one
/// ServerSpan. Pure forwarding otherwise.
class TracingService final : public QueryService {
 public:
  TracingService(std::shared_ptr<const QueryService> inner,
                 uint32_t generation, SpanRecorder* recorder)
      : inner_(std::move(inner)),
        generation_(generation),
        recorder_(recorder) {}

  Distance Query(Vertex s, Vertex t, Quality w) const override {
    return inner_->Query(s, t, w);
  }
  std::vector<Distance> Batch(
      const std::vector<BatchQueryInput>& queries) const override {
    return inner_->Batch(queries);
  }
  uint64_t NumVertices() const override { return inner_->NumVertices(); }
  QueryEngineStats Stats() const override { return inner_->Stats(); }
  std::vector<wcsd::ShardBalanceEntry> ShardBalance() const override {
    return inner_->ShardBalance();
  }
  ServeOutcome QueryEx(Vertex s, Vertex t, Quality w,
                       Distance* out) const override {
    const int64_t start = NowNs();
    ServeOutcome outcome = inner_->QueryEx(s, t, w, out);
    Record(start, s, t);
    return outcome;
  }
  ServeOutcome BatchEx(const std::vector<BatchQueryInput>& queries,
                       std::vector<Distance>* out) const override {
    const int64_t start = NowNs();
    ServeOutcome outcome = inner_->BatchEx(queries, out);
    Record(start, queries.empty() ? 0 : queries[0].s,
           queries.empty() ? 0 : queries[0].t);
    return outcome;
  }
  ServeOutcome TopKEx(Vertex source, std::span<const Vertex> candidates,
                      Quality w, size_t k,
                      std::vector<RankedCandidate>* out) const override {
    const int64_t start = NowNs();
    ServeOutcome outcome = inner_->TopKEx(source, candidates, w, k, out);
    Record(start, source, 0);
    return outcome;
  }
  ServeOutcome ProfileEx(Vertex s, Vertex t,
                         std::span<const Quality> thresholds,
                         std::vector<ProfilePoint>* out) const override {
    const int64_t start = NowNs();
    ServeOutcome outcome = inner_->ProfileEx(s, t, thresholds, out);
    Record(start, s, t);
    return outcome;
  }
  ServeOutcome PathEx(Vertex s, Vertex t, Quality w,
                      std::vector<Vertex>* out) const override {
    const int64_t start = NowNs();
    ServeOutcome outcome = inner_->PathEx(s, t, w, out);
    Record(start, s, t);
    return outcome;
  }

 private:
  void Record(int64_t start, Vertex s, Vertex t) const {
    recorder_->Record({start, NowNs(), s, t, generation_});
  }

  std::shared_ptr<const QueryService> inner_;
  uint32_t generation_;
  SpanRecorder* recorder_;
};

/// One opened serving generation.
struct Generation {
  std::shared_ptr<const QueryService> service;
  /// Single-snapshot engines only: the scoped cache invalidation of the
  /// next swap probes this generation's index through it.
  std::shared_ptr<const wcsd::QueryEngine> engine;
  uint64_t fingerprint = 0;
};

wcsd::Result<Generation> OpenGeneration(const std::string& snapshot,
                                        const std::string& manifest,
                                        const wcsd::QueryEngineOptions& options) {
  Generation gen;
  if (!manifest.empty()) {
    auto engine = wcsd::ShardedQueryEngine::OpenManifest(manifest, options);
    if (!engine.ok()) return engine.status();
    auto shared = std::make_shared<const wcsd::ShardedQueryEngine>(
        std::move(engine).value());
    gen.fingerprint = shared->cache_fingerprint();
    gen.service = wcsd::MakeQueryService(std::move(shared));
    return gen;
  }
  auto engine = wcsd::QueryEngine::Open(snapshot, options);
  if (!engine.ok()) return engine.status();
  gen.engine =
      std::make_shared<const wcsd::QueryEngine>(std::move(engine).value());
  gen.fingerprint = gen.engine->cache_fingerprint();
  gen.service = wcsd::MakeQueryService(gen.engine);
  return gen;
}

wcsd::Result<std::shared_ptr<const wcsd::QualityGraph>> LoadGraph(
    const std::string& path) {
  auto graph = wcsd::ReadBinaryGraph(path);
  if (!graph.ok()) return graph.status();
  return std::make_shared<const wcsd::QualityGraph>(std::move(graph).value());
}

void Reply(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  wcsd::Flags flags(argc, argv);
  const std::string snapshot = flags.GetString("snapshot", "");
  const std::string manifest = flags.GetString("manifest", "");
  if (snapshot.empty() == manifest.empty()) {
    std::fprintf(stderr, "server: pass exactly one of --snapshot/--manifest\n");
    return 2;
  }
  const int reactor_cpu = static_cast<int>(flags.GetInt("reactor-cpu", -1));
  const int control_cpu = static_cast<int>(flags.GetInt("control-cpu", -1));
  const bool trace = flags.GetBool("trace", false);
  // The reactor thread inherits this pinning when WcServer starts it.
  if (reactor_cpu >= 0) PinCurrentThread({reactor_cpu});

  wcsd::QueryEngineOptions options;
  options.num_threads = 1;  // queries run inline on the one reactor
  options.decode_cache_bytes =
      static_cast<size_t>(flags.GetInt("decode-cache-kib", 0)) << 10;
  std::shared_ptr<wcsd::ResultCache> cache;
  if (flags.GetInt("cache-kib", 0) > 0) {
    cache = std::make_shared<wcsd::ResultCache>(
        static_cast<size_t>(flags.GetInt("cache-kib", 0)) << 10);
    options.shared_cache = cache;
  }
  const std::string graph_path = flags.GetString("graph", "");
  if (!graph_path.empty()) {
    auto graph = LoadGraph(graph_path);
    if (!graph.ok()) {
      std::fprintf(stderr, "server: %s\n", graph.status().ToString().c_str());
      return 1;
    }
    options.graph = graph.value();
  }

  const int64_t open_start = NowNs();
  auto opened = OpenGeneration(snapshot, manifest, options);
  const int64_t open_end = NowNs();
  if (!opened.ok()) {
    std::fprintf(stderr, "server: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  Generation current = std::move(opened).value();

  SpanRecorder recorder(trace ? (1u << 20) : 0);
  uint32_t generation = 1;
  auto wrap = [&](std::shared_ptr<const QueryService> service) {
    if (!trace) return service;
    return std::shared_ptr<const QueryService>(
        std::make_shared<TracingService>(std::move(service), generation,
                                         &recorder));
  };
  std::shared_ptr<wcsd::SwappableQueryService> swappable;
  std::shared_ptr<const QueryService> top = wrap(current.service);
  if (flags.GetBool("swappable", false)) {
    swappable = std::make_shared<wcsd::SwappableQueryService>(top);
    top = swappable;
  }

  wcsd::WcServerOptions server_options;
  server_options.num_reactors = 1;
  auto started = wcsd::WcServer::Start(top, server_options);
  if (!started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.status().ToString().c_str());
    return 1;
  }
  wcsd::WcServer server = std::move(started).value();
  if (control_cpu >= 0) PinCurrentThread({control_cpu});
  Reply("ready " + std::to_string(server.port()) + " " +
        std::to_string(open_start) + " " + std::to_string(open_end));

  std::string line;
  while (std::getline(std::cin, line)) {
    std::vector<std::string> words = Split(line, ' ');
    if (words.empty()) continue;
    const std::string& cmd = words[0];
    if (cmd == "quit") break;
    if (cmd == "usage") {
      Reply("usage " + std::to_string(ProcessCpuNs()) + " " +
            std::to_string(ResidentKib()));
    } else if (cmd == "trace" && words.size() == 2) {
      recorder.SetEnabled(words[1] == "on");
      Reply("ok");
    } else if (cmd == "dump" && words.size() == 2) {
      auto [kept, dropped] = recorder.Dump(words[1]);
      Reply("dumped " + std::to_string(kept) + " " + std::to_string(dropped));
    } else if (cmd == "swap" && words.size() == 4 && swappable) {
      // The `serve --watch` reload, driven by command instead of mtime:
      // open the next snapshot with a pre-bind hook that scopes the shared
      // cache's invalidation to the delta, then publish it.
      const int64_t recv_ns = NowNs();
      wcsd::QueryEngineOptions next_options = options;
      auto graph = LoadGraph(words[3]);
      if (!graph.ok()) {
        Reply("swap-failed " + graph.status().ToString());
        continue;
      }
      next_options.graph = graph.value();
      size_t dropped = 0;
      if (cache) {
        next_options.pre_bind_invalidate = [&](uint64_t next_fingerprint) {
          auto log = wcsd::ReadDeltaLog(words[2]);
          if (!log.ok() ||
              log.value().base_fingerprint != current.fingerprint ||
              current.engine == nullptr) {
            return;  // the engine's own Rebind wipes wholesale
          }
          auto old_engine = current.engine;
          auto coupled = [old_engine](Vertex s, Vertex t,
                                      const wcsd::DeltaImpact& impact,
                                      Quality w_test) {
            const wcsd::WcIndex& index = old_engine->index();
            return (index.Query(s, impact.u, w_test) != wcsd::kInfDistance &&
                    index.Query(impact.v, t, w_test) != wcsd::kInfDistance) ||
                   (index.Query(s, impact.v, w_test) != wcsd::kInfDistance &&
                    index.Query(impact.u, t, w_test) != wcsd::kInfDistance);
          };
          dropped = cache->InvalidateDelta(
              next_fingerprint, wcsd::DeltaImpacts(log.value()), coupled);
        };
      }
      auto next = OpenGeneration(words[1], "", next_options);
      if (!next.ok()) {
        Reply("swap-failed " + next.status().ToString());
        continue;
      }
      current = std::move(next).value();
      ++generation;
      swappable->Swap(wrap(current.service));
      const int64_t done_ns = NowNs();
      uint64_t hits = 0;
      uint64_t lookups = 0;
      if (cache) {
        const wcsd::ResultCacheStats base = cache->stats();
        while (NowNs() - done_ns < 2000000000LL) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          const wcsd::ResultCacheStats now = cache->stats();
          hits = now.hits - base.hits;
          lookups = now.hits + now.misses - base.hits - base.misses;
          if (lookups >= 2000) break;
        }
      }
      Reply("swapped " + std::to_string(generation) + " " +
            std::to_string(recv_ns) + " " + std::to_string(done_ns) + " " +
            std::to_string(dropped) + " " + std::to_string(hits) + " " +
            std::to_string(lookups));
    } else {
      Reply("error unknown command: " + line);
    }
  }

  server.Stop();
  const wcsd::WcServerStats stats = server.stats();
  Reply("bye " + std::to_string(stats.frames_served) + " " +
        std::to_string(stats.protocol_errors) + " " +
        std::to_string(stats.overload_rejections) + " " +
        std::to_string(stats.deadline_rejections) + " " +
        std::to_string(stats.shard_unavailable));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

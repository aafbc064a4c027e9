// wcsd — command-line front end for the library.
//
// Every index file is a snapshot (labeling/snapshot.h); a shard set is
// always named by its manifest.
//
// Subcommands:
//   build     --graph=<file> --index=<out> [--order=degree|tree|hybrid]
//             [--threads=<n>] [--batch=<n>] [--format=edges|dimacs]
//             build a WC-INDEX and save it as a snapshot; --threads=0 uses
//             all cores via the rank-batched parallel pipeline
//             (byte-identical output), --batch overrides the auto batch
//             schedule
//   query     (--index=<file> | --manifest=<file>) --s=<v> --t=<v> --w=<q>
//             [--cache-mb=M] [--path --graph=<file>]
//             [--topk=K [--candidates=v1,v2,...]]
//             [--profile --thresholds=w1,w2,...]
//             answer one query through the serving engine, over a
//             snapshot or a shard set (see `shard`); --cache-mb enables
//             the dominance-aware result cache. --path prints the route.
//             --topk ranks the candidates (default: every vertex) by
//             constrained distance from --s and keeps the K closest;
//             --profile sweeps the (w, d) trade-off curve for (--s, --t) at
//             the given thresholds via the interval kernel (one label merge
//             per distinct certified interval, not per threshold)
//   query     --connect=<host:port> --s=<v> --t=<v> --w=<q>
//             [--deadline-ms=5000] [--retries=R]
//             [--topk=K [--candidates=...]]
//             [--profile --thresholds=...] [--path]
//             answer one query over the wire protocol from a running
//             `serve --listen` server; --deadline-ms bounds the connect and
//             then the whole call end to end (0 = unbounded) and --retries
//             retries connect failures and kOverloaded rejections with
//             backoff (both via WcClientOptions); the old per-syscall
//             --timeout-ms is refused. --topk/--profile/--path speak the v6
//             kTopK/kProfile/kPath frames (--path needs the server started
//             with `serve --graph`; servers without one refuse with
//             kNotSupported, surfaced as an Unimplemented status)
//   stats     --index=<file>                 label statistics
//   verify    --graph=<file> --index=<file>  brute-force Theorem 1 checks
//             over the labels the snapshot serves
//   generate  --out=<file> --kind=road|social [--n=...] [--levels=...]
//             [--seed=...]                   write a synthetic dataset
//   snapshot  --index=<file> --out=<file> [--compress]
//             re-encode a snapshot: --compress stores the labels
//             delta/varint-encoded (v3 sections, labeling/compressed_flat.h)
//             — served straight off the blob, bit-identical answers, ~3x
//             smaller at rest; without it the labels come out flat
//   shard     --index=<file> --out=<stem> (--shards=N | --max-bytes=B)
//             [--even] [--compress]
//             plan label-mass-balanced shard boundaries (greedy prefix-sum
//             split; --even cuts even vertex ranges instead), write
//             <stem>.shard0 .. <stem>.shard{K-1} snapshot files and the
//             <stem>.manifest shard-set manifest, and print the per-shard
//             balance plus planned-vs-even byte skew
//   delta     --out=<file> [--base-snapshot=<snap>]
//             [--add=u,v,q[;u,v,q...]] [--remove=u,v[,q][;...]]
//             [--upgrade=u,v,q_old,q_new[;...]]
//             author a versioned CRC-checksummed delta log
//             (labeling/delta.h) of edge inserts/deletes/upgrades;
//             --base-snapshot stamps the log with that snapshot's content
//             fingerprint so `update` can refuse a mismatched base
//   update    --snapshot=<in> --graph=<file> --delta=<file> --out=<snap>
//             [--out-graph=<file>] [--format=edges|dimacs]
//             [--order=degree|tree|hybrid] [--threads=<n>]
//             apply a delta log to a snapshot: insert/upgrade-only logs
//             repair the labels in place (Akiba-style resumed constrained
//             BFS, core/dynamic_wc_index.h); any delete falls back to one
//             rebuild. Emits a new snapshot (atomic write; --out may equal
//             --snapshot) with a new content fingerprint, and --out-graph
//             writes the updated edge list so graph and snapshot stay
//             paired for the next update
//   serve     --snapshot=<file> | --manifest=<file>
//             [--graph=<file>]
//             [--queries=N] [--threads=T] [--cache-mb=M]
//             [--seed=S] [--levels=L]
//             [--verify] [--verify-level=offsets|directory|deep]
//             [--listen=PORT [--host=ADDR] [--max-seconds=S]
//              [--reactors=R]]
//             [--idle-timeout-ms=MS] [--header-timeout-ms=MS]
//             [--request-deadline-ms=MS] [--max-batch=N] [--drain-ms=MS]
//             [--quarantine [--fallback-graph=<file>]]
//             [--watch [--delta=<file>]]
//             [--cold-tier] [--decode-cache-mb=M]
//             mmap one snapshot, or (--manifest) a whole validated shard
//             set in one step, and either drive a random local batch
//             workload (default) or, with --listen, serve the wire
//             protocol (net/wire.h) on PORT until SIGINT (immediate stop),
//             SIGTERM (graceful drain: finish in-flight work, then exit),
//             or --max-seconds; --reactors=R runs R per-core epoll event
//             loops sharing the port via SO_REUSEPORT (answers are
//             bit-identical at any R; with R>1 and no explicit --threads
//             each engine runs single-threaded so queries execute inline
//             on the owning reactor's core); --verify checks section
//             checksums and deep
//             label invariants at load, --verify-level picks the middle
//             O(hub-groups) tier on its own; --cache-mb=M budgets M MiB
//             for the dominance-aware result cache (serve/result_cache.h;
//             0 = off) and reports its hit rate after a local run;
//             --idle/--header-timeout-ms close silent and slow-loris
//             connections, --request-deadline-ms and --max-batch shed
//             overload with clean error frames, --drain-ms bounds the
//             SIGTERM drain, and --quarantine (manifest only) serves a
//             shard set degraded when some shards are corrupt or missing
//             (--fallback-graph answers quarantined-range queries online;
//             the kTopK/kProfile/kPath families refuse on any quarantined
//             touch regardless — the fallback covers distances only);
//             --graph loads the edge list so the server can answer kPath
//             path-reconstruction frames (omitted = kNotSupported);
//             --watch (with --listen) hot-reloads the snapshot/manifest on
//             SIGHUP or file mtime change: in-flight queries finish on the
//             old index, new requests land on the new one, zero dropped
//             queries, and the wire Stats generation counter (protocol v5)
//             bumps on every swap — with --cache-mb one cache is shared
//             across generations, invalidated scoped-by-delta when --delta
//             names a log whose base fingerprint matches the outgoing
//             snapshot (only entries the delta can touch are dropped),
//             wholesale otherwise; --cold-tier serves a compressed
//             snapshot straight off its mapping — the blob pages in from
//             disk on demand; distance queries stream the varint bytes,
//             and a decoded-label cache fronts the requests that decode
//             (--decode-cache-mb=M budgets it, default 64; M > 0 on its
//             own enables the cache without requiring the cold tier)
//
// Examples:
//   wcsd_cli generate --out=g.edges --kind=road --n=10000 --levels=5
//   wcsd_cli build --graph=g.edges --index=g.wcsnap --order=hybrid
//   wcsd_cli query --index=g.wcsnap --s=3 --t=99 --w=2
//   wcsd_cli snapshot --index=g.wcsnap --out=g_c.wcsnap --compress
//   wcsd_cli serve --snapshot=g.wcsnap --queries=100000 --threads=4
//   wcsd_cli shard --index=g.wcsnap --out=g --shards=4
//   wcsd_cli serve --manifest=g.manifest --listen=9000
//   wcsd_cli delta --out=g.delta --base-snapshot=g.wcsnap --add=3,99,4
//   wcsd_cli update --snapshot=g.wcsnap --graph=g.edges --delta=g.delta
//       --out=g.wcsnap --out-graph=g.edges
//   wcsd_cli serve --snapshot=g.wcsnap --listen=9000 --watch --cache-mb=64

#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/dynamic_wc_index.h"
#include "core/path_index.h"
#include "core/verifier.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "labeling/delta.h"
#include "labeling/label_stats.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "labeling/snapshot.h"
#include "net/client.h"
#include "net/server.h"
#include "net/swap_service.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "util/checksum.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/timer.h"

namespace wcsd {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wcsd_cli "
               "<build|query|stats|verify|generate|snapshot|shard|delta|"
               "update|serve> "
               "[--flags]\n(see the header of tools/wcsd_cli.cc)\n");
  return 2;
}

Result<QualityGraph> LoadGraph(const Flags& flags) {
  std::string path = flags.GetString("graph", "");
  if (path.empty()) return Status::InvalidArgument("--graph is required");
  std::string format = flags.GetString("format", "edges");
  if (format == "dimacs") return ReadDimacsFile(path);
  if (format == "edges") return ReadEdgeListFile(path);
  return Status::InvalidArgument("unknown --format: " + format);
}

int CmdBuild(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::string out = flags.GetString("index", "");
  if (out.empty()) {
    std::fprintf(stderr, "error: --index is required\n");
    return 1;
  }
  WcIndexOptions options = WcIndexOptions::Plus();
  std::string order = flags.GetString("order", "hybrid");
  if (order == "degree") {
    options.ordering = WcIndexOptions::Ordering::kDegree;
  } else if (order == "tree") {
    options.ordering = WcIndexOptions::Ordering::kTreeDecomposition;
  } else if (order == "hybrid") {
    options.ordering = WcIndexOptions::Ordering::kHybrid;
  } else {
    std::fprintf(stderr, "error: unknown --order: %s\n", order.c_str());
    return 1;
  }
  int64_t threads = flags.GetInt("threads", 1);
  int64_t batch = flags.GetInt("batch", 0);
  if (threads < 0 || batch < 0) {
    std::fprintf(stderr, "error: --threads/--batch must be >= 0\n");
    return 1;
  }
  options.num_threads = static_cast<size_t>(threads);
  options.batch_size = static_cast<size_t>(batch);
  Timer timer;
  WcIndex index = WcIndex::Build(graph.value(), options);
  std::printf(
      "built in %.2f s (merge %.2f s): %zu vertices, %zu entries, %zu bytes\n",
      timer.Seconds(), index.build_stats().merge_seconds, index.NumVertices(),
      index.TotalEntries(), index.MemoryBytes());
  index.Finalize();
  Status st = index.SaveSnapshot(out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("saved to %s\n", out.c_str());
  return 0;
}

/// Splits "host:port"; returns false on a missing/invalid port.
bool ParseHostPort(const std::string& spec, std::string* host,
                   uint16_t* port) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) return false;
  *host = spec.substr(0, colon);
  char* end = nullptr;
  long p = std::strtol(spec.c_str() + colon + 1, &end, 10);
  if (p <= 0 || p > 65535 || end == nullptr || *end != '\0') return false;
  *port = static_cast<uint16_t>(p);
  return !host->empty();
}

/// Parses a comma-separated list of vertex ids ("3,5,9").
bool ParseVertexList(const std::string& spec, std::vector<Vertex>* out) {
  size_t begin = 0;
  while (begin < spec.size()) {
    size_t comma = spec.find(',', begin);
    if (comma == std::string::npos) comma = spec.size();
    std::string field = spec.substr(begin, comma - begin);
    char* end = nullptr;
    long v = std::strtol(field.c_str(), &end, 10);
    if (field.empty() || end == nullptr || *end != '\0' || v < 0) {
      return false;
    }
    out->push_back(static_cast<Vertex>(v));
    begin = comma + 1;
  }
  return true;
}

/// Parses a comma-separated list of quality thresholds ("1,2.5,4").
bool ParseQualityList(const std::string& spec, std::vector<Quality>* out) {
  size_t begin = 0;
  while (begin < spec.size()) {
    size_t comma = spec.find(',', begin);
    if (comma == std::string::npos) comma = spec.size();
    std::string field = spec.substr(begin, comma - begin);
    char* end = nullptr;
    double w = std::strtod(field.c_str(), &end);
    if (field.empty() || end == nullptr || *end != '\0') return false;
    out->push_back(static_cast<Quality>(w));
    begin = comma + 1;
  }
  return true;
}

/// Resolves --candidates for `query --topk`; an omitted flag means every
/// vertex except the source (the classic "k closest anywhere" shape).
bool ResolveCandidates(const Flags& flags, Vertex source, size_t n,
                       std::vector<Vertex>* out) {
  std::string spec = flags.GetString("candidates", "");
  if (!spec.empty()) {
    if (!ParseVertexList(spec, out)) {
      std::fprintf(stderr, "error: malformed --candidates: %s\n",
                   spec.c_str());
      return false;
    }
    return true;
  }
  out->reserve(n);
  for (size_t v = 0; v < n; ++v) {
    if (static_cast<Vertex>(v) != source) {
      out->push_back(static_cast<Vertex>(v));
    }
  }
  return true;
}

/// Parses --thresholds for `query --profile`.
bool ResolveThresholds(const Flags& flags, std::vector<Quality>* out) {
  std::string spec = flags.GetString("thresholds", "");
  if (spec.empty() || !ParseQualityList(spec, out) || out->empty()) {
    std::fprintf(stderr,
                 "error: --profile wants --thresholds=w1,w2,... (got %s)\n",
                 spec.empty() ? "nothing" : spec.c_str());
    return false;
  }
  return true;
}

void PrintTopK(Vertex source, Quality w, size_t k,
               const std::vector<RankedCandidate>& ranked, double micros,
               const std::string& via) {
  std::printf("top-%zu closest to %u (w >= %g)   (%.1f us%s%s)\n", k, source,
              w, micros, via.empty() ? "" : " via ", via.c_str());
  if (ranked.empty()) std::printf("  (no candidate reachable)\n");
  for (size_t i = 0; i < ranked.size(); ++i) {
    std::printf("  #%zu  vertex %u  dist %u\n", i + 1, ranked[i].vertex,
                ranked[i].dist);
  }
}

void PrintProfile(Vertex s, Vertex t,
                  const std::vector<ProfilePoint>& profile, double micros,
                  const std::string& via) {
  std::printf("profile(%u, %u)   (%.1f us%s%s)\n", s, t, micros,
              via.empty() ? "" : " via ", via.c_str());
  for (const ProfilePoint& p : profile) {
    if (p.dist == kInfDistance) {
      std::printf("  w >= %g: INF\n", p.quality);
    } else {
      std::printf("  w >= %g: %u\n", p.quality, p.dist);
    }
  }
}

void PrintPath(Vertex s, Vertex t, Quality w,
               const std::vector<Vertex>& path, double micros,
               const std::string& via) {
  if (path.empty()) {
    std::printf("path(%u, %u | w >= %g) = unreachable   (%.1f us%s%s)\n", s,
                t, w, micros, via.empty() ? "" : " via ", via.c_str());
    return;
  }
  std::printf("path(%u, %u | w >= %g), %zu hops:", s, t, w, path.size() - 1);
  for (Vertex v : path) std::printf(" %u", v);
  std::printf("   (%.1f us%s%s)\n", micros, via.empty() ? "" : " via ",
              via.c_str());
}

int CmdRemoteQuery(const Flags& flags, const std::string& connect) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(connect, &host, &port)) {
    std::fprintf(stderr, "error: --connect wants host:port, got %s\n",
                 connect.c_str());
    return 1;
  }
  if (flags.Has("timeout-ms")) {
    std::fprintf(stderr,
                 "error: --timeout-ms is gone; --deadline-ms bounds the "
                 "connect and the whole call (default 5000)\n");
    return 1;
  }
  int64_t deadline_ms = flags.GetInt("deadline-ms", 5000);
  int64_t retries = flags.GetInt("retries", 0);
  if (deadline_ms < 0 || retries < 0) {
    std::fprintf(stderr, "error: --deadline-ms/--retries must be >= 0\n");
    return 1;
  }
  if (retries > int64_t{UINT32_MAX}) {
    std::fprintf(stderr,
                 "error: --retries wants a count in [0, 4294967295]\n");
    return 1;
  }
  WcClientOptions options;
  options.deadline_ms = static_cast<uint64_t>(deadline_ms);
  options.max_retries = static_cast<uint32_t>(retries);
  Result<WcClient> client = WcClient::Connect(host, port, options);
  if (!client.ok()) {
    std::fprintf(stderr, "error: %s\n", client.status().ToString().c_str());
    return 1;
  }
  Vertex s = static_cast<Vertex>(flags.GetInt("s", 0));
  Vertex t = static_cast<Vertex>(flags.GetInt("t", 0));
  Quality w = static_cast<Quality>(flags.GetDouble("w", 1.0));
  int64_t topk = flags.GetInt("topk", 0);
  if (topk < 0) {
    std::fprintf(stderr, "error: --topk must be >= 1\n");
    return 1;
  }
  if (topk > 0) {
    // Without --candidates, ask the server how many vertices it serves and
    // rank all of them.
    std::vector<Vertex> candidates;
    std::string spec = flags.GetString("candidates", "");
    if (!spec.empty()) {
      if (!ParseVertexList(spec, &candidates)) {
        std::fprintf(stderr, "error: malformed --candidates: %s\n",
                     spec.c_str());
        return 1;
      }
    } else {
      auto health = client.value().Health();
      if (!health.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     health.status().ToString().c_str());
        return 1;
      }
      if (!ResolveCandidates(flags, s,
                             static_cast<size_t>(health.value().num_vertices),
                             &candidates)) {
        return 1;
      }
    }
    Timer timer;
    auto ranked =
        client.value().TopK(s, candidates, w, static_cast<uint32_t>(topk));
    if (!ranked.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   ranked.status().ToString().c_str());
      return 1;
    }
    PrintTopK(s, w, static_cast<size_t>(topk), ranked.value(),
              timer.Micros(), connect);
    return 0;
  }
  if (flags.GetBool("profile", false)) {
    std::vector<Quality> thresholds;
    if (!ResolveThresholds(flags, &thresholds)) return 1;
    Timer timer;
    auto profile = client.value().Profile(s, t, thresholds);
    if (!profile.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   profile.status().ToString().c_str());
      return 1;
    }
    PrintProfile(s, t, profile.value(), timer.Micros(), connect);
    return 0;
  }
  if (flags.GetBool("path", false)) {
    Timer timer;
    auto path = client.value().Path(s, t, w);
    if (!path.ok()) {
      std::fprintf(stderr, "error: %s\n", path.status().ToString().c_str());
      return 1;
    }
    PrintPath(s, t, w, path.value(), timer.Micros(), connect);
    return 0;
  }
  Timer timer;
  auto d = client.value().Query(s, t, w);
  double micros = timer.Micros();
  if (!d.ok()) {
    std::fprintf(stderr, "error: %s\n", d.status().ToString().c_str());
    return 1;
  }
  if (d.value() == kInfDistance) {
    std::printf("dist(%u, %u | w >= %g) = INF   (%.1f us over %s)\n", s, t,
                w, micros, connect.c_str());
  } else {
    std::printf("dist(%u, %u | w >= %g) = %u   (%.1f us over %s)\n", s, t,
                w, d.value(), micros, connect.c_str());
  }
  return 0;
}

/// Parses --cache-mb into a byte budget; negative values report an error
/// through the returned flag.
bool ParseCacheBytes(const Flags& flags, size_t* bytes) {
  // 1 TiB upper bound: keeps the <<20 from wrapping and turns a fat-finger
  // budget into an error instead of a bad_alloc abort.
  constexpr int64_t kMaxCacheMb = int64_t{1} << 20;
  int64_t cache_mb = flags.GetInt("cache-mb", 0);
  if (cache_mb < 0 || cache_mb > kMaxCacheMb) {
    std::fprintf(stderr, "error: --cache-mb must be in [0, %lld]\n",
                 static_cast<long long>(kMaxCacheMb));
    return false;
  }
  *bytes = static_cast<size_t>(cache_mb) << 20;
  return true;
}

/// Opens the engine a local `query` runs on: a snapshot (--index) or a
/// shard set (--manifest).
Result<QueryEngine> OpenQueryEngine(const Flags& flags,
                                    const QueryEngineOptions& options) {
  std::string manifest = flags.GetString("manifest", "");
  if (!manifest.empty()) return QueryEngine::OpenManifest(manifest, options);
  return QueryEngine::Open(flags.GetString("index", ""), options);
}

/// True (after printing why) when the engine refused a request.
bool Refused(ServeOutcome outcome) {
  if (outcome == ServeOutcome::kOk) return false;
  std::fprintf(stderr, "error: %s\n",
               outcome == ServeOutcome::kNotSupported ? "not supported"
                                                      : "shard unavailable");
  return true;
}

int CmdQuery(const Flags& flags) {
  std::string connect = flags.GetString("connect", "");
  if (!connect.empty()) return CmdRemoteQuery(flags, connect);
  QueryEngineOptions options;
  options.num_threads = 1;
  if (!ParseCacheBytes(flags, &options.cache_bytes)) return 1;
  // Path reconstruction walks the edges, so --path needs the graph.
  if (flags.GetBool("path", false)) {
    auto graph = LoadGraph(flags);
    if (!graph.ok()) {
      std::fprintf(stderr, "error (need --graph for --path): %s\n",
                   graph.status().ToString().c_str());
      return 1;
    }
    options.graph =
        std::make_shared<const QualityGraph>(std::move(graph).value());
  }
  auto opened = OpenQueryEngine(flags, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  const QueryEngine& engine = opened.value();
  const std::string via = flags.GetString("manifest", "");
  const size_t n = engine.NumVertices();
  Vertex s = static_cast<Vertex>(flags.GetInt("s", 0));
  Vertex t = static_cast<Vertex>(flags.GetInt("t", 0));
  Quality w = static_cast<Quality>(flags.GetDouble("w", 1.0));
  if (s >= n || t >= n) {
    std::fprintf(stderr, "error: vertex out of range (n=%zu)\n", n);
    return 1;
  }
  int64_t topk = flags.GetInt("topk", 0);
  if (topk > 0) {
    std::vector<Vertex> candidates;
    if (!ResolveCandidates(flags, s, n, &candidates)) return 1;
    std::vector<RankedCandidate> ranked;
    Timer timer;
    if (Refused(engine.TopKEx(s, candidates, w, static_cast<size_t>(topk),
                              &ranked))) {
      return 1;
    }
    PrintTopK(s, w, static_cast<size_t>(topk), ranked, timer.Micros(), via);
    return 0;
  }
  if (flags.GetBool("profile", false)) {
    std::vector<Quality> thresholds;
    if (!ResolveThresholds(flags, &thresholds)) return 1;
    std::vector<ProfilePoint> profile;
    Timer timer;
    if (Refused(engine.ProfileEx(s, t, thresholds, &profile))) return 1;
    PrintProfile(s, t, profile, timer.Micros(), via);
    return 0;
  }
  if (flags.GetBool("path", false)) {
    std::vector<Vertex> path;
    Timer timer;
    if (Refused(engine.PathEx(s, t, w, &path))) return 1;
    PrintPath(s, t, w, path, timer.Micros(), via);
    return 0;
  }
  Distance d = kInfDistance;
  Timer timer;
  if (Refused(engine.QueryEx(s, t, w, &d))) return 1;
  double micros = timer.Micros();
  const size_t shards = engine.num_shards();
  if (d == kInfDistance) {
    std::printf("dist(%u, %u | w >= %g) = INF   (%.1f us, %zu shard%s)\n", s,
                t, w, micros, shards, shards == 1 ? "" : "s");
  } else {
    std::printf("dist(%u, %u | w >= %g) = %u   (%.1f us, %zu shard%s)\n", s,
                t, w, d, micros, shards, shards == 1 ? "" : "s");
  }
  return 0;
}

/// Maps the snapshot at `path`, printing why when it cannot.
std::optional<WcIndex> LoadIndex(const std::string& path) {
  auto loaded = WcIndex::LoadMmap(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(loaded).value();
}

/// The flat labels `index` serves; a compressed index decompresses (a
/// mapped compressed snapshot holds no flat labels at all).
std::optional<FlatLabelSet> ServedFlatLabels(const WcIndex& index) {
  if (!index.compressed()) return index.flat_labels();
  auto flat = index.compressed_labels().Decompress();
  if (!flat.ok()) {
    std::fprintf(stderr, "error: %s\n", flat.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(flat).value();
}

int CmdStats(const Flags& flags) {
  std::optional<WcIndex> index = LoadIndex(flags.GetString("index", ""));
  if (!index) return 1;
  std::optional<FlatLabelSet> flat = ServedFlatLabels(*index);
  if (!flat) return 1;
  const LabelSet labels = flat->ToLabelSet();
  LabelStats stats = ComputeLabelStats(labels);
  std::printf("vertices: %zu\n", index->NumVertices());
  std::printf("%s\n", stats.Summary().c_str());
  std::printf("bytes: %zu\n", index->MemoryBytes());
  std::printf("label-size histogram (bucket = [2^i, 2^(i+1))):\n");
  auto histogram = LabelSizeHistogram(labels);
  for (size_t i = 0; i < histogram.size(); ++i) {
    std::printf("  [%6zu, %6zu): %zu\n", size_t{1} << i, size_t{1} << (i + 1),
                histogram[i]);
  }
  return 0;
}

int CmdVerify(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::optional<WcIndex> index = LoadIndex(flags.GetString("index", ""));
  if (!index) return 1;
  VerificationReport report = VerifyAll(*index, graph.value());
  std::printf("%s\n", report.Summary().c_str());
  return report.ok() ? 0 : 1;
}

int CmdGenerate(const Flags& flags) {
  std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required\n");
    return 1;
  }
  std::string kind = flags.GetString("kind", "road");
  size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  int levels = static_cast<int>(flags.GetInt("levels", 5));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  QualityGraph g;
  if (kind == "road") {
    RoadOptions options;
    options.rows = options.cols =
        std::max<size_t>(4, static_cast<size_t>(std::sqrt(
                                static_cast<double>(n))));
    options.quality.num_levels = levels;
    options.arterial_spacing =
        static_cast<size_t>(flags.GetInt("arterial_spacing", 0));
    g = GenerateRoadNetwork(options, seed);
  } else if (kind == "social") {
    QualityModel quality;
    quality.num_levels = levels;
    size_t epv = static_cast<size_t>(flags.GetInt("edges_per_vertex", 10));
    g = GenerateBarabasiAlbert(std::max<size_t>(8, n), epv, quality, seed);
  } else {
    std::fprintf(stderr, "error: unknown --kind: %s\n", kind.c_str());
    return 1;
  }
  Status st = WriteEdgeListFile(g, out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu vertices, %zu edges, |w| = %zu\n", out.c_str(),
              g.NumVertices(), g.NumEdges(), g.DistinctQualities().size());
  return 0;
}

int CmdSnapshot(const Flags& flags) {
  if (flags.Has("shards")) {
    std::fprintf(stderr, "error: cut shard sets with `shard --even`\n");
    return 1;
  }
  std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required\n");
    return 1;
  }
  std::optional<WcIndex> index = LoadIndex(flags.GetString("index", ""));
  if (!index) return 1;
  SnapshotWriteOptions write_options;
  write_options.compress = flags.GetBool("compress", false);
  Status st = index->SaveSnapshot(out, write_options);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu vertices, %zu entries\n", out.c_str(),
              index->NumVertices(), index->TotalEntries());
  return 0;
}

int CmdShard(const Flags& flags) {
  std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required\n");
    return 1;
  }
  int64_t shards = flags.GetInt("shards", 0);
  int64_t max_bytes = flags.GetInt("max-bytes", 0);
  if (shards < 0 || max_bytes < 0 || (shards > 0) == (max_bytes > 0)) {
    std::fprintf(stderr,
                 "error: pass exactly one of --shards=N or --max-bytes=B\n");
    return 1;
  }
  std::optional<WcIndex> index = LoadIndex(flags.GetString("index", ""));
  if (!index) return 1;
  std::optional<FlatLabelSet> served = ServedFlatLabels(*index);
  if (!served) return 1;
  const FlatLabelSet& flat = *served;

  ShardPlanOptions options;
  options.num_shards = static_cast<size_t>(shards);
  options.max_bytes = static_cast<uint64_t>(max_bytes);
  options.even_vertex = flags.GetBool("even", false);
  Timer timer;
  auto plan = PlanShards(flat, options);
  if (!plan.ok()) {
    std::fprintf(stderr, "error: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  SnapshotWriteOptions write_options;
  write_options.compress = flags.GetBool("compress", false);
  auto written = WriteShardSet(out, flat, plan.value(), write_options);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.status().ToString().c_str());
    return 1;
  }
  for (size_t k = 0; k < plan.value().shards.size(); ++k) {
    const PlannedShard& shard = plan.value().shards[k];
    std::printf(
        "wrote %s: vertices [%llu, %llu) — %llu entries, %.2f MiB\n",
        written.value().shard_paths[k].c_str(),
        static_cast<unsigned long long>(shard.begin),
        static_cast<unsigned long long>(shard.end),
        static_cast<unsigned long long>(shard.entry_count),
        static_cast<double>(shard.bytes) / (1024.0 * 1024.0));
  }
  double skew = plan.value().ByteSkew();
  if (options.num_shards > 1 && !options.even_vertex) {
    ShardPlanOptions even = options;
    even.even_vertex = true;
    auto even_plan = PlanShards(flat, even);
    if (even_plan.ok()) {
      std::printf("byte skew (max/mean): planned %.3f vs even %.3f\n", skew,
                  even_plan.value().ByteSkew());
    }
  } else {
    std::printf("byte skew (max/mean): %.3f\n", skew);
  }
  std::printf("wrote %s: %zu shards, %zu vertices, %zu entries (%.2f s)\n",
              written.value().manifest_path.c_str(),
              plan.value().shards.size(), index->NumVertices(),
              index->TotalEntries(), timer.Seconds());
  return 0;
}

/// Parses a ';'-separated list of ','-separated number tuples, e.g.
/// "1,2,3.5;4,5,2". Returns false on any malformed field.
bool ParseTupleList(const std::string& spec,
                    std::vector<std::vector<double>>* out) {
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t semi = spec.find(';', begin);
    if (semi == std::string::npos) semi = spec.size();
    if (semi > begin) {
      std::vector<double> tuple;
      size_t field_begin = begin;
      while (field_begin <= semi) {
        size_t comma = spec.find(',', field_begin);
        if (comma == std::string::npos || comma > semi) comma = semi;
        std::string field = spec.substr(field_begin, comma - field_begin);
        char* end = nullptr;
        double value = std::strtod(field.c_str(), &end);
        if (field.empty() || end == nullptr || *end != '\0') return false;
        tuple.push_back(value);
        field_begin = comma + 1;
        if (comma == semi) break;
      }
      out->push_back(std::move(tuple));
    }
    begin = semi + 1;
  }
  return true;
}

/// Appends records parsed from one --add/--remove/--upgrade flag value.
/// `arity_lo`/`arity_hi` bound the accepted tuple sizes.
bool AppendDeltaRecords(const std::string& spec, DeltaOp op, size_t arity_lo,
                        size_t arity_hi, const char* flag,
                        std::vector<DeltaRecord>* records) {
  std::vector<std::vector<double>> tuples;
  if (!ParseTupleList(spec, &tuples)) {
    std::fprintf(stderr, "error: malformed --%s: %s\n", flag, spec.c_str());
    return false;
  }
  for (const auto& tuple : tuples) {
    if (tuple.size() < arity_lo || tuple.size() > arity_hi ||
        tuple[0] < 0 || tuple[1] < 0 || tuple[0] != std::floor(tuple[0]) ||
        tuple[1] != std::floor(tuple[1]) || tuple[0] == tuple[1]) {
      std::fprintf(stderr, "error: malformed --%s tuple in %s\n", flag,
                   spec.c_str());
      return false;
    }
    DeltaRecord record;
    record.op = static_cast<uint8_t>(op);
    record.u = static_cast<Vertex>(tuple[0]);
    record.v = static_cast<Vertex>(tuple[1]);
    switch (op) {
      case DeltaOp::kInsert:
        record.quality = static_cast<Quality>(tuple[2]);
        break;
      case DeltaOp::kDelete:
        // Quality optional: without it, scoping degrades to any constraint.
        record.quality = tuple.size() > 2 ? static_cast<Quality>(tuple[2])
                                          : kInfQuality;
        break;
      case DeltaOp::kUpgrade:
        record.old_quality = static_cast<Quality>(tuple[2]);
        record.quality = static_cast<Quality>(tuple[3]);
        if (record.quality < record.old_quality) {
          std::fprintf(stderr,
                       "error: --upgrade wants q_old <= q_new in %s "
                       "(a downgrade is a delete + insert)\n",
                       spec.c_str());
          return false;
        }
        break;
    }
    records->push_back(record);
  }
  return true;
}

int CmdDelta(const Flags& flags) {
  std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required\n");
    return 1;
  }
  DeltaLog log;
  std::string base = flags.GetString("base-snapshot", "");
  if (!base.empty()) {
    std::optional<WcIndex> index = LoadIndex(base);
    if (!index) return 1;
    log.base_fingerprint = index->ContentFingerprint();
  }
  DeltaBatch batch;
  if (!AppendDeltaRecords(flags.GetString("add", ""), DeltaOp::kInsert, 3, 3,
                          "add", &batch.records) ||
      !AppendDeltaRecords(flags.GetString("remove", ""), DeltaOp::kDelete, 2,
                          3, "remove", &batch.records) ||
      !AppendDeltaRecords(flags.GetString("upgrade", ""), DeltaOp::kUpgrade,
                          4, 4, "upgrade", &batch.records)) {
    return 1;
  }
  if (batch.records.empty()) {
    std::fprintf(stderr,
                 "error: pass at least one --add/--remove/--upgrade\n");
    return 1;
  }
  log.batches.push_back(std::move(batch));
  Status st = WriteDeltaLog(out, log);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu records%s (base fingerprint %016llx)\n",
              out.c_str(), log.TotalRecords(),
              log.HasDelete() ? " (has deletes: update will rebuild)" : "",
              static_cast<unsigned long long>(log.base_fingerprint));
  return 0;
}

int CmdUpdate(const Flags& flags) {
  std::string snapshot = flags.GetString("snapshot", "");
  std::string delta_path = flags.GetString("delta", "");
  std::string out = flags.GetString("out", "");
  if (snapshot.empty() || delta_path.empty() || out.empty()) {
    std::fprintf(stderr,
                 "error: --snapshot, --delta, and --out are required\n");
    return 1;
  }
  // A shard file has no vertex order, so only a whole snapshot updates.
  std::optional<WcIndex> base = LoadIndex(snapshot);
  if (!base) return 1;
  std::optional<FlatLabelSet> flat = ServedFlatLabels(*base);
  if (!flat) return 1;
  auto log = ReadDeltaLog(delta_path);
  if (!log.ok()) {
    std::fprintf(stderr, "error: %s\n", log.status().ToString().c_str());
    return 1;
  }
  const uint64_t old_fingerprint = IndexContentFingerprint(*flat);
  if (log.value().base_fingerprint != 0 &&
      log.value().base_fingerprint != old_fingerprint) {
    std::fprintf(stderr,
                 "error: delta base fingerprint %016llx does not match "
                 "snapshot %016llx — wrong snapshot for this log\n",
                 static_cast<unsigned long long>(
                     log.value().base_fingerprint),
                 static_cast<unsigned long long>(old_fingerprint));
    return 1;
  }
  auto graph = LoadGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  if (graph.value().NumVertices() != base->NumVertices()) {
    std::fprintf(stderr,
                 "error: --graph has %zu vertices but the snapshot serves "
                 "%zu — update wants the exact graph the snapshot was "
                 "built from\n",
                 graph.value().NumVertices(), base->NumVertices());
    return 1;
  }
  WcIndexOptions options = WcIndexOptions::Plus();
  std::string order = flags.GetString("order", "hybrid");
  if (order == "degree") {
    options.ordering = WcIndexOptions::Ordering::kDegree;
  } else if (order == "tree") {
    options.ordering = WcIndexOptions::Ordering::kTreeDecomposition;
  } else if (order != "hybrid") {
    std::fprintf(stderr, "error: unknown --order: %s\n", order.c_str());
    return 1;
  }
  int64_t threads = flags.GetInt("threads", 1);
  if (threads < 0) {
    std::fprintf(stderr, "error: --threads must be >= 0\n");
    return 1;
  }
  options.num_threads = static_cast<size_t>(threads);

  Timer timer;
  DynamicWcIndex dyn(graph.value(), base->order(), flat->ToLabelSet(),
                     options);
  const bool incremental = dyn.Apply(log.value());
  std::string out_graph = flags.GetString("out-graph", "");
  if (!out_graph.empty()) {
    Status st = WriteEdgeListFile(dyn.Snapshot(), out_graph);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  WcIndex updated = dyn.ReleaseIndex();
  updated.Finalize();
  const uint64_t new_fingerprint =
      IndexContentFingerprint(updated.flat_labels());
  Status st = updated.SaveSnapshot(out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "applied %zu delta records %s in %.3f s\n"
      "wrote %s: %zu vertices, %zu entries\n"
      "fingerprint %016llx -> %016llx\n",
      log.value().TotalRecords(),
      incremental ? "incrementally" : "via rebuild (log has deletes)",
      timer.Seconds(), out.c_str(), updated.NumVertices(),
      updated.TotalEntries(),
      static_cast<unsigned long long>(old_fingerprint),
      static_cast<unsigned long long>(new_fingerprint));
  return 0;
}

/// 0 = keep serving, SIGINT = stop now, SIGTERM = drain gracefully.
volatile std::sig_atomic_t g_signal_received = 0;

void HandleStopSignal(int sig) { g_signal_received = sig; }

/// Set by SIGHUP under `serve --watch`: reload the snapshot and hot-swap.
volatile std::sig_atomic_t g_reload_requested = 0;

void HandleReloadSignal(int) { g_reload_requested = 1; }

/// Nanosecond mtime of `path`, or -1 when it cannot be stat'ed. A change
/// (including appearing/disappearing) triggers a --watch reload.
int64_t FileMtimeNs(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
         static_cast<int64_t>(st.st_mtim.tv_nsec);
}

/// `serve --listen`: expose the mapped engine over the wire protocol until
/// SIGINT (immediate stop), SIGTERM (graceful drain), or --max-seconds
/// (scripted runs; drains, so in-flight work still finishes). `on_tick`,
/// when set, runs every poll interval on this thread — the --watch reload
/// check hooks in here, off the server's event loop.
int RunWireServer(std::shared_ptr<const QueryService> service,
                  const Flags& flags, size_t num_vertices,
                  size_t served_threads,
                  const std::function<void()>& on_tick = {}) {
  int64_t port = flags.GetInt("listen", 0);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "error: --listen wants a port in [0, 65535]\n");
    return 1;
  }
  WcServerOptions options;
  options.bind_address = flags.GetString("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(port);
  int64_t idle_ms = flags.GetInt("idle-timeout-ms", 0);
  int64_t header_ms = flags.GetInt("header-timeout-ms", 0);
  int64_t deadline_ms = flags.GetInt("request-deadline-ms", 0);
  int64_t max_batch = flags.GetInt("max-batch", 0);
  int64_t drain_ms = flags.GetInt("drain-ms", 5000);
  if (idle_ms < 0 || header_ms < 0 || deadline_ms < 0 || max_batch < 0 ||
      drain_ms < 0) {
    std::fprintf(stderr, "error: serve timeouts/limits must be >= 0\n");
    return 1;
  }
  if (max_batch > int64_t{UINT32_MAX}) {
    std::fprintf(stderr,
                 "error: --max-batch wants a count in [0, 4294967295]\n");
    return 1;
  }
  options.idle_timeout_ms = static_cast<uint64_t>(idle_ms);
  options.header_timeout_ms = static_cast<uint64_t>(header_ms);
  options.request_deadline_ms = static_cast<uint64_t>(deadline_ms);
  options.max_batch_queries = static_cast<uint32_t>(max_batch);
  options.drain_deadline_ms = static_cast<uint64_t>(drain_ms);
  int64_t reactors = flags.GetInt("reactors", 1);
  if (reactors < 1 || reactors > 1024) {
    std::fprintf(stderr, "error: --reactors wants a count in [1, 1024]\n");
    return 1;
  }
  options.num_reactors = static_cast<size_t>(reactors);
  auto server = WcServer::Start(std::move(service), options);
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("serving %zu vertices on %s:%u (%zu reactor%s, %zu worker "
              "thread%s)\n",
              num_vertices, options.bind_address.c_str(),
              server.value().port(), server.value().num_reactors(),
              server.value().num_reactors() == 1 ? "" : "s", served_threads,
              served_threads == 1 ? "" : "s");
  std::fflush(stdout);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  double max_seconds = flags.GetDouble("max-seconds", 0.0);
  Timer timer;
  while (g_signal_received == 0 &&
         (max_seconds <= 0.0 || timer.Seconds() < max_seconds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (on_tick) on_tick();
  }
  if (g_signal_received == SIGINT) {
    server.value().Stop();
  } else {
    // SIGTERM or --max-seconds: finish what is in flight, within --drain-ms.
    std::printf("draining (up to %lld ms)...\n",
                static_cast<long long>(drain_ms));
    std::fflush(stdout);
    server.value().Drain();
  }
  WcServerStats stats = server.value().stats();
  std::printf(
      "served %llu frames over %llu connections (%llu protocol errors, "
      "%llu overload + %llu deadline rejections, %llu shard-unavailable, "
      "%llu timeout closes)\n",
      static_cast<unsigned long long>(stats.frames_served),
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.protocol_errors),
      static_cast<unsigned long long>(stats.overload_rejections),
      static_cast<unsigned long long>(stats.deadline_rejections),
      static_cast<unsigned long long>(stats.shard_unavailable),
      static_cast<unsigned long long>(stats.timeout_closed));
  return 0;
}

/// Opens the serving engine for `serve` (and re-opens it on --watch
/// reloads): one snapshot, or a manifest's shard set.
Result<std::shared_ptr<const QueryEngine>> OpenServeEngine(
    const std::string& snapshot, const std::string& manifest,
    const QueryEngineOptions& options, const SnapshotLoadOptions& load,
    const DegradedOpenOptions& degraded) {
  auto engine = manifest.empty()
                    ? QueryEngine::Open(snapshot, options, load)
                    : QueryEngine::OpenManifest(manifest, options, load,
                                                degraded);
  if (!engine.ok()) return engine.status();
  return std::make_shared<const QueryEngine>(std::move(engine).value());
}

int CmdServe(const Flags& flags) {
  std::string snapshot = flags.GetString("snapshot", "");
  std::string manifest = flags.GetString("manifest", "");
  if (snapshot.empty() == manifest.empty()) {
    std::fprintf(stderr,
                 "error: pass exactly one of --snapshot or --manifest\n");
    return 1;
  }
  QueryEngineOptions options;
  int64_t threads = flags.GetInt("threads", 0);
  if (threads < 0) {
    std::fprintf(stderr, "error: --threads must be >= 0\n");
    return 1;
  }
  options.num_threads = static_cast<size_t>(threads);
  // Per-core serving: with several reactors and no explicit --threads, run
  // each engine single-threaded so queries execute inline on the reactor
  // thread that owns the connection — one core runs one reactor end-to-end
  // with no cross-core handoff (the reactors themselves are the
  // parallelism). An explicit --threads overrides.
  if (!flags.Has("threads") && flags.GetInt("reactors", 1) > 1) {
    options.num_threads = 1;
  }
  if (!ParseCacheBytes(flags, &options.cache_bytes)) return 1;
  // Cold tier: serve a compressed snapshot straight off its mapping,
  // distance queries streaming the varint bytes and a bounded decoded-label
  // cache in front of the requests that decode. --cold-tier
  // alone budgets a 64 MiB default; --decode-cache-mb picks the budget
  // explicitly (and implies cold tier on a compressed index).
  const bool cold_tier = flags.GetBool("cold-tier", false);
  int64_t decode_mb = flags.GetInt("decode-cache-mb", cold_tier ? 64 : 0);
  if (decode_mb < 0 || decode_mb > (int64_t{1} << 20)) {
    std::fprintf(stderr, "error: --decode-cache-mb must be in [0, %lld]\n",
                 static_cast<long long>(int64_t{1} << 20));
    return 1;
  }
  if (cold_tier && decode_mb == 0) {
    std::fprintf(stderr,
                 "error: --cold-tier wants --decode-cache-mb > 0\n");
    return 1;
  }
  options.decode_cache_bytes =
      static_cast<size_t>(decode_mb) * 1024 * 1024;
  // --graph enables the kPath endpoint: reconstruction walks the edges, so
  // the graph is needed even when the snapshot carries §V parent quads.
  // Servers without it refuse kPath with kNotSupported.
  std::string serve_graph = flags.GetString("graph", "");
  if (!serve_graph.empty()) {
    auto graph = ReadEdgeListFile(serve_graph);
    if (!graph.ok()) {
      std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
      return 1;
    }
    options.graph =
        std::make_shared<const QualityGraph>(std::move(graph).value());
  }
  int64_t queries_flag = flags.GetInt("queries", 100000);
  int64_t levels = flags.GetInt("levels", 5);
  if (queries_flag < 0 || levels < 1) {
    std::fprintf(stderr,
                 "error: --queries must be >= 0 and --levels >= 1\n");
    return 1;
  }
  SnapshotLoadOptions load;
  load.verify_checksums = flags.GetBool("verify", false);
  std::string verify_level = flags.GetString("verify-level", "offsets");
  if (verify_level == "directory") {
    load.verify_level = SnapshotVerifyLevel::kDirectory;
  } else if (verify_level == "deep") {
    load.verify_level = SnapshotVerifyLevel::kDeep;
  } else if (verify_level != "offsets") {
    std::fprintf(stderr, "error: unknown --verify-level: %s\n",
                 verify_level.c_str());
    return 1;
  }
  // --verify implies the deepest tier, whatever --verify-level says.
  if (load.verify_checksums) load.verify_level = SnapshotVerifyLevel::kDeep;

  DegradedOpenOptions degraded;
  degraded.quarantine_failed_shards = flags.GetBool("quarantine", false);
  // Kept alive for the whole serve: the engine holds a raw pointer to it.
  std::optional<QualityGraph> fallback_graph;
  std::string fallback_path = flags.GetString("fallback-graph", "");
  if (!fallback_path.empty()) {
    if (!degraded.quarantine_failed_shards) {
      std::fprintf(stderr,
                   "error: --fallback-graph requires --quarantine\n");
      return 1;
    }
    auto graph = ReadEdgeListFile(fallback_path);
    if (!graph.ok()) {
      std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
      return 1;
    }
    fallback_graph = std::move(graph).value();
    degraded.fallback_graph = &fallback_graph.value();
  }
  if (degraded.quarantine_failed_shards && manifest.empty()) {
    std::fprintf(stderr, "error: --quarantine requires --manifest\n");
    return 1;
  }

  const bool watch = flags.GetBool("watch", false);
  if (watch && !flags.Has("listen")) {
    std::fprintf(stderr, "error: --watch requires --listen\n");
    return 1;
  }
  // Under --watch, one cache outlives engine generations so small updates
  // keep the hot set warm; the engines bind their inserts to their own
  // fingerprint and the reload path owns invalidation.
  std::shared_ptr<ResultCache> shared_cache;
  if (watch && options.cache_bytes > 0) {
    shared_cache = std::make_shared<ResultCache>(options.cache_bytes);
    options.shared_cache = shared_cache;
  }

  Timer load_timer;
  auto opened = OpenServeEngine(snapshot, manifest, options, load, degraded);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<const QueryEngine> current = std::move(opened).value();
  double load_seconds = load_timer.Seconds();
  const size_t n = current->NumVertices();
  if (n == 0) {
    std::fprintf(stderr, "error: empty snapshot\n");
    return 1;
  }
  const size_t mapped_files = current->num_shards();
  std::printf("mapped %zu snapshot%s (%zu vertices) in %.3f ms\n",
              mapped_files, mapped_files == 1 ? "" : "s", n,
              load_seconds * 1e3);
  if (cold_tier && !current->compressed()) {
    std::fprintf(stderr,
                 "error: --cold-tier wants a compressed snapshot (write one "
                 "with `snapshot --compress`)\n");
    return 1;
  }
  if (current->compressed()) {
    std::printf("compressed labels%s, decode cache %lld MiB\n",
                cold_tier ? " (cold tier: blob stays on disk)" : "",
                static_cast<long long>(decode_mb));
  }
  if (current->degraded()) {
    std::printf(
        "DEGRADED: %zu of %zu shards quarantined — queries touching their "
        "ranges are %s\n",
        current->num_quarantined(), mapped_files,
        degraded.fallback_graph != nullptr
            ? "answered online via the fallback graph"
            : "refused with kShardUnavailable");
  }

  if (flags.Has("listen")) {
    if (!watch) {
      const size_t threads = current->num_threads();
      return RunWireServer(std::move(current), flags, n, threads);
    }
    // No explicit Rebind here: the engine already bound the shared cache
    // to its fingerprint at open (the unconditional-Rebind contract).
    auto swappable = std::make_shared<SwappableQueryService>(current);
    const std::string watch_path = manifest.empty() ? snapshot : manifest;
    const std::string delta_path = flags.GetString("delta", "");
    int64_t last_mtime = FileMtimeNs(watch_path);

    auto reload = [&]() {
      // Cache invalidation runs through the engine's pre-bind hook: it
      // fires after the new fingerprint is computed but BEFORE the new
      // engine's unconditional Rebind, while no queries flow through the
      // new generation yet. A scoped InvalidateDelta there rebinds the
      // cache itself, turning the engine's Rebind into a no-op — the
      // surviving hot set is preserved instead of wholesale-wiped. When
      // the hook does nothing (no usable delta log), the engine's own
      // Rebind wipes, which is the correct wholesale ordering: new
      // identity stored before the sweep, swept before the swap.
      QueryEngineOptions next_options = options;
      if (shared_cache) {
        next_options.pre_bind_invalidate = [&](uint64_t next_fingerprint) {
          // Scoped invalidation needs a delta log authored against exactly
          // the outgoing snapshot.
          if (delta_path.empty() ||
              next_fingerprint == current->cache_fingerprint()) {
            return;
          }
          auto log = ReadDeltaLog(delta_path);
          if (!log.ok() || log.value().base_fingerprint == 0 ||
              log.value().base_fingerprint != current->cache_fingerprint()) {
            return;
          }
          std::vector<DeltaImpact> impacts = DeltaImpacts(log.value());
          ResultCache::CoupledFn coupled;
          if (current->has_index()) {
            // Pair (s, t) can only be affected if it reaches the changed
            // edges from both sides in the OLD index at the lowest
            // affected constraint. `current` serves until the swap, so
            // its index outlives the sweep.
            coupled = ReachabilityCoupling(current->index(), impacts);
          }
          size_t dropped = shared_cache->InvalidateDelta(next_fingerprint,
                                                         impacts, coupled);
          std::printf("cache: delta-scoped invalidation dropped %zu "
                      "interval%s\n",
                      dropped, dropped == 1 ? "" : "s");
        };
      }
      auto reopened =
          OpenServeEngine(snapshot, manifest, next_options, load, degraded);
      if (!reopened.ok()) {
        // Keep serving the old generation; the operator sees why.
        std::fprintf(stderr, "reload failed (still serving generation %llu): %s\n",
                     static_cast<unsigned long long>(swappable->generation()),
                     reopened.status().ToString().c_str());
        return;
      }
      current = std::move(reopened).value();
      uint64_t generation = swappable->Swap(current);
      std::printf("reloaded %s: %zu vertices, now serving generation %llu\n",
                  watch_path.c_str(), current->NumVertices(),
                  static_cast<unsigned long long>(generation));
      std::fflush(stdout);
    };
    auto on_tick = [&]() {
      bool want = false;
      if (g_reload_requested != 0) {
        g_reload_requested = 0;
        want = true;
      }
      int64_t mtime = FileMtimeNs(watch_path);
      if (mtime != last_mtime) {
        last_mtime = mtime;
        want = true;
      }
      if (want) reload();
    };
    std::signal(SIGHUP, HandleReloadSignal);
    return RunWireServer(swappable, flags, n, current->num_threads(),
                         on_tick);
  }

  size_t queries = static_cast<size_t>(queries_flag);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  Rng rng(seed);
  std::vector<BatchQueryInput> workload;
  workload.reserve(queries);
  for (size_t i = 0; i < queries; ++i) {
    workload.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                        static_cast<Vertex>(rng.NextBounded(n)),
                        static_cast<Quality>(rng.NextInRange(1, levels))});
  }
  Timer batch_timer;
  std::vector<Distance> answers;
  const ServeOutcome outcome = current->BatchEx(workload, &answers);
  double serve_seconds = batch_timer.Seconds();
  if (outcome != ServeOutcome::kOk) {
    // A degraded engine refuses a batch touching a quarantined range
    // whole; there are no answers to count or checksum.
    std::printf("refused the batch of %zu queries: it touches a quarantined "
                "shard range\n",
                workload.size());
    return 0;
  }
  size_t reachable = 0;
  for (Distance d : answers) {
    if (d != kInfDistance) ++reachable;
  }
  // The answers CRC is the backend-equivalence witness: the same --seed
  // yields the same workload, so flat, compressed, cold-tier, and sharded
  // serving of the same index must all print the same value.
  uint32_t answers_crc =
      Crc32c(answers.data(), answers.size() * sizeof(Distance));
  std::printf(
      "served %zu queries on %zu thread%s in %.3f s (%.0f q/s), "
      "%zu reachable, answers crc32c=%08x\n",
      workload.size(), current->num_threads(),
      current->num_threads() == 1 ? "" : "s",
      serve_seconds,
      serve_seconds > 0 ? static_cast<double>(workload.size()) / serve_seconds
                        : 0.0,
      reachable, answers_crc);
  if (options.cache_bytes > 0) {
    QueryEngineStats stats = current->Stats();
    uint64_t lookups = stats.cache_hits + stats.cache_misses;
    std::printf(
        "cache: %llu hits / %llu lookups (%.1f%%), %llu inserts, "
        "%llu evictions\n",
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(lookups),
        lookups > 0 ? 100.0 * static_cast<double>(stats.cache_hits) /
                          static_cast<double>(lookups)
                    : 0.0,
        static_cast<unsigned long long>(stats.cache_inserts),
        static_cast<unsigned long long>(stats.cache_evictions));
  }
  if (options.decode_cache_bytes > 0 && current->compressed()) {
    QueryEngineStats stats = current->Stats();
    uint64_t decodes = stats.decode_hits + stats.decode_misses;
    std::printf(
        "decode cache: %llu hits / %llu lookups (%.1f%%), %llu cold "
        "page-ins; labels %.2f MiB vs %.2f MiB flat (%.2fx)\n",
        static_cast<unsigned long long>(stats.decode_hits),
        static_cast<unsigned long long>(decodes),
        decodes > 0 ? 100.0 * static_cast<double>(stats.decode_hits) /
                          static_cast<double>(decodes)
                    : 0.0,
        static_cast<unsigned long long>(stats.cold_pageins),
        static_cast<double>(stats.label_bytes) / (1024.0 * 1024.0),
        static_cast<double>(stats.uncompressed_label_bytes) /
            (1024.0 * 1024.0),
        stats.label_bytes > 0
            ? static_cast<double>(stats.uncompressed_label_bytes) /
                  static_cast<double>(stats.label_bytes)
            : 0.0);
  }
  return 0;
}

}  // namespace
}  // namespace wcsd

int main(int argc, char** argv) {
  using namespace wcsd;
  if (argc < 2) return Usage();
  Flags flags(argc, argv);
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "build") == 0) return CmdBuild(flags);
  if (std::strcmp(cmd, "query") == 0) return CmdQuery(flags);
  if (std::strcmp(cmd, "stats") == 0) return CmdStats(flags);
  if (std::strcmp(cmd, "verify") == 0) return CmdVerify(flags);
  if (std::strcmp(cmd, "generate") == 0) return CmdGenerate(flags);
  if (std::strcmp(cmd, "snapshot") == 0) return CmdSnapshot(flags);
  if (std::strcmp(cmd, "shard") == 0) return CmdShard(flags);
  if (std::strcmp(cmd, "serve") == 0) return CmdServe(flags);
  if (std::strcmp(cmd, "delta") == 0) return CmdDelta(flags);
  if (std::strcmp(cmd, "update") == 0) return CmdUpdate(flags);
  return Usage();
}

// Differential fuzzing of the whole query stack.
//
// For randomized graphs across four generator families and random
// (s, t, w) triples, every answer path must agree bit-for-bit:
//   * the four span kernels over the build's labels as a LabelSet,
//   * the four QueryImpls on the built index's flat CSR store,
//   * a QueryEngine serving the mmap-loaded snapshot of the index,
//   * the same engine behind a deliberately tiny dominance-aware result
//     cache (serve/result_cache.h), queried twice per case so both the
//     miss+insert and the interval-hit paths are differentially checked,
//   * the four QueryImpls on the COMPRESSED backend (a v3 snapshot,
//     labeling/compressed_flat.h — kMerge streams the varint bytes, the
//     rest decode then run the flat kernel),
//   * a cold-tier QueryEngine: the compressed mmap behind a tiny
//     decoded-label cache, queried twice per case so decode-miss and
//     decode-hit both get checked,
//   * a QueryEngine over two even vertex-range shard snapshots, recorded
//     in a manifest (labeling/shard_manifest.h) and opened through it,
//   * a second QueryEngine over a label-mass-planned shard set
//     opened through its manifest,
//   * a third, mixed-backend QueryEngine: one compressed shard
//     recorded next to one flat shard,
//   * a WcServer + WcClient round trip over the wire protocol (the
//     networked path serves the same mmap engine through a real socket),
//     and a second round trip over the cold-tier engine,
//   * the ConstrainedDijkstra ground truth on the raw graph.
// Builds alternate between the sequential and the rank-batched parallel
// pipeline, so construction is fuzzed too (and races surface under the
// TSan CI job, which runs this suite); every parallel build must also keep
// exactly the sequential build's labels.
//
// On a mismatch the failing case is minimized — edges are greedily removed
// while the disagreement persists — and a self-contained reproduction
// (edge list + query + seeds) is printed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/dynamic_wc_index.h"
#include "core/path_index.h"
#include "core/wc_index.h"
#include "graph/builder.h"
#include "labeling/delta.h"
#include "labeling/query.h"
#include "graph/generators.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "net/client.h"
#include "net/server.h"
#include "search/constrained_dijkstra.h"
#include "search/pareto_enumerator.h"
#include "serve/query_engine.h"
#include "util/random.h"

namespace wcsd {
namespace {

constexpr const char* kFamilies[] = {"road", "social", "smallworld",
                                     "random"};

QualityGraph MakeFuzzGraph(size_t family, uint64_t seed) {
  Rng rng(seed * 2654435761u + family);
  QualityModel quality;
  quality.num_levels = static_cast<int>(rng.NextInRange(2, 6));
  switch (family) {
    case 0: {  // road-like perturbed grid
      RoadOptions options;
      options.rows = static_cast<size_t>(rng.NextInRange(4, 8));
      options.cols = static_cast<size_t>(rng.NextInRange(4, 8));
      options.quality = quality;
      return GenerateRoadNetwork(options, seed);
    }
    case 1: {  // social-like scale-free
      size_t n = static_cast<size_t>(rng.NextInRange(30, 70));
      size_t epv = static_cast<size_t>(rng.NextInRange(2, 4));
      return GenerateBarabasiAlbert(n, epv, quality, seed);
    }
    case 2: {  // small world
      size_t n = static_cast<size_t>(rng.NextInRange(30, 70));
      size_t k = static_cast<size_t>(rng.NextInRange(1, 3));
      return GenerateWattsStrogatz(n, k, 0.2, quality, seed);
    }
    default: {  // connected random
      size_t n = static_cast<size_t>(rng.NextInRange(30, 80));
      size_t m = n - 1 + static_cast<size_t>(rng.NextInRange(0, n));
      return GenerateRandomConnected(n, m, quality, seed);
    }
  }
}

using EdgeList = std::vector<std::tuple<Vertex, Vertex, Quality>>;

EdgeList EdgesOf(const QualityGraph& g) {
  EdgeList edges;
  for (Vertex u = 0; u < g.NumVertices(); ++u) {
    for (const Arc& a : g.Neighbors(u)) {
      if (a.to > u) edges.emplace_back(u, a.to, a.quality);
    }
  }
  return edges;
}

QualityGraph FromEdges(size_t n, const EdgeList& edges) {
  GraphBuilder builder(n);
  for (const auto& [u, v, q] : edges) builder.AddEdge(u, v, q);
  return builder.Build();
}

// Runs every answer path for one (s, t, w) and reports the first
// disagreement against the Dijkstra ground truth (empty string = all
// agree). Exercising the snapshot layers is part of the check: the index
// is snapshotted to `dir` and served via mmap and via two shards.
struct Stack {
  LabelSet labels;        // the build's labels as vectors: span kernels
  WcIndex flat;           // the built index, serving its flat store
  WcIndex mm;             // mmap-loaded snapshot
  WcIndex cmm;            // mmap-loaded COMPRESSED (v3) snapshot
  std::shared_ptr<const QueryEngine> engine;
  std::shared_ptr<const QueryEngine> cached;  // dominance-aware result cache
  /// Cold tier: the compressed mmap behind a deliberately tiny
  /// decoded-label cache, so admission and eviction churn during the run.
  std::shared_ptr<const QueryEngine> cold;
  std::unique_ptr<QueryEngine> sharded;
  std::unique_ptr<QueryEngine> planned;  // manifest-opened shard set
  /// Mixed-backend shard set: one compressed shard, one flat.
  std::unique_ptr<QueryEngine> csharded;
  std::unique_ptr<WcServer> server;  // serves `engine` over the wire
  std::unique_ptr<WcClient> client;
  std::unique_ptr<WcServer> cold_server;  // serves `cold` over the wire
  std::unique_ptr<WcClient> cold_client;
};

Stack BuildStack(const QualityGraph& g, size_t build_threads,
                 const std::string& tag, bool record_parents = false) {
  WcIndexOptions options = WcIndexOptions::Plus();
  options.num_threads = build_threads;
  // Alternating parents also fuzzes the v2 snapshot section end to end:
  // with quads the mmap stack serves paths off the fast unwind, without
  // them every layer runs the explicit degraded fallback.
  options.record_parents = record_parents;
  WcIndex flat = WcIndex::Build(g, options);

  std::string dir = testing::TempDir();
  std::string full = dir + "/fuzz_" + tag + ".wcsnap";
  EXPECT_TRUE(flat.SaveSnapshot(full).ok());
  auto mm = WcIndex::LoadMmap(full);
  EXPECT_TRUE(mm.ok()) << mm.status().ToString();

  // The compressed backend: the same labels delta/varint-encoded in a v3
  // snapshot, mmap-served. Compressed files never carry parent quads, so
  // on this layer the path family always runs the index-guided fallback.
  std::string cfull = dir + "/fuzz_" + tag + "_c.wcsnap";
  SnapshotWriteOptions compress_opts;
  compress_opts.compress = true;
  EXPECT_TRUE(WriteSnapshot(cfull, flat.flat_labels(), &flat.order(), {},
                            compress_opts)
                  .ok());
  auto cmm = WcIndex::LoadMmap(cfull);
  EXPECT_TRUE(cmm.ok()) << cmm.status().ToString();
  EXPECT_TRUE(cmm.value().compressed());

  QueryEngineOptions serve;
  serve.num_threads = 1;  // concurrency is hammered in test_serve/test_net
  // Every serving layer gets the graph, so the kPath family is checked
  // through the engines and over the wire too.
  serve.graph = std::make_shared<const QualityGraph>(g);
  auto engine = std::make_shared<const QueryEngine>(
      std::make_shared<const WcIndex>(mm.value()), serve);

  // The cached path: the same mmap index behind the dominance-aware result
  // cache, deliberately tiny so replacement churns during the fuzz run.
  QueryEngineOptions cached_serve = serve;
  cached_serve.shared_cache = std::make_shared<ResultCache>(8 << 10);
  auto cached = std::make_shared<const QueryEngine>(
      std::make_shared<const WcIndex>(mm.value()), cached_serve);

  // The cold tier: compressed mmap behind a tiny decoded-label cache.
  QueryEngineOptions cold_serve = serve;
  cold_serve.decode_cache_bytes = 32 << 10;
  auto cold = std::make_shared<const QueryEngine>(
      std::make_shared<const WcIndex>(cmm.value()), cold_serve);

  // The networked path: an in-process server over the same mmap engine,
  // queried through a real loopback socket.
  auto started = WcServer::Start(MakeQueryService(engine));
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  auto server = std::make_unique<WcServer>(std::move(started).value());
  auto connected = WcClient::Connect("127.0.0.1", server->port());
  EXPECT_TRUE(connected.ok()) << connected.status().ToString();
  auto client = std::make_unique<WcClient>(std::move(connected).value());

  // A second loopback server over the cold-tier engine: the compressed
  // backend checked end to end over the wire too.
  auto cold_started = WcServer::Start(MakeQueryService(cold));
  EXPECT_TRUE(cold_started.ok()) << cold_started.status().ToString();
  auto cold_server =
      std::make_unique<WcServer>(std::move(cold_started).value());
  auto cold_connected = WcClient::Connect("127.0.0.1", cold_server->port());
  EXPECT_TRUE(cold_connected.ok()) << cold_connected.status().ToString();
  auto cold_client =
      std::make_unique<WcClient>(std::move(cold_connected).value());

  const uint64_t n = flat.NumVertices();
  std::vector<std::string> shard_paths;
  for (int k = 0; k < 2; ++k) {
    std::string path = dir + "/fuzz_" + tag + ".shard" + std::to_string(k);
    EXPECT_TRUE(WriteSnapshotShard(path, flat.flat_labels(), n * k / 2,
                                   n * (k + 1) / 2, n)
                    .ok());
    shard_paths.push_back(path);
  }
  const uint64_t fingerprint = IndexContentFingerprint(flat.flat_labels());
  const std::string manifest = dir + "/fuzz_" + tag + ".manifest";
  EXPECT_TRUE(RecordShardManifest(manifest, shard_paths, fingerprint).ok());
  auto sharded = QueryEngine::OpenManifest(manifest, serve);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  auto sharded_ptr = std::make_unique<QueryEngine>(
      std::move(sharded).value());

  // Mixed-backend shard set: the low range compressed, the high range
  // flat, served by one engine with the decode cache in front of the
  // compressed half.
  std::vector<std::string> cshard_paths;
  for (int k = 0; k < 2; ++k) {
    std::string path = dir + "/fuzz_" + tag + "_c.shard" + std::to_string(k);
    SnapshotWriteOptions shard_opts;
    shard_opts.compress = k == 0;
    EXPECT_TRUE(WriteSnapshotShard(path, flat.flat_labels(), n * k / 2,
                                   n * (k + 1) / 2, n, {}, shard_opts)
                    .ok());
    cshard_paths.push_back(path);
  }
  const std::string cmanifest = dir + "/fuzz_" + tag + "_c.manifest";
  EXPECT_TRUE(RecordShardManifest(cmanifest, cshard_paths, fingerprint).ok());
  auto csharded = QueryEngine::OpenManifest(cmanifest, cold_serve);
  EXPECT_TRUE(csharded.ok()) << csharded.status().ToString();
  EXPECT_TRUE(csharded.value().compressed());
  auto csharded_ptr =
      std::make_unique<QueryEngine>(std::move(csharded).value());

  // The planned path: a label-mass-balanced shard set round-tripped
  // through its manifest, fingerprint verification included.
  ShardPlanOptions plan_options;
  plan_options.num_shards = 3;
  auto plan = PlanShards(flat.flat_labels(), plan_options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  // Distinct stem: the even 2-shard files above are already mmap'd under
  // "fuzz_<tag>.shard*", and overwriting a live mapping would SIGBUS.
  auto written = WriteShardSet(dir + "/fuzz_planned_" + tag,
                               flat.flat_labels(), plan.value());
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  auto planned = QueryEngine::OpenManifest(
      written.value().manifest_path, serve, verify);
  EXPECT_TRUE(planned.ok()) << planned.status().ToString();
  auto planned_ptr =
      std::make_unique<QueryEngine>(std::move(planned).value());
  std::remove(written.value().manifest_path.c_str());
  for (const std::string& p : written.value().shard_paths) {
    std::remove(p.c_str());
  }

  std::remove(full.c_str());
  std::remove(cfull.c_str());
  for (const std::string& p : shard_paths) std::remove(p.c_str());
  for (const std::string& p : cshard_paths) std::remove(p.c_str());
  std::remove(manifest.c_str());
  std::remove(cmanifest.c_str());
  return Stack{flat.labels(),           std::move(flat),
               std::move(mm).value(),  std::move(cmm).value(),
               std::move(engine),      std::move(cached),
               std::move(cold),        std::move(sharded_ptr),
               std::move(planned_ptr), std::move(csharded_ptr),
               std::move(server),      std::move(client),
               std::move(cold_server), std::move(cold_client)};
}

std::string CheckOne(const QualityGraph& g, const Stack& stack, Vertex s,
                     Vertex t, Quality w) {
  const Distance truth = ConstrainedDijkstraUnit(g, s, t, w);
  std::ostringstream out;
  auto expect = [&](const char* what, Distance got) {
    if (got != truth && out.tellp() == 0) {
      out << what << " = " << got << " but dijkstra = " << truth;
    }
  };
  for (QueryImpl impl : {QueryImpl::kScan, QueryImpl::kHubGrouped,
                         QueryImpl::kBinary, QueryImpl::kMerge}) {
    expect("labels impl",
           QueryLabels(stack.labels.For(s), stack.labels.For(t), w, impl));
    expect("flat impl", stack.flat.Query(s, t, w, impl));
    expect("mmap impl", stack.mm.Query(s, t, w, impl));
    // Every impl on the compressed backend too: kMerge streams the varint
    // bytes directly, the rest decode then run the flat kernel.
    expect("compressed impl", stack.cmm.Query(s, t, w, impl));
  }
  expect("engine", stack.engine->Query(s, t, w));
  // Twice: the first call may miss and insert, the second must hit the
  // cached interval — both answers have to match the ground truth.
  expect("cached (miss path)", stack.cached->Query(s, t, w));
  expect("cached (hit path)", stack.cached->Query(s, t, w));
  // Same for the decoded-label cache: decode-miss, then decode-hit.
  expect("cold (decode miss)", stack.cold->Query(s, t, w));
  expect("cold (decode hit)", stack.cold->Query(s, t, w));
  expect("sharded", stack.sharded->Query(s, t, w));
  expect("planned", stack.planned->Query(s, t, w));
  expect("csharded", stack.csharded->Query(s, t, w));
  auto net = stack.client->Query(s, t, w);
  if (!net.ok()) {
    if (out.tellp() == 0) out << "net error: " << net.status().ToString();
  } else {
    expect("net", net.value());
  }
  auto cold_net = stack.cold_client->Query(s, t, w);
  if (!cold_net.ok()) {
    if (out.tellp() == 0) {
      out << "cold net error: " << cold_net.status().ToString();
    }
  } else {
    expect("cold net", cold_net.value());
  }
  return out.str();
}

// The engine layers the query families run through, by name. They differ
// only in tiling: one WcIndex (flat mmap, or compressed behind the decode
// cache), two even flat shards, a planned manifest set, and a mixed
// compressed/flat pair.
std::vector<std::pair<const char*, const QueryEngine*>> EngineLayers(
    const Stack& stack) {
  return {{"engine", stack.engine.get()},
          {"cold", stack.cold.get()},
          {"sharded", stack.sharded.get()},
          {"planned", stack.planned.get()},
          {"csharded", stack.csharded.get()}};
}

// The three richer query families, checked across the same spread of
// layers: top-k against a per-candidate Dijkstra oracle, profiles
// against a per-threshold Dijkstra oracle cross-checked with the Pareto
// frontier enumerator, and paths validated as w-paths of exactly the
// true distance. Routes may legitimately differ between the parent
// unwind, the engine's index-guided fallback, and the sharded greedy
// stepping — validity plus optimal length is the contract, not the
// exact vertex sequence.
std::string CheckFamilies(const QualityGraph& g, const Stack& stack,
                          Vertex s, Vertex t, Quality w, Rng& rng) {
  std::ostringstream out;
  const size_t n = g.NumVertices();

  // kTopK: a random candidate set; duplicates and the source included.
  std::vector<Vertex> candidates;
  const size_t count = 1 + rng.NextBounded(8);
  for (size_t i = 0; i < count; ++i) {
    candidates.push_back(static_cast<Vertex>(rng.NextBounded(n)));
  }
  const size_t k = 1 + rng.NextBounded(5);
  std::vector<RankedCandidate> oracle;
  for (Vertex c : candidates) {
    const Distance d = c == s ? 0 : ConstrainedDijkstraUnit(g, s, c, w);
    if (d != kInfDistance) oracle.push_back({c, d});
  }
  std::sort(oracle.begin(), oracle.end(),
            [](const RankedCandidate& a, const RankedCandidate& b) {
              if (a.dist != b.dist) return a.dist < b.dist;
              return a.vertex < b.vertex;
            });
  if (oracle.size() > k) oracle.resize(k);
  auto expect_topk = [&](const char* what,
                         const std::vector<RankedCandidate>& got) {
    if (out.tellp() != 0) return;
    bool same = got.size() == oracle.size();
    for (size_t i = 0; same && i < got.size(); ++i) {
      same = got[i].vertex == oracle[i].vertex &&
             got[i].dist == oracle[i].dist;
    }
    if (!same) {
      out << what << " topk disagrees with dijkstra (s=" << s << " w=" << w
          << " k=" << k << ")";
    }
  };
  expect_topk("flat", TopKClosest(stack.flat, s, candidates, w, k));
  expect_topk("mmap", TopKClosest(stack.mm, s, candidates, w, k));
  expect_topk("compressed", TopKClosest(stack.cmm, s, candidates, w, k));
  for (const auto& [what, engine] : EngineLayers(stack)) {
    std::vector<RankedCandidate> ranked;
    if (engine->TopKEx(s, candidates, w, k, &ranked) != ServeOutcome::kOk) {
      if (out.tellp() == 0) out << what << " topk refused a healthy request";
    } else {
      expect_topk(what, ranked);
    }
  }
  auto net_topk =
      stack.client->TopK(s, candidates, w, static_cast<uint32_t>(k));
  if (!net_topk.ok()) {
    if (out.tellp() == 0) {
      out << "net topk error: " << net_topk.status().ToString();
    }
  } else {
    expect_topk("net", net_topk.value());
  }

  // kProfile: thresholds straddling every integer level, both extremes
  // included (0.5 certifies everything, 6.5 nothing).
  std::vector<Quality> thresholds;
  for (int j = 0; j <= 12; ++j) {
    thresholds.push_back(0.5f + 0.5f * static_cast<float>(j));
  }
  std::vector<Distance> truth_profile;
  truth_profile.reserve(thresholds.size());
  for (Quality wt : thresholds) {
    truth_profile.push_back(ConstrainedDijkstraUnit(g, s, t, wt));
  }
  // Cross-check the oracle itself: the profile at wt must equal the
  // smallest Pareto-frontier distance whose quality certifies wt. The
  // trivial s == t case is skipped — its distance is 0 at EVERY
  // threshold, which no finite-quality frontier point can certify.
  const auto frontier = s == t ? std::vector<FrontierPoint>{}
                               : ParetoFrontier(g, s, t);
  for (size_t j = 0; s != t && out.tellp() == 0 && j < thresholds.size();
       ++j) {
    Distance from_frontier = kInfDistance;
    for (const FrontierPoint& p : frontier) {
      if (p.quality >= thresholds[j]) {
        from_frontier = p.distance;  // ascending distance: first wins
        break;
      }
    }
    if (from_frontier != truth_profile[j]) {
      out << "pareto frontier disagrees with dijkstra at w=" << thresholds[j]
          << " (" << from_frontier << " vs " << truth_profile[j] << ")";
    }
  }
  auto expect_profile = [&](const char* what,
                            const std::vector<ProfilePoint>& got) {
    if (out.tellp() != 0) return;
    bool same = got.size() == truth_profile.size();
    for (size_t j = 0; same && j < got.size(); ++j) {
      same = got[j].quality == thresholds[j] &&
             got[j].dist == truth_profile[j];
    }
    if (!same) {
      out << what << " profile disagrees with dijkstra (s=" << s
          << " t=" << t << ")";
    }
  };
  expect_profile("flat", QualityProfile(stack.flat, s, t, thresholds));
  expect_profile("mmap", QualityProfile(stack.mm, s, t, thresholds));
  expect_profile("compressed", QualityProfile(stack.cmm, s, t, thresholds));
  for (const auto& [what, engine] : EngineLayers(stack)) {
    std::vector<ProfilePoint> profile;
    if (engine->ProfileEx(s, t, thresholds, &profile) != ServeOutcome::kOk) {
      if (out.tellp() == 0) {
        out << what << " profile refused a healthy request";
      }
    } else {
      expect_profile(what, profile);
    }
  }
  auto net_profile = stack.client->Profile(s, t, thresholds);
  if (!net_profile.ok()) {
    if (out.tellp() == 0) {
      out << "net profile error: " << net_profile.status().ToString();
    }
  } else {
    expect_profile("net", net_profile.value());
  }

  // kPath: every layer must produce a valid w-path of exactly the true
  // distance (or nothing when unreachable).
  const Distance truth = ConstrainedDijkstraUnit(g, s, t, w);
  auto expect_path = [&](const char* what, const std::vector<Vertex>& path) {
    if (out.tellp() != 0) return;
    if (truth == kInfDistance) {
      if (!path.empty()) {
        out << what << " found a path where dijkstra sees none (s=" << s
            << " t=" << t << " w=" << w << ")";
      }
      return;
    }
    if (path.size() != static_cast<size_t>(truth) + 1 || path.front() != s ||
        path.back() != t || !IsValidWPath(g, path, w)) {
      out << what << " path is not a shortest valid w-path (s=" << s
          << " t=" << t << " w=" << w << ")";
    }
  };
  expect_path("flat", QueryConstrainedPath(stack.flat, g, s, t, w));
  expect_path("mmap", QueryConstrainedPath(stack.mm, g, s, t, w));
  // Compressed snapshots carry no parent quads: this layer always runs
  // the index-guided fallback, which must still produce optimal w-paths.
  expect_path("compressed", QueryConstrainedPath(stack.cmm, g, s, t, w));
  for (const auto& [what, engine] : EngineLayers(stack)) {
    std::vector<Vertex> route;
    if (engine->PathEx(s, t, w, &route) != ServeOutcome::kOk) {
      if (out.tellp() == 0) out << what << " path refused a healthy request";
    } else {
      expect_path(what, route);
    }
  }
  auto net_path = stack.client->Path(s, t, w);
  if (!net_path.ok()) {
    if (out.tellp() == 0) {
      out << "net path error: " << net_path.status().ToString();
    }
  } else {
    expect_path("net", net_path.value());
  }
  return out.str();
}

// Greedy edge-removal minimization: keep dropping edges while the
// disagreement persists, bounded by a rebuild budget.
std::string MinimizeAndReport(size_t family, uint64_t seed, size_t n,
                              EdgeList edges, Vertex s, Vertex t, Quality w,
                              size_t build_threads) {
  auto mismatches = [&](const EdgeList& candidate) {
    QualityGraph g = FromEdges(n, candidate);
    Stack stack = BuildStack(g, build_threads, "minimize");
    return !CheckOne(g, stack, s, t, w).empty();
  };
  size_t budget = 300;
  bool shrunk = true;
  while (shrunk && budget > 0) {
    shrunk = false;
    for (size_t i = 0; i < edges.size() && budget > 0; ++i) {
      EdgeList candidate = edges;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      --budget;
      if (mismatches(candidate)) {
        edges = std::move(candidate);
        shrunk = true;
        --i;
      }
    }
  }
  std::ostringstream out;
  out << "minimized reproduction (family=" << kFamilies[family]
      << " seed=" << seed << " build_threads=" << build_threads
      << "):\n  n=" << n << " s=" << s << " t=" << t << " w=" << w
      << "\n  edges:";
  for (const auto& [u, v, q] : edges) {
    out << " (" << u << "," << v << ",q=" << q << ")";
  }
  return out.str();
}

TEST(DifferentialFuzz, AllAnswerPathsAgree) {
  constexpr size_t kGraphsPerFamily = 9;
  constexpr size_t kTriplesPerGraph = 30;  // 4 * 9 * 30 = 1080 cases
  size_t cases = 0;
  for (size_t family = 0; family < 4; ++family) {
    for (size_t gi = 0; gi < kGraphsPerFamily; ++gi) {
      const uint64_t seed = 1000 * family + gi + 1;
      const QualityGraph g = MakeFuzzGraph(family, seed);
      const size_t n = g.NumVertices();
      ASSERT_GT(n, 0u);
      // Alternate sequential and parallel construction, and (on a
      // decorrelated cadence) §V parent quads, so all four combinations
      // of {build pipeline} x {v1/v2 snapshot} get fuzzed.
      const size_t build_threads = gi % 2 == 0 ? 1 : 3;
      const bool record_parents = gi % 4 >= 2;
      Stack stack = BuildStack(g, build_threads,
                               std::to_string(family) + "_" +
                                   std::to_string(gi),
                               record_parents);
      // A parallel build must keep exactly the sequential build's labels
      // (Theorem 1's minimal index), not only answer like it: redundant
      // entries answer correctly and would pass every check below.
      if (build_threads > 1) {
        WcIndexOptions sequential = WcIndexOptions::Plus();
        sequential.record_parents = record_parents;
        EXPECT_EQ(stack.labels, WcIndex::Build(g, sequential).labels())
            << "parallel build kept other labels: family="
            << kFamilies[family] << " seed=" << seed;
      }

      Rng rng(seed ^ 0xf022u);
      std::vector<BatchQueryInput> batch;
      std::vector<Distance> expected;
      for (size_t qi = 0; qi < kTriplesPerGraph; ++qi) {
        Vertex s = static_cast<Vertex>(rng.NextBounded(n));
        Vertex t = static_cast<Vertex>(rng.NextBounded(n));
        // Levels are integers 1..6; half-offsets probe strict threshold
        // behavior, and the extremes probe all-pass / all-fail.
        Quality w = static_cast<Quality>(rng.NextInRange(0, 6)) +
                    (rng.NextBool(0.3) ? 0.5f : 0.0f);
        ++cases;
        std::string mismatch = CheckOne(g, stack, s, t, w);
        if (!mismatch.empty()) {
          FAIL() << mismatch << "\n"
                 << MinimizeAndReport(family, seed, n, EdgesOf(g), s, t, w,
                                      build_threads);
        }
        // Every third triple additionally runs the three query families
        // through every layer (oracle recomputation per candidate and
        // threshold keeps this the expensive part of the suite).
        if (qi % 3 == 0) {
          std::string families_mismatch = CheckFamilies(g, stack, s, t, w,
                                                        rng);
          if (!families_mismatch.empty()) {
            FAIL() << families_mismatch << "\n  family="
                   << kFamilies[family] << " seed=" << seed
                   << " build_threads=" << build_threads
                   << " record_parents=" << record_parents << " n=" << n;
          }
        }
        batch.push_back({s, t, w});
        expected.push_back(ConstrainedDijkstraUnit(g, s, t, w));
      }
      // The batch path over the mmap engine must match, positionally.
      ASSERT_EQ(stack.engine->Batch(batch), expected)
          << "family=" << kFamilies[family] << " seed=" << seed;
      ASSERT_EQ(stack.cached->Batch(batch), expected)
          << "cached family=" << kFamilies[family] << " seed=" << seed;
      ASSERT_EQ(stack.cold->Batch(batch), expected)
          << "cold family=" << kFamilies[family] << " seed=" << seed;
      ASSERT_EQ(stack.sharded->Batch(batch), expected)
          << "family=" << kFamilies[family] << " seed=" << seed;
      ASSERT_EQ(stack.planned->Batch(batch), expected)
          << "family=" << kFamilies[family] << " seed=" << seed;
      ASSERT_EQ(stack.csharded->Batch(batch), expected)
          << "csharded family=" << kFamilies[family] << " seed=" << seed;
      // And both networked batch shapes: one kBatchQuery frame, and the
      // pipelined stream of kQuery frames.
      auto net_batch = stack.client->Batch(batch);
      ASSERT_TRUE(net_batch.ok()) << net_batch.status().ToString();
      ASSERT_EQ(net_batch.value(), expected)
          << "family=" << kFamilies[family] << " seed=" << seed;
      auto net_pipelined = stack.client->QueryPipelined(batch, 8);
      ASSERT_TRUE(net_pipelined.ok()) << net_pipelined.status().ToString();
      ASSERT_EQ(net_pipelined.value(), expected)
          << "family=" << kFamilies[family] << " seed=" << seed;
    }
  }
  EXPECT_GE(cases, 1000u);
}

// Degraded (--quarantine) refusal semantics for the three families: with
// one shard quarantined, any top-k / profile / path request touching the
// quarantined range must be refused whole with kShardUnavailable (an
// Unavailable status over the wire) — the online Dijkstra fallback covers
// the plain distance family only — while requests confined to healthy
// shards keep answering bit-identically to the intact index.
TEST(DifferentialFuzz, QuarantinedShardsRefuseFamiliesCleanly) {
  QualityModel quality;
  quality.num_levels = 5;
  const size_t n = 90;
  QualityGraph g = GenerateRandomConnected(n, 230, quality, 47);
  WcIndexOptions options = WcIndexOptions::Plus();
  WcIndex flat = WcIndex::Build(g, options);

  ShardPlanOptions plan_options;
  plan_options.num_shards = 3;
  auto plan = PlanShards(flat.flat_labels(), plan_options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan.value().shards.size(), 3u);
  auto written = WriteShardSet(testing::TempDir() + "/fuzz_degraded",
                               flat.flat_labels(), plan.value());
  ASSERT_TRUE(written.ok()) << written.status().ToString();

  // Corrupt the middle shard's header so the verified open quarantines it.
  {
    std::fstream file(written.value().shard_paths[1],
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(24);
    file.write("XXXXXXXX", 8);
  }
  const Vertex q_begin = static_cast<Vertex>(plan.value().shards[1].begin);
  const Vertex q_end = static_cast<Vertex>(plan.value().shards[1].end);
  ASSERT_LT(q_begin, q_end);
  ASSERT_GT(q_begin, 0u);   // shard 0 holds healthy vertices
  ASSERT_LT(q_end, n);      // shard 2 too

  QueryEngineOptions serve;
  serve.num_threads = 1;
  serve.graph = std::make_shared<const QualityGraph>(g);
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  DegradedOpenOptions degraded;
  degraded.quarantine_failed_shards = true;
  degraded.fallback_graph = serve.graph.get();
  auto opened = QueryEngine::OpenManifest(
      written.value().manifest_path, serve, verify, degraded);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto engine = std::make_shared<const QueryEngine>(
      std::move(opened).value());

  auto started = WcServer::Start(MakeQueryService(engine));
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  WcServer server = std::move(started).value();
  auto connected = WcClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  WcClient client = std::move(connected).value();

  const Vertex healthy_a = 0;
  const Vertex healthy_b = static_cast<Vertex>(n - 1);
  const Vertex quarantined = q_begin;
  const Quality w = 2.0f;

  // The distance family still answers quarantined touches exactly,
  // through the configured Dijkstra fallback.
  Distance d = kInfDistance;
  EXPECT_EQ(engine->QueryEx(healthy_a, quarantined, w, &d),
            ServeOutcome::kOk);
  EXPECT_EQ(d, ConstrainedDijkstraUnit(g, healthy_a, quarantined, w));

  // kTopK: one quarantined candidate poisons the whole ranking.
  std::vector<RankedCandidate> ranked;
  const std::vector<Vertex> mixed_candidates = {healthy_b, quarantined};
  const std::vector<Vertex> healthy_pair = {healthy_a, healthy_b};
  EXPECT_EQ(engine->TopKEx(healthy_a, mixed_candidates, w, 2, &ranked),
            ServeOutcome::kShardUnavailable);
  EXPECT_EQ(engine->TopKEx(quarantined, healthy_pair, w, 2, &ranked),
            ServeOutcome::kShardUnavailable);
  std::vector<Vertex> healthy_candidates;
  for (Vertex v = 0; v < q_begin; ++v) {
    if (v != healthy_a) healthy_candidates.push_back(v);
  }
  ASSERT_EQ(engine->TopKEx(healthy_a, healthy_candidates, w, 5, &ranked),
            ServeOutcome::kOk);
  auto intact_ranked = TopKClosest(flat, healthy_a, healthy_candidates, w, 5);
  ASSERT_EQ(ranked.size(), intact_ranked.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].vertex, intact_ranked[i].vertex);
    EXPECT_EQ(ranked[i].dist, intact_ranked[i].dist);
  }

  // kProfile: a quarantined endpoint is refused; healthy pairs match the
  // intact index positionally.
  const std::vector<Quality> thresholds = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  std::vector<ProfilePoint> profile;
  EXPECT_EQ(engine->ProfileEx(healthy_a, quarantined, thresholds, &profile),
            ServeOutcome::kShardUnavailable);
  ASSERT_EQ(engine->ProfileEx(healthy_a, healthy_b, thresholds, &profile),
            ServeOutcome::kOk);
  auto intact_profile = QualityProfile(flat, healthy_a, healthy_b,
                                       thresholds);
  ASSERT_EQ(profile.size(), intact_profile.size());
  for (size_t i = 0; i < profile.size(); ++i) {
    EXPECT_EQ(profile[i].quality, intact_profile[i].quality);
    EXPECT_EQ(profile[i].dist, intact_profile[i].dist);
  }

  // kPath: quarantined endpoints are refused; a healthy pair either routes
  // around the quarantined range (and must then be a shortest valid
  // w-path) or is refused cleanly when every route needs it.
  std::vector<Vertex> route;
  EXPECT_EQ(engine->PathEx(quarantined, healthy_b, w, &route),
            ServeOutcome::kShardUnavailable);
  const ServeOutcome path_outcome =
      engine->PathEx(healthy_a, healthy_b, w, &route);
  ASSERT_NE(path_outcome, ServeOutcome::kNotSupported);
  if (path_outcome == ServeOutcome::kOk && !route.empty()) {
    const Distance truth = ConstrainedDijkstraUnit(g, healthy_a, healthy_b,
                                                   w);
    EXPECT_EQ(route.size(), static_cast<size_t>(truth) + 1);
    EXPECT_EQ(route.front(), healthy_a);
    EXPECT_EQ(route.back(), healthy_b);
    EXPECT_TRUE(IsValidWPath(g, route, w));
  }

  // Over the wire the refusals surface as Unavailable, and the connection
  // stays healthy for follow-up requests.
  auto net_topk = client.TopK(healthy_a, {healthy_b, quarantined}, w, 2);
  ASSERT_FALSE(net_topk.ok());
  EXPECT_EQ(net_topk.status().code(), StatusCode::kUnavailable);
  auto net_profile = client.Profile(quarantined, healthy_b, thresholds);
  ASSERT_FALSE(net_profile.ok());
  EXPECT_EQ(net_profile.status().code(), StatusCode::kUnavailable);
  auto net_path = client.Path(healthy_a, quarantined, w);
  ASSERT_FALSE(net_path.ok());
  EXPECT_EQ(net_path.status().code(), StatusCode::kUnavailable);
  auto net_ok = client.TopK(healthy_a, healthy_candidates, w, 5);
  ASSERT_TRUE(net_ok.ok()) << net_ok.status().ToString();
  ASSERT_EQ(net_ok.value().size(), intact_ranked.size());
  for (size_t i = 0; i < net_ok.value().size(); ++i) {
    EXPECT_EQ(net_ok.value()[i].vertex, intact_ranked[i].vertex);
    EXPECT_EQ(net_ok.value()[i].dist, intact_ranked[i].dist);
  }

  std::remove(written.value().manifest_path.c_str());
  for (const std::string& p : written.value().shard_paths) {
    std::remove(p.c_str());
  }
}

// Live-update differential fuzz (ISSUE 7): random insert / delete /
// upgrade sequences on a DynamicWcIndex must stay bit-identical AT EVERY
// STEP to a fresh WcIndex built on the materialized graph — across all
// four QueryImpls and both label backends. The recorded sequence is then
// round-tripped through the on-disk delta log and replayed onto an
// adopted copy of the ORIGINAL index (the offline `wcsd_cli update`
// path), which must land on the same answers as the always-live index.
TEST(DifferentialFuzz, LiveUpdateMatchesFreshRebuild) {
  constexpr size_t kN = 30;
  constexpr int kLevels = 5;
  constexpr int kSteps = 12;
  constexpr size_t kTriples = 20;
  for (uint64_t seed : {21u, 22u, 23u}) {
    QualityModel quality;
    quality.num_levels = kLevels;
    QualityGraph initial = GenerateRandomConnected(kN, 50, quality, seed);
    WcIndexOptions options = WcIndexOptions::Plus();
    DynamicWcIndex live(initial, options);
    DeltaLog log;
    Rng rng(seed ^ 0xdeadu);

    auto pick_edge = [&](const QualityGraph& g) {
      for (;;) {
        Vertex u = static_cast<Vertex>(rng.NextBounded(kN));
        if (g.Degree(u) == 0) continue;
        const auto neighbors = g.Neighbors(u);
        return std::make_pair(
            u, neighbors[rng.NextBounded(neighbors.size())]);
      }
    };

    for (int step = 0; step < kSteps; ++step) {
      QualityGraph before = live.Snapshot();
      DeltaBatch batch;
      const int kind = static_cast<int>(rng.NextBounded(3));
      if (kind == 0) {  // insert (may upgrade a parallel edge: same path)
        Vertex u = static_cast<Vertex>(rng.NextBounded(kN));
        Vertex v = static_cast<Vertex>((u + 1 + rng.NextBounded(kN - 1)) %
                                       kN);
        Quality q = static_cast<Quality>(rng.NextInRange(1, kLevels));
        live.InsertEdge(u, v, q);
        batch.records.push_back(
            {static_cast<uint8_t>(DeltaOp::kInsert), {}, u, v, q, 0.0f});
      } else if (kind == 1) {  // delete an existing edge
        auto [u, arc] = pick_edge(before);
        live.DeleteEdge(u, arc.to);
        batch.records.push_back({static_cast<uint8_t>(DeltaOp::kDelete),
                                 {},
                                 u,
                                 arc.to,
                                 arc.quality,
                                 0.0f});
      } else {  // upgrade an existing upgradable edge (else fall back)
        bool upgraded = false;
        for (int tries = 0; tries < 32 && !upgraded; ++tries) {
          auto [u, arc] = pick_edge(before);
          if (arc.quality < static_cast<Quality>(kLevels)) {
            Quality q_new = arc.quality + 1.0f;
            live.InsertEdge(u, arc.to, q_new);
            batch.records.push_back(
                {static_cast<uint8_t>(DeltaOp::kUpgrade),
                 {},
                 u,
                 arc.to,
                 q_new,
                 arc.quality});
            upgraded = true;
          }
        }
        if (!upgraded) continue;
      }
      log.batches.push_back(std::move(batch));

      // Bit-identical at this step: fresh build on the materialized
      // graph, all four impls, over its store and over its labels as
      // vectors.
      QualityGraph current = live.Snapshot();
      const WcIndex fresh = WcIndex::Build(current, options);
      const LabelSet labels = fresh.labels();
      Rng probe(seed * 1000 + static_cast<uint64_t>(step));
      for (size_t qi = 0; qi < kTriples; ++qi) {
        Vertex s = static_cast<Vertex>(probe.NextBounded(kN));
        Vertex t = static_cast<Vertex>(probe.NextBounded(kN));
        Quality w = static_cast<Quality>(probe.NextInRange(1, kLevels));
        const Distance expected = live.Query(s, t, w);
        ASSERT_EQ(expected, ConstrainedDijkstraUnit(current, s, t, w))
            << "seed=" << seed << " step=" << step << " " << s << "->" << t
            << " w=" << w;
        for (QueryImpl impl : {QueryImpl::kScan, QueryImpl::kHubGrouped,
                               QueryImpl::kBinary, QueryImpl::kMerge}) {
          ASSERT_EQ(fresh.Query(s, t, w, impl), expected)
              << "seed=" << seed << " step=" << step;
          ASSERT_EQ(QueryLabels(labels.For(s), labels.For(t), w, impl),
                    expected)
              << "seed=" << seed << " step=" << step;
        }
      }
    }

    // Offline replay: write the recorded log to disk, read it back, adopt
    // the original index, Apply — answers must match the live index.
    std::string delta_path = testing::TempDir() + "/fuzz_live_" +
                             std::to_string(seed) + ".wcdelta";
    ASSERT_TRUE(WriteDeltaLog(delta_path, log).ok());
    auto reread = ReadDeltaLog(delta_path);
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    std::remove(delta_path.c_str());

    WcIndex base = WcIndex::Build(initial, options);
    DynamicWcIndex replayed(initial, base.order(), base.labels(), options);
    replayed.Apply(reread.value());
    QualityGraph final_graph = live.Snapshot();
    ASSERT_EQ(replayed.Snapshot(), final_graph) << "seed=" << seed;
    Rng probe(seed * 7919);
    for (size_t qi = 0; qi < 2 * kTriples; ++qi) {
      Vertex s = static_cast<Vertex>(probe.NextBounded(kN));
      Vertex t = static_cast<Vertex>(probe.NextBounded(kN));
      Quality w = static_cast<Quality>(probe.NextInRange(1, kLevels));
      ASSERT_EQ(replayed.Query(s, t, w), live.Query(s, t, w))
          << "seed=" << seed << " " << s << "->" << t << " w=" << w;
    }
  }
}

}  // namespace
}  // namespace wcsd

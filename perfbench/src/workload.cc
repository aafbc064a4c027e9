#include "workload.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "bench/workload.h"
#include "common.h"
#include "core/dynamic_wc_index.h"
#include "core/path_index.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "labeling/delta.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "search/constrained_dijkstra.h"
#include "util/random.h"

namespace perfbench {

using wcsd::Distance;
using wcsd::kInfDistance;
using wcsd::Quality;
using wcsd::Vertex;
namespace net = wcsd::net;

namespace {

using Ordering = wcsd::WcIndexOptions::Ordering;

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// The open-loop rates are frozen here, never derived per run; they sit far
// below the closed-loop throughput because one single-frame write(2) costs
// the sender ~12 µs and host stalls of up to 10 ms otherwise push the
// backlog into the median.
const WorkloadSpec kWorkloads[] = {
    {.name = "point-uniform",
     .graph = GraphKind::kSocial,
     .ordering = Ordering::kHybrid,
     .build_threads = 1,
     .record_parents = false,
     .storage = Storage::kFlat,
     .cache_kib = 0,
     .decode_cache_kib = 0,
     .traffic = TrafficKind::kUniform,
     .batch = 1,
     .family_share = 0,
     .pool_frames = 262144,
     .window = 4096,
     .open_rate = 20000,
     .swaps = 0,
     .setup_repeats = 5},
    {.name = "batch-cold",
     .graph = GraphKind::kRoad,
     .ordering = Ordering::kTreeDecomposition,
     .build_threads = 0,
     .record_parents = false,
     .storage = Storage::kCompressedShards,
     .cache_kib = 0,
     // Well below the ~15 MiB of decoded labels, so most lookups decode.
     .decode_cache_kib = 2048,
     .traffic = TrafficKind::kUniform,
     .batch = 512,
     .family_share = 0,
     .pool_frames = 512,
     .window = 4,
     .open_rate = 50,
     .swaps = 0,
     .setup_repeats = 3},
    {.name = "zipf-live",
     .graph = GraphKind::kSocial,
     .ordering = Ordering::kHybrid,
     .build_threads = 1,
     .record_parents = true,
     .storage = Storage::kFlat,
     .cache_kib = 1024,
     .decode_cache_kib = 0,
     .traffic = TrafficKind::kZipf,
     .batch = 1,
     // Small, so neither percentile sits on the step between point and
     // family latencies.
     .family_share = 0.03,
     .pool_frames = 524288,
     .window = 4096,
     .open_rate = 20000,
     // Each scoped InvalidateDelta stalls the reactor for 60-330 ms with
     // one-edge deltas (about 1 s with 16-edge ones), so few and small.
     .swaps = 2,
     .setup_repeats = 3},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += spec.name;
  }
  return names;
}

wcsd::QualityGraph GenerateGraph(const WorkloadSpec& spec, uint64_t seed) {
  wcsd::QualityModel quality;
  quality.num_levels = kLevels;
  if (spec.graph == GraphKind::kRoad) {
    // Every grid edge kept and no diagonals: with a random block structure
    // the index size of seeds 1-5 differed by up to 30%, against 2% now.
    wcsd::RoadOptions road;
    road.rows = road.cols = kRoadSide;
    road.extra_edge_keep_prob = 1.0;
    road.diagonal_prob = 0.0;
    road.arterial_spacing = kRoadArterialSpacing;
    road.quality = quality;
    return wcsd::GenerateRoadNetwork(road, seed);
  }
  const wcsd::QualityGraph topology = wcsd::GenerateBarabasiAlbert(
      kSocialVertices, kSocialEdgesPerVertex, quality, kSocialTopologySeed);
  wcsd::Rng rng(seed);
  wcsd::GraphBuilder builder(topology.NumVertices());
  for (Vertex u = 0; u < topology.NumVertices(); ++u) {
    for (const wcsd::Arc& arc : topology.Neighbors(u)) {
      if (u < arc.to) {
        builder.AddEdge(u, arc.to, wcsd::SampleQuality(quality, &rng));
      }
    }
  }
  return builder.Build();
}

namespace {

wcsd::WcIndexOptions IndexOptions(const WorkloadSpec& spec) {
  wcsd::WcIndexOptions options = wcsd::WcIndexOptions::Plus();
  options.ordering = spec.ordering;
  options.num_threads = spec.build_threads;
  options.record_parents = spec.record_parents;
  return options;
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

}  // namespace

BuiltIndex BuildIndex(const WorkloadSpec& spec, wcsd::QualityGraph graph,
                      SetupTimes* times) {
  const wcsd::WcIndexOptions options = IndexOptions(spec);
  const int64_t t0 = NowNs();
  wcsd::VertexOrder order = wcsd::MakeOrder(graph, options);
  const int64_t t1 = NowNs();
  const int64_t cpu0 = ProcessCpuNs();
  wcsd::WcIndex index =
      wcsd::WcIndex::BuildWithOrder(graph, std::move(order), options);
  index.Finalize();
  const int64_t t2 = NowNs();
  times->order_s = Seconds(t0, t1);
  times->build_s = Seconds(t1, t2);
  times->build_cpu_s = Seconds(cpu0, ProcessCpuNs());
  times->stats = index.build_stats();
  BuiltIndex built;
  built.graph = std::make_shared<const wcsd::QualityGraph>(std::move(graph));
  built.index = std::make_shared<const wcsd::WcIndex>(std::move(index));
  return built;
}

wcsd::Result<std::string> WriteServingFiles(const WorkloadSpec& spec,
                                            const wcsd::WcIndex& index,
                                            const std::string& stem) {
  if (spec.storage == Storage::kCompressedShards) {
    wcsd::ShardPlanOptions plan_options;
    plan_options.num_shards = kShards;
    auto plan = wcsd::PlanShards(index.flat_labels(), plan_options);
    if (!plan.ok()) return plan.status();
    wcsd::SnapshotWriteOptions write;
    write.compress = true;
    auto written =
        wcsd::WriteShardSet(stem, index.flat_labels(), plan.value(), write);
    if (!written.ok()) return written.status();
    return "--manifest=" + written.value().manifest_path;
  }
  const std::string path = stem + ".wcsnap";
  wcsd::Status st = index.SaveSnapshot(path);
  if (!st.ok()) return st;
  return "--snapshot=" + path;
}

wcsd::Result<std::vector<BuiltIndex>> BuildChain(
    const WorkloadSpec& spec, const BuiltIndex& base, uint64_t seed,
    const std::string& stem, std::vector<ChainStep>* steps) {
  wcsd::WcIndexOptions options = IndexOptions(spec);
  options.record_parents = false;  // the update path does not keep quads
  wcsd::Rng rng(seed ^ 0xde17a5eedULL);
  std::vector<BuiltIndex> chain;
  const BuiltIndex* prev = &base;
  for (size_t k = 0; k < spec.swaps; ++k) {
    const size_t n = prev->graph->NumVertices();
    wcsd::DeltaLog log;
    log.base_fingerprint =
        wcsd::IndexContentFingerprint(prev->index->flat_labels());
    wcsd::DeltaBatch batch;
    while (batch.records.size() < kDeltaEdges) {
      wcsd::DeltaRecord record;
      record.op = static_cast<uint8_t>(wcsd::DeltaOp::kInsert);
      record.u = static_cast<Vertex>(rng.NextBounded(n));
      record.v = static_cast<Vertex>(rng.NextBounded(n));
      record.quality = static_cast<Quality>(rng.NextInRange(1, kLevels));
      if (record.u != record.v) batch.records.push_back(record);
    }
    log.batches.push_back(std::move(batch));

    wcsd::DynamicWcIndex dyn(*prev->graph, prev->index->order(),
                             prev->index->labels(), options);
    dyn.Apply(log);
    wcsd::QualityGraph graph = dyn.Snapshot();
    wcsd::WcIndex index = dyn.ReleaseIndex();
    index.Finalize();

    ChainStep step;
    const std::string gen_stem = stem + ".gen" + std::to_string(k + 2);
    step.snapshot = gen_stem + ".wcsnap";
    step.delta = gen_stem + ".delta";
    step.graph = gen_stem + ".graph";
    wcsd::Status st = index.SaveSnapshot(step.snapshot);
    if (st.ok()) st = wcsd::WriteDeltaLog(step.delta, log);
    if (st.ok()) st = wcsd::WriteBinaryGraph(graph, step.graph);
    if (!st.ok()) return st;
    steps->push_back(step);

    BuiltIndex next;
    next.graph = std::make_shared<const wcsd::QualityGraph>(std::move(graph));
    next.index = std::make_shared<const wcsd::WcIndex>(std::move(index));
    chain.push_back(std::move(next));
    prev = &chain.back();
  }
  return chain;
}

Traffic MakeTraffic(const WorkloadSpec& spec, const wcsd::QualityGraph& graph,
                    uint64_t seed) {
  Traffic traffic;
  traffic.thresholds = graph.DistinctQualities();
  const size_t frames = spec.pool_frames;
  const size_t n = graph.NumVertices();
  if (spec.traffic == TrafficKind::kZipf) {
    // The hot pairs and their Zipf draws; each draw then gets a fresh w.
    std::vector<wcsd::WcsdQuery> draws = wcsd::MakeZipfQueryWorkload(
        graph, frames, kZipfPairs, kZipfTheta, /*vary_w=*/false,
        seed);
    wcsd::Rng rng(seed ^ 0xfa111e5ULL);
    for (const wcsd::WcsdQuery& q : draws) {
      Request r;
      r.s = q.s;
      r.t = q.t;
      r.w = traffic.thresholds[rng.NextBounded(traffic.thresholds.size())];
      if (rng.NextDouble() < spec.family_share) {
        switch (rng.NextBounded(3)) {
          case 0:
            r.kind = Kind::kTopK;
            r.first = static_cast<uint32_t>(traffic.candidates.size());
            r.count = static_cast<uint32_t>(kTopKCandidates);
            for (size_t c = 0; c < kTopKCandidates; ++c) {
              traffic.candidates.push_back(
                  static_cast<Vertex>(rng.NextBounded(n)));
            }
            break;
          case 1:
            r.kind = Kind::kProfile;
            break;
          default:
            r.kind = Kind::kPath;
            break;
        }
      }
      traffic.requests.push_back(r);
    }
  } else {
    std::vector<wcsd::WcsdQuery> queries =
        wcsd::MakeQueryWorkload(graph, frames * spec.batch, seed);
    for (size_t i = 0; i < frames; ++i) {
      Request r;
      const wcsd::WcsdQuery& q = queries[i * spec.batch];
      r.s = q.s;
      r.t = q.t;
      r.w = q.w;
      if (spec.batch > 1) {
        r.kind = Kind::kBatch;
        r.first = static_cast<uint32_t>(traffic.batch_queries.size());
        r.count = static_cast<uint32_t>(spec.batch);
        for (size_t j = 0; j < spec.batch; ++j) {
          const wcsd::WcsdQuery& b = queries[i * spec.batch + j];
          traffic.batch_queries.push_back({b.s, b.t, b.w});
        }
      }
      traffic.requests.push_back(r);
    }
  }

  traffic.wire_offsets.reserve(traffic.size() + 1);
  for (size_t i = 0; i < traffic.size(); ++i) {
    traffic.wire_offsets.push_back(traffic.wire.size());
    const Request& r = traffic.requests[i];
    switch (r.kind) {
      case Kind::kPoint:
        net::AppendQueryRequest(&traffic.wire, i, r.s, r.t, r.w);
        break;
      case Kind::kBatch:
        net::AppendBatchRequest(
            &traffic.wire, i,
            std::span(traffic.batch_queries).subspan(r.first, r.count));
        break;
      case Kind::kTopK:
        net::AppendTopKRequest(
            &traffic.wire, i, r.s,
            std::span(traffic.candidates).subspan(r.first, r.count), r.w,
            static_cast<uint32_t>(kTopK));
        break;
      case Kind::kProfile:
        net::AppendProfileRequest(&traffic.wire, i, r.s, r.t,
                                  traffic.thresholds);
        break;
      case Kind::kPath:
        net::AppendPathRequest(&traffic.wire, i, r.s, r.t, r.w);
        break;
    }
  }
  traffic.wire_offsets.push_back(traffic.wire.size());
  return traffic;
}

namespace {

void AppendU32(std::vector<uint8_t>* out, uint32_t value) {
  const size_t at = out->size();
  out->resize(at + sizeof(value));
  std::memcpy(out->data() + at, &value, sizeof(value));
}

template <typename T>
void AppendRecords(std::vector<uint8_t>* out, const std::vector<T>& records) {
  AppendU32(out, static_cast<uint32_t>(records.size()));
  const size_t at = out->size();
  out->resize(at + records.size() * sizeof(T));
  if (!records.empty()) {
    std::memcpy(out->data() + at, records.data(), records.size() * sizeof(T));
  }
}

/// The reply payload the server must send for request `r`.
void AppendExpected(const Traffic& traffic, const wcsd::WcIndex& index,
                    const Request& r, std::vector<uint8_t>* out) {
  switch (r.kind) {
    case Kind::kPoint:
    case Kind::kPath:
      AppendU32(out, index.Query(r.s, r.t, r.w));
      break;
    case Kind::kBatch: {
      AppendU32(out, r.count);
      for (uint32_t j = 0; j < r.count; ++j) {
        const wcsd::BatchQueryInput& q = traffic.batch_queries[r.first + j];
        AppendU32(out, index.Query(q.s, q.t, q.w));
      }
      break;
    }
    case Kind::kTopK: {
      std::vector<Vertex> candidates(
          traffic.candidates.begin() + r.first,
          traffic.candidates.begin() + r.first + r.count);
      AppendRecords(out,
                    wcsd::TopKClosest(index, r.s, candidates, r.w, kTopK));
      break;
    }
    case Kind::kProfile:
      AppendRecords(out, wcsd::QualityProfile(index, r.s, r.t,
                                              traffic.thresholds));
      break;
  }
}

}  // namespace

Expected ComputeExpected(const Traffic& traffic, const BuiltIndex& gen) {
  // Contiguous request ranges in parallel, then concatenated in order.
  const size_t workers =
      std::max<size_t>(1, std::min<size_t>(std::thread::hardware_concurrency(),
                                           traffic.size()));
  std::vector<std::vector<uint8_t>> bytes(workers);
  std::vector<std::vector<size_t>> sizes(workers);
  std::vector<std::thread> threads;
  for (size_t k = 0; k < workers; ++k) {
    threads.emplace_back([&, k] {
      const size_t begin = traffic.size() * k / workers;
      const size_t end = traffic.size() * (k + 1) / workers;
      for (size_t i = begin; i < end; ++i) {
        const size_t before = bytes[k].size();
        AppendExpected(traffic, *gen.index, traffic.requests[i], &bytes[k]);
        sizes[k].push_back(bytes[k].size() - before);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Expected expected;
  expected.graph = gen.graph.get();
  expected.offsets.reserve(traffic.size() + 1);
  for (size_t k = 0; k < workers; ++k) {
    for (size_t size : sizes[k]) {
      expected.offsets.push_back(expected.bytes.size());
      expected.bytes.resize(expected.bytes.size() + size);
    }
  }
  expected.offsets.push_back(expected.bytes.size());
  size_t at = 0;
  for (size_t k = 0; k < workers; ++k) {
    std::memcpy(expected.bytes.data() + at, bytes[k].data(), bytes[k].size());
    at += bytes[k].size();
  }
  return expected;
}

namespace {

net::MsgType ReplyType(Kind kind) {
  switch (kind) {
    case Kind::kPoint:
      return net::MsgType::kQueryReply;
    case Kind::kBatch:
      return net::MsgType::kBatchQueryReply;
    case Kind::kTopK:
      return net::MsgType::kTopKReply;
    case Kind::kProfile:
      return net::MsgType::kProfileReply;
    case Kind::kPath:
      return net::MsgType::kPathReply;
  }
  return net::MsgType::kError;
}

}  // namespace

bool ReplyMatches(const Traffic& traffic, const Expected& expected, size_t i,
                  const net::WireHeader& header, const uint8_t* payload) {
  const Request& r = traffic.requests[i];
  if (header.status != static_cast<uint8_t>(net::WireError::kOk) ||
      header.type != static_cast<uint8_t>(ReplyType(r.kind))) {
    return false;
  }
  const uint8_t* want = expected.bytes.data() + expected.offsets[i];
  const size_t want_bytes = expected.offsets[i + 1] - expected.offsets[i];
  if (r.kind != Kind::kPath) {
    return header.payload_bytes == want_bytes &&
           std::memcmp(payload, want, want_bytes) == 0;
  }
  // Paths: any valid w-path of the expected length.
  Distance dist;
  uint32_t count;
  std::memcpy(&dist, want, sizeof(dist));
  if (header.payload_bytes < sizeof(count)) return false;
  std::memcpy(&count, payload, sizeof(count));
  if (header.payload_bytes != sizeof(count) + uint64_t{count} * sizeof(Vertex)) {
    return false;
  }
  if (dist == kInfDistance) return count == 0;
  if (count != uint64_t{dist} + 1) return false;
  std::vector<Vertex> path(count);
  std::memcpy(path.data(), payload + sizeof(count), count * sizeof(Vertex));
  return path.front() == r.s && path.back() == r.t &&
         wcsd::IsValidWPath(*expected.graph, path, r.w);
}

std::string Describe(const Traffic& traffic, size_t i) {
  static const char* kNames[] = {"query", "batch", "topk", "profile", "path"};
  const Request& r = traffic.requests[i];
  char line[160];
  std::snprintf(line, sizeof(line), "%s s=%u t=%u w=%g",
                kNames[static_cast<int>(r.kind)], r.s, r.t,
                static_cast<double>(r.w));
  std::string text = line;
  if (r.kind == Kind::kBatch) {
    text += " (first of " + std::to_string(r.count) + " queries)";
  }
  return text;
}

std::vector<std::string> MismatchDetails(const Traffic& traffic,
                                         const Expected& expected, size_t i,
                                         const BadReply* reply) {
  const Request& r = traffic.requests[i];
  const uint8_t* want = expected.bytes.data() + expected.offsets[i];
  const size_t want_bytes = expected.offsets[i + 1] - expected.offsets[i];
  auto word = [](const uint8_t* at) {
    uint32_t value;
    std::memcpy(&value, at, sizeof(value));
    return value;
  };
  // Point and batch replies of the expected size are compared word by
  // word; anything else is described as a whole.
  std::string whole;
  if (reply == nullptr) {
    whole = "no reply";
  } else if (reply->header.type == static_cast<uint8_t>(net::MsgType::kError)) {
    whole = "error reply, status " + std::to_string(reply->header.status);
  } else if (reply->payload.size() != want_bytes ||
             (r.kind != Kind::kPoint && r.kind != Kind::kBatch)) {
    whole = "got " + std::to_string(reply->payload.size()) +
            " payload bytes, want " + std::to_string(want_bytes) +
            (r.kind == Kind::kPath ? " (path)" : "");
  }
  if (r.kind == Kind::kPoint && whole.empty()) {
    return {"got " + std::to_string(word(reply->payload.data())) + ", want " +
            std::to_string(word(want))};
  }
  if (r.kind != Kind::kBatch) return {whole};
  std::vector<std::string> lines;
  for (uint32_t j = 0; j < r.count; ++j) {
    const size_t at = sizeof(uint32_t) * (j + 1);
    const uint32_t exp = word(want + at);
    const wcsd::BatchQueryInput& q = traffic.batch_queries[r.first + j];
    char line[200];
    if (whole.empty()) {
      const uint32_t got = word(reply->payload.data() + at);
      if (got == exp) continue;
      std::snprintf(line, sizeof(line),
                    "batch query %u s=%u t=%u w=%g: got %u, want %u", j, q.s,
                    q.t, static_cast<double>(q.w), got, exp);
    } else {
      std::snprintf(line, sizeof(line),
                    "batch query %u s=%u t=%u w=%g: want %u, %s", j, q.s, q.t,
                    static_cast<double>(q.w), exp, whole.c_str());
    }
    lines.push_back(line);
  }
  // Every answer equal but the frame still wrong: the header or count.
  if (lines.empty()) lines.push_back("answers equal, reply header differs");
  return lines;
}

size_t OracleCheck(const BuiltIndex& gen, size_t samples, uint64_t seed,
                   uint32_t generation) {
  const wcsd::QualityGraph& g = *gen.graph;
  std::vector<Quality> levels = g.DistinctQualities();
  wcsd::Rng rng(seed ^ 0x0facc1eULL);
  size_t mismatches = 0;
  for (size_t i = 0; i < samples; ++i) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    const Quality w = levels[rng.NextBounded(levels.size())];
    const Distance want = wcsd::ConstrainedDijkstraUnit(g, s, t, w);
    const Distance got = gen.index->Query(s, t, w);
    if (got != want) {
      ++mismatches;
      std::printf("ORACLE MISMATCH generation=%u s=%u t=%u w=%g index=%u "
                  "dijkstra=%u\n",
                  generation, s, t, static_cast<double>(w), got, want);
    }
  }
  return mismatches;
}

}  // namespace perfbench

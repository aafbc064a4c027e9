// Workload definition, index set-up, traffic generation, and the reference
// answers every reply is checked against.
//
// The three workloads are the constants in workload.cc. A workload and a
// seed fully determine a run's inputs: the seed generates the graph's edge
// qualities, the Zipf hot set, the request pool and the hot-swap chain, so
// the same pair always yields the same graph, index, requests and
// generations.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/wc_index.h"
#include "graph/graph.h"
#include "net/wire.h"
#include "util/types.h"

namespace perfbench {

// Parameters every workload that uses them shares.
constexpr int kLevels = 5;                   // distinct edge qualities
constexpr size_t kSocialVertices = 5000;     // Barabási–Albert
constexpr size_t kSocialEdgesPerVertex = 4;
// The social topology is this one Barabási–Albert draw; the run's seed
// draws its edge qualities. Across seeds 1-10 the topology alone moved the
// index size by 6% (coefficient of variation), against 1% with it fixed.
constexpr uint64_t kSocialTopologySeed = 1;
constexpr size_t kRoadSide = 70;             // side x side grid
constexpr size_t kRoadArterialSpacing = 8;   // top-quality arterial rows
constexpr size_t kShards = 4;                // planned by label mass
constexpr double kZipfTheta = 1.0;
constexpr size_t kZipfPairs = 100000;        // popularity pool of (s, t)
constexpr size_t kTopKCandidates = 32;
constexpr size_t kTopK = 8;
constexpr size_t kDeltaEdges = 1;            // inserted per chain generation

enum class GraphKind : uint8_t { kSocial, kRoad };
enum class Storage : uint8_t { kFlat, kCompressedShards };
enum class TrafficKind : uint8_t { kUniform, kZipf };

/// One workload. Every field is set in workload.cc; the build fails on a
/// field left out there.
struct WorkloadSpec {
  const char* name;
  // Graph and index.
  GraphKind graph;
  wcsd::WcIndexOptions::Ordering ordering;
  size_t build_threads;  // 0 = one per CPU
  bool record_parents;
  // Serving.
  Storage storage;
  size_t cache_kib;         // shared result cache (0 = none)
  size_t decode_cache_kib;  // decoded-label cache (0 = none)
  // Traffic.
  TrafficKind traffic;
  size_t batch;          // queries per frame; 1 = kQuery frames
  double family_share;   // share of frames that are top-k/profile/path
  size_t pool_frames;    // request pool, cycled by the loops
  size_t window;         // closed loop: frames in flight
  double open_rate;      // open loop: frames per second, frozen
  size_t swaps;          // hot swaps per open-loop phase
  size_t setup_repeats;  // setups per run; setup_s is the median
};

/// The workload called `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The workload names, comma-separated, for usage messages.
std::string WorkloadNames();

/// Wall and CPU time of the index build, plus its counters.
struct SetupTimes {
  double order_s = 0;
  double build_s = 0;  // BuildWithOrder + Finalize
  double build_cpu_s = 0;
  wcsd::WcIndexBuildStats stats;
};

/// The in-memory result of one set-up: the graph and its finalized index
/// (the reference every reply is checked against).
struct BuiltIndex {
  std::shared_ptr<const wcsd::QualityGraph> graph;
  std::shared_ptr<const wcsd::WcIndex> index;
};

/// The workload's graph. The topology is fixed (the full road grid, or
/// the kSocialTopologySeed draw); `seed` draws every edge quality off the
/// arterials.
wcsd::QualityGraph GenerateGraph(const WorkloadSpec& spec, uint64_t seed);

/// MakeOrder + BuildWithOrder + Finalize, timed into `times`.
BuiltIndex BuildIndex(const WorkloadSpec& spec, wcsd::QualityGraph graph,
                      SetupTimes* times);

/// Writes what the server maps: a flat snapshot (`<stem>.wcsnap`) or a
/// compressed shard set planned by label mass (`<stem>.manifest`). Returns
/// the server flag naming it ("--snapshot=..." / "--manifest=...").
wcsd::Result<std::string> WriteServingFiles(const WorkloadSpec& spec,
                                            const wcsd::WcIndex& index,
                                            const std::string& stem);

/// One generation of the hot-swap chain, as files the server can open.
struct ChainStep {
  std::string snapshot;
  std::string delta;
  std::string graph;
};

/// Builds the chain of delta-updated generations that follow `base`:
/// each inserts kDeltaEdges random edges through DynamicWcIndex
/// (the offline `update` path), writes the snapshot, its delta log and its
/// graph, and returns the in-memory generation for reference answers.
wcsd::Result<std::vector<BuiltIndex>> BuildChain(
    const WorkloadSpec& spec, const BuiltIndex& base, uint64_t seed,
    const std::string& stem, std::vector<ChainStep>* steps);

enum class Kind : uint8_t { kPoint, kBatch, kTopK, kProfile, kPath };

struct Request {
  Kind kind = Kind::kPoint;
  wcsd::Vertex s = 0;
  wcsd::Vertex t = 0;
  wcsd::Quality w = 0;
  uint32_t first = 0;  // kBatch: into batch_queries; kTopK: into candidates
  uint32_t count = 1;  // kBatch: queries; kTopK: candidates
};

/// The request pool, pre-encoded as wire frames. Frame i carries request
/// id i, so replies can be checked against the pool position they answer.
struct Traffic {
  std::vector<Request> requests;
  std::vector<wcsd::BatchQueryInput> batch_queries;
  std::vector<wcsd::Vertex> candidates;
  std::vector<wcsd::Quality> thresholds;  // profile thresholds (all levels)
  std::vector<uint8_t> wire;
  std::vector<size_t> wire_offsets;  // requests.size() + 1

  size_t size() const { return requests.size(); }
  /// Queries a frame carries (batch size; 1 for every other frame).
  uint32_t Queries(size_t i) const {
    return requests[i].kind == Kind::kBatch ? requests[i].count : 1;
  }
  size_t FrameBytes(size_t i) const {
    return wire_offsets[i + 1] - wire_offsets[i];
  }
};

/// The request pool: uniform queries, or Zipf draws over a hot set of
/// (s, t) pairs, both generated from `seed`.
Traffic MakeTraffic(const WorkloadSpec& spec, const wcsd::QualityGraph& graph,
                    uint64_t seed);

/// Expected reply payload bytes for every pool request against one
/// generation (kPath: the expected distance; paths are checked for
/// validity instead, since shortest paths are not unique).
struct Expected {
  std::vector<uint8_t> bytes;
  std::vector<size_t> offsets;  // traffic.size() + 1
  const wcsd::QualityGraph* graph = nullptr;
};

Expected ComputeExpected(const Traffic& traffic, const BuiltIndex& gen);

/// True when a reply frame answers pool request `i` as `expected` does.
bool ReplyMatches(const Traffic& traffic, const Expected& expected, size_t i,
                  const wcsd::net::WireHeader& header,
                  const uint8_t* payload);

/// Human-readable description of request i, for mismatch reports.
std::string Describe(const Traffic& traffic, size_t i);

/// A reply that matched no generation, kept for the mismatch report.
struct BadReply {
  wcsd::net::WireHeader header;
  std::vector<uint8_t> payload;
};

/// What request i got (`reply`, nullptr when none came) against
/// `expected`, one line each: for a batch, every wrong query with its
/// (s, t, w).
std::vector<std::string> MismatchDetails(const Traffic& traffic,
                                         const Expected& expected, size_t i,
                                         const BadReply* reply);

/// Cross-checks `samples` random queries of `gen` against constrained
/// Dijkstra on its graph. Returns the number of mismatches (each printed).
size_t OracleCheck(const BuiltIndex& gen, size_t samples, uint64_t seed,
                   uint32_t generation);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

// The serving engine: one thread-safe query service over a tiling of label
// sources.
//
// A WC-INDEX query (s, t, w) reads exactly two label slices, L(s) and L(t)
// (Eq. 1), and hubs are global ranks, so the slices intersect correctly no
// matter which storage they came from. The engine therefore serves every
// deployment shape as a tiling of [0, n) into contiguous vertex ranges,
// each backed by one label source:
//   * a flat mapping (an mmap'd snapshot or shard file, or the flat labels
//     of an in-memory index);
//   * a compressed mapping (v3 files): distance queries stream it with the
//     varint cursor, paired with a flat or a compressed other side;
//     requests that need a decoded view decode it, through the one
//     optional decoded-label cache;
//   * a quarantined range (degraded manifest open: its labels never
//     loaded).
// There are three ways in: the constructor over a WcIndex, Open of one
// snapshot, and OpenManifest of a shard set. An unsharded snapshot is a
// one-shard tiling; engines over a whole WcIndex (the constructor and Open)
// keep the index for its vertex order and §V parent quads, so kPath runs
// QueryConstrainedPath. Shard tilings carry no order and reconstruct paths
// by index-guided greedy stepping.
//
// The engine is itself the QueryService the wire server (net/server.h)
// routes frames to. Single queries and batches may come from any number of
// caller threads concurrently; batches fan out over an internal ThreadPool
// in contiguous chunks (serve/batch_runner.h), and each worker accumulates
// into its own cache-line-padded stats slot.
//
// Degraded mode: OpenManifest can quarantine a shard that is missing or
// corrupt instead of failing the whole open. Queries whose two label slices
// live in healthy shards answer bit-identically to the intact index, while
// queries touching a quarantined range get a clean kShardUnavailable
// outcome — or, when a fallback graph is provided, an exact online
// ConstrainedDijkstraUnit answer at graph-search cost.

#ifndef WCSD_SERVE_QUERY_ENGINE_H_
#define WCSD_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/wc_index.h"
#include "labeling/label_store.h"
#include "labeling/query.h"
#include "labeling/snapshot.h"
#include "serve/batch_runner.h"
#include "serve/decode_cache.h"
#include "serve/result_cache.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace wcsd {

class QualityGraph;

struct QueryEngineOptions {
  /// Worker threads for batch evaluation. 0 = hardware concurrency;
  /// 1 = no pool, batches run on the calling thread.
  size_t num_threads = 0;
  /// Smallest batch slice handed to one worker; bounds scheduling overhead
  /// on small batches.
  size_t min_chunk = 64;
  /// Byte budget for the dominance-aware result cache
  /// (serve/result_cache.h). 0 (the default) disables caching and leaves
  /// the query path exactly as before. When enabled, misses are answered
  /// by the interval-returning merge kernel — answers stay bit-identical
  /// to the uncached merge — and the engine binds the cache to the served
  /// labels' content fingerprint (one full pass over the label bytes,
  /// which faults an mmap'd snapshot in; a manifest open takes the
  /// fingerprint its manifest records).
  size_t cache_bytes = 0;
  /// Externally owned cache shared across engine generations (the hot-swap
  /// serve path). When set the engine uses it instead of creating its own;
  /// lookups and inserts are bound to this engine's fingerprint (stale
  /// generations can neither read nor poison the shared cache), and the
  /// engine Rebinds unconditionally at open — a no-op when a swap
  /// coordinator already invalidated (Rebind or InvalidateDelta with this
  /// engine's fingerprint, before construction), a wholesale wipe when the
  /// cache is still bound to a different snapshot. cache_bytes is ignored
  /// when set.
  std::shared_ptr<ResultCache> shared_cache;
  /// Swap-coordinator hook: called with the engine's computed cache
  /// fingerprint after the cache is attached but BEFORE the engine's
  /// unconditional Rebind, while no queries flow through this engine yet.
  /// A scoped InvalidateDelta(fingerprint, ...) here rebinds the shared
  /// cache itself, making the engine's Rebind a no-op — surviving entries
  /// stay warm across the swap instead of being wholesale-wiped. Without
  /// the hook (or if it does not rebind), the Rebind wipes as usual.
  std::function<void(uint64_t fingerprint)> pre_bind_invalidate;
  /// Byte budget for the decoded-label cache (serve/decode_cache.h), used
  /// only when some label source is compressed. It serves the requests
  /// that need a decoded label view: top-k, profiles and result-cache
  /// interval misses (a cached shard tiling's path steps among them) —
  /// hot vertices' decoded labels stay resident so repeats skip the varint
  /// walk (and the cold-tier page-in). Distance queries never consult it:
  /// over any pair of flat and compressed labels they stream the varint
  /// bytes (QueryStores). 0 (the default) decodes per request into
  /// thread-local scratch.
  size_t decode_cache_bytes = 0;
  /// Graph backing constrained-path reconstruction (§V). Path endpoints
  /// need the graph even when the index carries parent quads: a mid-chain
  /// entry pruned during construction forces an index-guided neighbor
  /// step, which reads adjacency. Null (the default) makes PathEx report
  /// kNotSupported. Must describe the graph the index was built from.
  std::shared_ptr<const QualityGraph> graph;
};

/// Outcome of serving one request against a possibly-degraded engine.
enum class ServeOutcome : uint8_t {
  kOk = 0,
  /// The request needs a label slice from a quarantined shard; no result
  /// was produced. Retrying the same engine will not help until the shard
  /// is repaired.
  kShardUnavailable = 1,
  /// The service cannot serve this request family at all (path
  /// reconstruction without a configured graph); retrying never helps.
  kNotSupported = 2,
};

/// One shard's static contribution to the tiling, for balance reporting
/// (wire Stats, CLI, benches). A quarantined shard reports its planned
/// range with zero mass: its labels never loaded.
struct ShardBalanceEntry {
  uint64_t vertex_begin = 0;
  uint64_t vertex_end = 0;
  uint64_t entry_count = 0;
  uint64_t label_bytes = 0;  // CSR bytes served from this shard's mapping
  bool quarantined = false;

  friend bool operator==(const ShardBalanceEntry&,
                         const ShardBalanceEntry&) = default;
};

/// Degraded-mode policy for OpenManifest.
struct DegradedOpenOptions {
  /// When true, a shard that fails to load (missing file, corrupt header,
  /// checksum mismatch, manifest cross-check failure) is quarantined
  /// instead of failing the open: the engine starts without its labels and
  /// refuses only the queries that need them. At least one shard must
  /// load, and the manifest itself must be intact.
  bool quarantine_failed_shards = false;
  /// Optional online fallback: when set, queries touching a quarantined
  /// shard are answered exactly (but slowly) by ConstrainedDijkstraUnit on
  /// this graph instead of refused. The graph must outlive the engine.
  const QualityGraph* fallback_graph = nullptr;
};

/// The request-routing surface the wire server needs. Implementations must
/// be safe to call from any thread. QueryEngine implements every method;
/// decorators (the hot-swap front, tracing or fault-injection wrappers) may
/// implement just the first four.
class QueryService {
 public:
  QueryService() = default;
  QueryService(const QueryService&) = default;
  QueryService& operator=(const QueryService&) = default;
  QueryService(QueryService&&) = default;
  QueryService& operator=(QueryService&&) = default;
  virtual ~QueryService() = default;
  virtual Distance Query(Vertex s, Vertex t, Quality w) const = 0;
  virtual std::vector<Distance> Batch(
      const std::vector<BatchQueryInput>& queries) const = 0;
  virtual uint64_t NumVertices() const = 0;
  virtual QueryEngineStats Stats() const = 0;
  /// Per-shard balance for the wire Stats frame; empty when the service
  /// is not sharded.
  virtual std::vector<ShardBalanceEntry> ShardBalance() const { return {}; }

  /// Outcome-reporting variants for degraded-mode engines. The defaults
  /// delegate to Query/Batch and always succeed; an engine serving with
  /// quarantined shards refuses queries whose label slices are unavailable
  /// (the server surfaces kShardUnavailable).
  virtual ServeOutcome QueryEx(Vertex s, Vertex t, Quality w,
                               Distance* out) const {
    *out = Query(s, t, w);
    return ServeOutcome::kOk;
  }
  virtual ServeOutcome BatchEx(const std::vector<BatchQueryInput>& queries,
                               std::vector<Distance>* out) const {
    *out = Batch(queries);
    return ServeOutcome::kOk;
  }

  /// The v6 query families. Defaults report kNotSupported so a minimal
  /// service implementation keeps working: the server answers the frames
  /// with a clean kNotSupported error instead of wrong data.
  virtual ServeOutcome TopKEx(Vertex source,
                              std::span<const Vertex> candidates, Quality w,
                              size_t k,
                              std::vector<RankedCandidate>* out) const {
    (void)source, (void)candidates, (void)w, (void)k, (void)out;
    return ServeOutcome::kNotSupported;
  }
  virtual ServeOutcome ProfileEx(Vertex s, Vertex t,
                                 std::span<const Quality> thresholds,
                                 std::vector<ProfilePoint>* out) const {
    (void)s, (void)t, (void)thresholds, (void)out;
    return ServeOutcome::kNotSupported;
  }
  virtual ServeOutcome PathEx(Vertex s, Vertex t, Quality w,
                              std::vector<Vertex>* out) const {
    (void)s, (void)t, (void)w, (void)out;
    return ServeOutcome::kNotSupported;
  }
};

class QueryEngine final : public QueryService {
 public:
  /// Serves `index` as a one-shard tiling; the index must not be mutated
  /// for the engine's lifetime. A finalized index is served from its own
  /// flat or compressed labels; an unfinalized one is packed into an
  /// engine-owned flat copy.
  explicit QueryEngine(std::shared_ptr<const WcIndex> index,
                       QueryEngineOptions options = {});

  /// Maps a full snapshot with a vertex order (WcIndex::LoadMmap) and
  /// serves it.
  static Result<QueryEngine> Open(const std::string& snapshot_path,
                                  QueryEngineOptions options = {},
                                  const SnapshotLoadOptions& load = {});

  /// Opens a shard set through its manifest (labeling/shard_manifest.h):
  /// reads the manifest, validates its tiling, maps every referenced shard
  /// (paths resolved relative to the manifest), and cross-checks each
  /// file's header — vertex range, totals, entry counts, and the recorded
  /// snapshot header CRC — against the manifest. With
  /// `load.verify_checksums` additionally verifies every shard's section
  /// checksums and recomputes the index content fingerprint across the
  /// set. Every failure names the offending shard.
  static Result<QueryEngine> OpenManifest(
      const std::string& manifest_path, QueryEngineOptions options = {},
      const SnapshotLoadOptions& load = {},
      const DegradedOpenOptions& degraded = {});

  QueryEngine(QueryEngine&&) = default;
  QueryEngine& operator=(QueryEngine&&) = default;

  /// One query. In degraded mode a refusal reports kInfDistance — use
  /// QueryEx when the distinction matters.
  Distance Query(Vertex s, Vertex t, Quality w) const override;

  /// Evaluates all queries across the engine's pool; results are
  /// positionally aligned with the inputs. Degraded-mode refusals report
  /// kInfDistance; use BatchEx to detect them.
  std::vector<Distance> Batch(
      const std::vector<BatchQueryInput>& queries) const override;

  uint64_t NumVertices() const override { return num_vertices_; }
  QueryEngineStats Stats() const override;

  /// Per-shard ranges and label mass, in tiling order; empty for an engine
  /// over one WcIndex.
  std::vector<ShardBalanceEntry> ShardBalance() const override;

  /// Like Query, but a degraded-mode refusal is reported as
  /// kShardUnavailable instead of folded into kInfDistance.
  ServeOutcome QueryEx(Vertex s, Vertex t, Quality w,
                       Distance* out) const override;

  /// A batch touching any quarantined range (with no fallback configured)
  /// is refused whole with kShardUnavailable and `out` left empty:
  /// distances are plain u32s on the wire with no per-query error channel,
  /// and a partially-trustworthy batch is worse than a clean refusal the
  /// client can route around.
  ServeOutcome BatchEx(const std::vector<BatchQueryInput>& queries,
                       std::vector<Distance>* out) const override;

  /// One-to-many top-k closest (core/batch.h TopKClosest semantics): the
  /// source's labels are scanned once, then each candidate costs one pass
  /// over its own labels. Counts candidates.size() queries in Stats().
  /// Refused whole with kShardUnavailable when the source or ANY candidate
  /// lives in a quarantined shard (the Dijkstra fallback covers the
  /// distance endpoints only).
  ServeOutcome TopKEx(Vertex source, std::span<const Vertex> candidates,
                      Quality w, size_t k,
                      std::vector<RankedCandidate>* out) const override;

  /// Quality profile for (s, t) at the given thresholds (core/batch.h
  /// QualityProfile semantics): one interval merge per distinct certified
  /// interval, not one per threshold. Refused with kShardUnavailable when
  /// either endpoint is quarantined.
  ServeOutcome ProfileEx(Vertex s, Vertex t,
                         std::span<const Quality> thresholds,
                         std::vector<ProfilePoint>* out) const override;

  /// Constrained shortest path s -> t (core/path_index.h). With an index,
  /// QueryConstrainedPath unwinds the parent quads (or its index-guided
  /// fallback) with uncached probes; a shard tiling steps greedily toward
  /// t through the graph, refusing with kShardUnavailable when an endpoint
  /// — or every viable next hop of some step — is quarantined. Needs
  /// options.graph (kNotSupported without). Empty `out` with kOk =
  /// unreachable. Fallback steps are aggregated into
  /// Stats().path_fallbacks.
  ServeOutcome PathEx(Vertex s, Vertex t, Quality w,
                      std::vector<Vertex>* out) const override;

  /// True when options.graph was configured (PathEx can serve).
  bool has_graph() const { return options_.graph != nullptr; }

  /// True for engines over one WcIndex; index() is valid only then.
  bool has_index() const { return index_ != nullptr; }
  const WcIndex& index() const { return *index_; }

  /// True when OpenManifest quarantined at least one shard.
  bool degraded() const { return num_quarantined_ > 0; }
  size_t num_quarantined() const { return num_quarantined_; }
  size_t num_shards() const { return sources_.size(); }
  size_t num_threads() const { return pool_ ? pool_->size() : 1; }

  /// True when any label source is compressed (mixed tilings are fine —
  /// each shard serves from whatever backend its file carries).
  bool compressed() const { return num_compressed_ > 0; }

  /// The result cache, or null when caching is off.
  const ResultCache* cache() const { return cache_.get(); }

  /// The decoded-label cache, or null unless a compressed source is served
  /// with options.decode_cache_bytes > 0. Shared across shards, keyed by
  /// global vertex id.
  const DecodedLabelCache* decode_cache() const { return decode_cache_.get(); }

  /// Content fingerprint of the served labels when caching, 0 otherwise.
  /// The swap coordinator feeds this to Rebind/InvalidateDelta.
  uint64_t cache_fingerprint() const { return cache_fingerprint_; }

 private:
  /// One range of the tiling and the storage it is served from.
  struct LabelSource {
    uint64_t begin = 0;
    uint64_t end = 0;
    LabelStore store;  // keeps its mapping alive; empty when quarantined
    bool quarantined = false;
  };

  /// Finishes construction: over `index`'s own labels as one shard when
  /// set (then `sources` is empty), else over `sources`, which must tile
  /// [0, num_vertices) in order. `known_fingerprint` spares the cache's
  /// full-label-pass fingerprint when the caller already holds the index
  /// identity (a manifest records it).
  QueryEngine(std::shared_ptr<const WcIndex> index,
              std::vector<LabelSource> sources, uint64_t num_vertices,
              QueryEngineOptions options,
              std::optional<uint64_t> known_fingerprint);

  const LabelSource& SourceOf(Vertex v) const;
  /// Label view of v (which `source` holds; not quarantined): the store's
  /// View (labeling/label_store.h), with the decode cache in front of it
  /// for compressed sources when configured. The view lives as long as
  /// `scratch`.
  ///
  /// Every kernel below adds its reads of mmap-backed compressed bytes
  /// that the decode cache does not count to `*cold_pageins`; the caller
  /// records the sum in a stats slot (QueryEngineStats::cold_pageins).
  FlatLabelView ViewOf(const LabelSource& source, Vertex v,
                       DecodedLabel* scratch, uint64_t* cold_pageins) const;
  /// True when v's labels live in a quarantined shard.
  bool Unavailable(Vertex v) const {
    return num_quarantined_ > 0 && SourceOf(v).quarantined;
  }
  /// The uncached two-label kernels (both endpoints in range, s != t).
  /// DirectQuery streams both labels whatever their backends
  /// (QueryStores); DirectInterval merges label views.
  Distance DirectQuery(Vertex s, Vertex t, Quality w,
                       uint64_t* cold_pageins) const;
  IntervalQueryResult DirectInterval(Vertex s, Vertex t, Quality w,
                                     uint64_t* cold_pageins) const;
  /// The query path without stats: guards, then the cache or DirectQuery.
  Distance QueryNoStats(Vertex s, Vertex t, Quality w,
                        uint64_t* cold_pageins) const;
  /// QueryEx without the per-query stats update (batches record per
  /// chunk).
  ServeOutcome QueryExNoStats(Vertex s, Vertex t, Quality w, Distance* out,
                              uint64_t* cold_pageins) const;
  std::vector<Distance> RunBatch(
      const std::vector<BatchQueryInput>& queries) const;
  /// Greedy index-guided path stepping for tilings without an order.
  ServeOutcome GreedyPath(Vertex s, Vertex t, Quality w,
                          std::vector<Vertex>* out,
                          uint64_t* cold_pageins) const;

  /// The tiling-invariant content fingerprint of `sources` (sorted, no
  /// quarantined range): identical to IndexContentFingerprint of the
  /// unsharded flat labels however the range was cut, and to what a shard
  /// manifest records. One pass over every label byte (a decode pass for
  /// compressed sources); 0 when a compressed source fails to decode.
  static uint64_t ContentFingerprint(uint64_t num_vertices,
                                     const std::vector<LabelSource>& sources);

  std::shared_ptr<const WcIndex> index_;  // null for shard tilings
  std::vector<LabelSource> sources_;      // sorted by begin, tiling [0, n)
  std::vector<uint64_t> begins_;  // sources_[i].begin, for binary search
  uint64_t num_vertices_ = 0;
  size_t num_quarantined_ = 0;
  size_t num_compressed_ = 0;
  const QualityGraph* fallback_graph_ = nullptr;  // not owned; may be null
  QueryEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1
  std::unique_ptr<ServeStatsBlock> stats_;
  std::shared_ptr<ResultCache> cache_;  // null when caching is off
  std::shared_ptr<DecodedLabelCache> decode_cache_;  // null unless enabled
  uint64_t cache_fingerprint_ = 0;
};

}  // namespace wcsd

#endif  // WCSD_SERVE_QUERY_ENGINE_H_

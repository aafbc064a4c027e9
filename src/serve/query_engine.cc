#include "serve/query_engine.h"

#include <algorithm>
#include <utility>

#include "core/path_index.h"
#include "labeling/shard_manifest.h"
#include "search/constrained_dijkstra.h"
#include "util/checksum.h"

namespace wcsd {

namespace {

std::string RangeString(uint64_t begin, uint64_t end) {
  std::string out = "[";
  out += std::to_string(begin);
  out += ", ";
  out += std::to_string(end);
  out += ")";
  return out;
}

}  // namespace

QueryEngine::QueryEngine(std::shared_ptr<const WcIndex> index,
                         QueryEngineOptions options)
    : QueryEngine(index, {}, index->NumVertices(), std::move(options),
                  std::nullopt) {}

QueryEngine::QueryEngine(std::shared_ptr<const WcIndex> index,
                         std::vector<LabelSource> sources,
                         uint64_t num_vertices, QueryEngineOptions options,
                         std::optional<uint64_t> known_fingerprint)
    : index_(std::move(index)),
      sources_(std::move(sources)),
      num_vertices_(num_vertices),
      options_(std::move(options)) {
  if (index_ != nullptr) {
    // The one-shard tiling of an index: its own serving labels.
    LabelSource source;
    source.end = num_vertices_;
    source.store = index_->store();
    sources_.push_back(std::move(source));
  }
  begins_.reserve(sources_.size());
  for (const LabelSource& source : sources_) {
    begins_.push_back(source.begin);
    if (source.quarantined) ++num_quarantined_;
    if (source.store.compressed()) ++num_compressed_;
  }
  const size_t threads = ResolveThreads(options_.num_threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  stats_ = std::make_unique<ServeStatsBlock>(threads);
  if (options_.decode_cache_bytes > 0 && num_compressed_ > 0) {
    decode_cache_ =
        std::make_shared<DecodedLabelCache>(options_.decode_cache_bytes);
  }
  if (options_.shared_cache) {
    cache_fingerprint_ = known_fingerprint.has_value()
                             ? *known_fingerprint
                             : ContentFingerprint(num_vertices_, sources_);
    cache_ = options_.shared_cache;
    if (options_.pre_bind_invalidate) {
      options_.pre_bind_invalidate(cache_fingerprint_);
      // The hook belongs to the open (its captures may not outlive it).
      options_.pre_bind_invalidate = nullptr;
    }
    // Unconditional (the result_cache.h contract): a no-op when the cache
    // is already bound to this snapshot — in particular after
    // OpenNextGeneration's InvalidateDelta — and a wholesale wipe when it
    // is bound to a different one, so a cache attached without external
    // invalidation can never serve stale distances.
    cache_->Rebind(cache_fingerprint_);
  }
}

Result<QueryEngine> QueryEngine::Open(const std::string& snapshot_path,
                                      QueryEngineOptions options,
                                      const SnapshotLoadOptions& load) {
  Result<WcIndex> index = WcIndex::LoadMmap(snapshot_path, load);
  if (!index.ok()) return index.status();
  return QueryEngine(
      std::make_shared<const WcIndex>(std::move(index).value()),
      std::move(options));
}

uint64_t QueryEngine::ContentFingerprint(
    uint64_t num_vertices, const std::vector<LabelSource>& sources) {
  // Chain the per-source CRCs in tiling order: CRC of a concatenation is
  // the CRC of its pieces chained, so this equals IndexContentFingerprint
  // of the unsharded index no matter where the cuts fall.
  const uint32_t seed = Crc32c(&num_vertices, sizeof(num_vertices));
  uint32_t entries_crc = seed;
  uint32_t groups_crc = seed;
  for (const LabelSource& source : sources) {
    if (!source.store.ChainContentCrcs(&entries_crc, &groups_crc)) return 0;
  }
  return (uint64_t{groups_crc} << 32) | entries_crc;
}

Result<QueryEngine> QueryEngine::OpenManifest(
    const std::string& manifest_path, QueryEngineOptions options,
    const SnapshotLoadOptions& load, const DegradedOpenOptions& degraded) {
  // The manifest itself is never quarantined: it is the source of truth
  // for what the shard set should look like, and without it there is no
  // way to know which ranges a failed shard was supposed to cover.
  Result<ShardManifest> read = ReadShardManifest(manifest_path);
  if (!read.ok()) return read.status();
  const ShardManifest& manifest = read.value();
  WCSD_RETURN_NOT_OK(manifest.ValidateTiling());

  std::vector<LabelSource> sources;
  size_t healthy = 0;
  for (size_t i = 0; i < manifest.shards.size(); ++i) {
    const ShardManifestEntry& entry = manifest.shards[i];
    const std::string path = ResolveShardPath(manifest_path, entry.path);
    const std::string which =
        "shard " + std::to_string(i) + " (" + path + ")";
    LabelSource source;
    source.begin = entry.vertex_begin;
    source.end = entry.vertex_end;
    Status failure = Status::OK();
    Result<MappedSnapshot> snapshot = LoadSnapshotMmap(path, load);
    if (!snapshot.ok()) {
      failure = Status(snapshot.status().code(),
                       "manifest " + manifest_path + ": " + which + ": " +
                           snapshot.status().message());
    } else {
      MappedSnapshot& mapped = snapshot.value();
      source.store = LabelStore::FromSnapshot(&mapped);
      if (mapped.info.num_vertices_total != manifest.num_vertices_total ||
          mapped.info.vertex_begin != entry.vertex_begin ||
          mapped.info.vertex_end != entry.vertex_end) {
        failure = Status::InvalidArgument(
            "manifest " + manifest_path + ": " + which + " covers " +
            RangeString(mapped.info.vertex_begin, mapped.info.vertex_end) +
            " of " + std::to_string(mapped.info.num_vertices_total) +
            " vertices but the manifest records " +
            RangeString(entry.vertex_begin, entry.vertex_end) + " of " +
            std::to_string(manifest.num_vertices_total));
      } else if (mapped.info.header_crc != entry.snapshot_header_crc) {
        failure = Status::Corruption(
            "manifest " + manifest_path + ": " + which +
            " is not the file the manifest was written for (snapshot header "
            "checksum mismatch)");
      } else if (source.store.TotalEntries() != entry.entry_count ||
                 source.store.TotalGroups() != entry.group_count) {
        // Logical totals work for both backends: a compressed shard keeps
        // the logical offset arrays populated exactly so that counts
        // cross-check without a decode.
        failure = Status::Corruption(
            "manifest " + manifest_path + ": " + which +
            " entry/group counts disagree with the manifest");
      }
    }
    if (!failure.ok()) {
      if (!degraded.quarantine_failed_shards) return failure;
      // Degraded mode: remember the planned range so routing still works,
      // but serve nothing from it. The manifest's tiling survives, so
      // every other shard's queries are untouched.
      source.store = LabelStore();
      source.quarantined = true;
      sources.push_back(std::move(source));
      continue;
    }
    sources.push_back(std::move(source));
    ++healthy;
  }
  if (healthy == 0) {
    return Status::Unavailable(
        "manifest " + manifest_path +
        ": every shard failed to load; refusing to serve an index that can "
        "answer nothing");
  }
  // ValidateTiling proved the manifest order is tiling order, and every
  // healthy file matched its recorded range, so `sources` tile [0, n). A
  // quarantined shard's bytes are missing from the CRC chain, so the
  // whole-index cross-check needs every shard.
  if (load.verify_checksums && healthy == sources.size() &&
      ContentFingerprint(manifest.num_vertices_total, sources) !=
          manifest.fingerprint) {
    return Status::Corruption(
        "manifest " + manifest_path +
        ": shard contents do not match the recorded index fingerprint");
  }
  QueryEngine engine(nullptr, std::move(sources), manifest.num_vertices_total,
                     std::move(options), manifest.fingerprint);
  engine.fallback_graph_ = degraded.fallback_graph;
  return engine;
}

std::vector<ShardBalanceEntry> QueryEngine::ShardBalance() const {
  std::vector<ShardBalanceEntry> balance;
  if (index_ != nullptr) return balance;
  balance.reserve(sources_.size());
  for (const LabelSource& source : sources_) {
    balance.push_back(ShardBalanceEntry{
        source.begin, source.end, source.store.TotalEntries(),
        source.store.MemoryBytes(), source.quarantined});
  }
  return balance;
}

const QueryEngine::LabelSource& QueryEngine::SourceOf(Vertex v) const {
  if (sources_.size() == 1) return sources_[0];
  // Last source whose begin <= v; ranges tile [0, n), so it holds v.
  return sources_[static_cast<size_t>(
      std::upper_bound(begins_.begin(), begins_.end(), v) - begins_.begin() -
      1)];
}

FlatLabelView QueryEngine::ViewOf(const LabelSource& source, Vertex v,
                                  DecodedLabel* scratch,
                                  uint64_t* cold_pageins) const {
  const Vertex local = static_cast<Vertex>(v - source.begin);
  if (decode_cache_ != nullptr && source.store.compressed()) {
    // Keyed by GLOBAL vertex id, so one cache serves every shard. The
    // cache counts its own misses' page-ins.
    if (!decode_cache_->GetOrDecode(source.store.compressed_labels(), local,
                                    v, scratch)) {
      scratch->Clear();
    }
    return scratch->View();
  }
  if (source.store.cold()) ++*cold_pageins;
  return source.store.View(local, scratch);
}

Distance QueryEngine::DirectQuery(Vertex s, Vertex t, Quality w,
                                  uint64_t* cold_pageins) const {
  const LabelSource& a = SourceOf(s);
  const LabelSource& b = SourceOf(t);
  // Both labels stream from their own storage, a compressed one through
  // its own shard's dictionary, and never through the decode cache: one
  // merge over the varint bytes costs less than a cache hit's copy-out,
  // let alone a miss's full decode.
  *cold_pageins += (a.store.cold() ? 1 : 0) + (b.store.cold() ? 1 : 0);
  return QueryStores(a.store, static_cast<Vertex>(s - a.begin), b.store,
                     static_cast<Vertex>(t - b.begin), w);
}

IntervalQueryResult QueryEngine::DirectInterval(Vertex s, Vertex t, Quality w,
                                                uint64_t* cold_pageins) const {
  // Two scratch labels per thread: each endpoint's view must survive the
  // other's decode.
  thread_local DecodedLabel ls, lt;
  return QueryLabelsWithInterval(ViewOf(SourceOf(s), s, &ls, cold_pageins),
                                 ViewOf(SourceOf(t), t, &lt, cold_pageins), w,
                                 num_vertices_);
}

Distance QueryEngine::QueryNoStats(Vertex s, Vertex t, Quality w,
                                   uint64_t* cold_pageins) const {
  // Degenerate queries never reach the cache (their answers are free to
  // recompute).
  if (s >= num_vertices_ || t >= num_vertices_) return kInfDistance;
  if (s == t) return 0;
  if (cache_) {
    return cache_->GetOrCompute(s, t, w, cache_fingerprint_, [&] {
      return DirectInterval(s, t, w, cold_pageins);
    });
  }
  return DirectQuery(s, t, w, cold_pageins);
}

ServeOutcome QueryEngine::QueryExNoStats(Vertex s, Vertex t, Quality w,
                                         Distance* out,
                                         uint64_t* cold_pageins) const {
  // Healthy engines never branch into the degraded path: the 2-hop query
  // stays exactly the pre-quarantine code, bit for bit.
  if (num_quarantined_ > 0 && s < num_vertices_ && t < num_vertices_ &&
      s != t && (Unavailable(s) || Unavailable(t))) {
    if (fallback_graph_ == nullptr) {
      *out = kInfDistance;
      return ServeOutcome::kShardUnavailable;
    }
    // Exact online fallback at graph-search cost. Not cached: the cache is
    // bound to the index fingerprint and fallback answers equal the
    // index's, but keeping the degraded path out of the cache makes its
    // behavior trivially reasoned about.
    *out = ConstrainedDijkstraUnit(*fallback_graph_, s, t, w);
    return ServeOutcome::kOk;
  }
  *out = QueryNoStats(s, t, w, cold_pageins);
  return ServeOutcome::kOk;
}

ServeOutcome QueryEngine::QueryEx(Vertex s, Vertex t, Quality w,
                                  Distance* out) const {
  uint64_t cold_pageins = 0;
  ServeOutcome outcome = QueryExNoStats(s, t, w, out, &cold_pageins);
  stats_->RecordColdPageins(cold_pageins);
  if (outcome == ServeOutcome::kOk) {
    stats_->RecordSingle(*out);
  } else {
    stats_->RecordUnavailable(1);
  }
  return outcome;
}

Distance QueryEngine::Query(Vertex s, Vertex t, Quality w) const {
  Distance d = kInfDistance;
  QueryEx(s, t, w, &d);
  return d;
}

std::vector<Distance> QueryEngine::RunBatch(
    const std::vector<BatchQueryInput>& queries) const {
  std::vector<Distance> results(queries.size(), kInfDistance);
  stats_->batches.fetch_add(1, std::memory_order_relaxed);
  // ~4 chunks per worker so stragglers rebalance, but never slices smaller
  // than min_chunk.
  const size_t target = std::max<size_t>(1, num_threads() * 4);
  const size_t chunk =
      std::max(options_.min_chunk, (queries.size() + target - 1) / target);
  RunChunked(pool_.get(), queries.size(), chunk,
             [&](size_t begin, size_t end, size_t worker) {
               uint64_t reachable = 0;
               uint64_t cold_pageins = 0;
               for (size_t i = begin; i < end; ++i) {
                 const BatchQueryInput& q = queries[i];
                 QueryExNoStats(q.s, q.t, q.w, &results[i], &cold_pageins);
                 if (results[i] != kInfDistance) ++reachable;
               }
               ServeWorkerSlot& slot = stats_->slots[worker];
               slot.queries.fetch_add(end - begin,
                                      std::memory_order_relaxed);
               slot.reachable.fetch_add(reachable,
                                        std::memory_order_relaxed);
               if (cold_pageins != 0) {
                 slot.cold_pageins.fetch_add(cold_pageins,
                                             std::memory_order_relaxed);
               }
             });
  return results;
}

std::vector<Distance> QueryEngine::Batch(
    const std::vector<BatchQueryInput>& queries) const {
  std::vector<Distance> results;
  // Degraded without a fallback, a refused batch reads as all-INF.
  if (BatchEx(queries, &results) != ServeOutcome::kOk) {
    results.assign(queries.size(), kInfDistance);
  }
  return results;
}

ServeOutcome QueryEngine::BatchEx(const std::vector<BatchQueryInput>& queries,
                                  std::vector<Distance>* out) const {
  out->clear();
  if (num_quarantined_ > 0 && fallback_graph_ == nullptr) {
    // Refuse the whole batch if any query needs a quarantined shard: a
    // distance vector with silently-wrong entries is worse than a clean
    // refusal the client can split or reroute.
    for (const BatchQueryInput& q : queries) {
      const bool in_range = q.s < num_vertices_ && q.t < num_vertices_;
      if (in_range && q.s != q.t && (Unavailable(q.s) || Unavailable(q.t))) {
        stats_->RecordUnavailable(queries.size());
        return ServeOutcome::kShardUnavailable;
      }
    }
  }
  *out = RunBatch(queries);
  return ServeOutcome::kOk;
}

ServeOutcome QueryEngine::TopKEx(Vertex source,
                                 std::span<const Vertex> candidates,
                                 Quality w, size_t k,
                                 std::vector<RankedCandidate>* out) const {
  out->clear();
  if (num_quarantined_ > 0) {
    // Whole-request refusal, mirroring BatchEx: the reply has no per-
    // candidate error channel, and a ranking silently missing candidates
    // is worse than a clean refusal the client can route around.
    bool touched = source < num_vertices_ && Unavailable(source);
    for (size_t i = 0; !touched && i < candidates.size(); ++i) {
      const Vertex c = candidates[i];
      touched = c < num_vertices_ && c != source && Unavailable(c);
    }
    if (touched) {
      stats_->RecordUnavailable(candidates.size());
      return ServeOutcome::kShardUnavailable;
    }
  }
  // One scratch label: the top-k kernel holds one label's span at a time.
  thread_local DecodedLabel scratch;
  uint64_t cold_pageins = 0;
  *out = TopKClosestOverLabels(
      num_vertices_, source, candidates, w, k, [&](Vertex v) {
        return ViewOf(SourceOf(v), v, &scratch, &cold_pageins).entries;
      });
  stats_->RecordMany(candidates.size(), out->size());
  stats_->RecordColdPageins(cold_pageins);
  return ServeOutcome::kOk;
}

ServeOutcome QueryEngine::ProfileEx(Vertex s, Vertex t,
                                    std::span<const Quality> thresholds,
                                    std::vector<ProfilePoint>* out) const {
  out->clear();
  const bool in_range = s < num_vertices_ && t < num_vertices_;
  if (in_range && s != t && (Unavailable(s) || Unavailable(t))) {
    stats_->RecordUnavailable(thresholds.size());
    return ServeOutcome::kShardUnavailable;
  }
  uint64_t cold_pageins = 0;
  *out = QualityProfileOverIntervals(
      thresholds, [&](Quality w) -> IntervalQueryResult {
        // Degenerate pairs answer with the everywhere-constant interval,
        // the same guards WcIndex::QueryWithInterval applies.
        if (!in_range) return IntervalQueryResult{};
        if (s == t) return IntervalQueryResult{0, -kInfQuality, kInfQuality};
        return DirectInterval(s, t, w, &cold_pageins);
      });
  uint64_t reachable = 0;
  for (const ProfilePoint& p : *out) {
    if (p.dist != kInfDistance) ++reachable;
  }
  stats_->RecordMany(thresholds.size(), reachable);
  stats_->RecordColdPageins(cold_pageins);
  return ServeOutcome::kOk;
}

ServeOutcome QueryEngine::PathEx(Vertex s, Vertex t, Quality w,
                                 std::vector<Vertex>* out) const {
  out->clear();
  if (options_.graph == nullptr) return ServeOutcome::kNotSupported;
  if (s >= num_vertices_ || t >= num_vertices_) {
    stats_->RecordSingle(kInfDistance);
    return ServeOutcome::kOk;
  }
  if (index_ == nullptr) {
    uint64_t cold_pageins = 0;
    const ServeOutcome outcome = GreedyPath(s, t, w, out, &cold_pageins);
    stats_->RecordColdPageins(cold_pageins);
    return outcome;
  }
  PathQueryStats path_stats;
  *out = QueryConstrainedPath(*index_, *options_.graph, s, t, w, &path_stats);
  stats_->RecordSingle(out->empty() ? kInfDistance : 0);
  stats_->RecordPathFallbacks(path_stats.fallback_steps);
  return ServeOutcome::kOk;
}

ServeOutcome QueryEngine::GreedyPath(Vertex s, Vertex t, Quality w,
                                     std::vector<Vertex>* out,
                                     uint64_t* cold_pageins) const {
  if (Unavailable(s) || Unavailable(t)) {
    stats_->RecordUnavailable(1);
    return ServeOutcome::kShardUnavailable;
  }
  if (s == t) {
    out->push_back(s);
    stats_->RecordSingle(0);
    return ServeOutcome::kOk;
  }
  const Distance total = QueryNoStats(s, t, w, cold_pageins);
  stats_->RecordSingle(total);
  if (total == kInfDistance) return ServeOutcome::kOk;
  // At each vertex take any constraint-satisfying neighbor exactly one
  // step closer to t. Every step is a fallback step — shard tilings carry
  // no order, so no parent quads can be followed.
  out->push_back(s);
  Vertex cur = s;
  Distance remaining = total;
  size_t steps = 0;
  while (remaining > 0) {
    Vertex next = kNullVertex;
    bool skipped_quarantined = false;
    for (const Arc& a : options_.graph->Neighbors(cur)) {
      if (a.quality < w) continue;
      if (a.to >= num_vertices_) continue;
      if (Unavailable(a.to)) {
        skipped_quarantined = true;
        continue;
      }
      if (QueryNoStats(a.to, t, w, cold_pageins) == remaining - 1) {
        next = a.to;
        break;
      }
    }
    ++steps;
    if (next == kNullVertex) {
      out->clear();
      stats_->RecordPathFallbacks(steps);
      if (skipped_quarantined) {
        // The only viable next hops were quarantined; the graph may still
        // have a path through them.
        stats_->RecordUnavailable(1);
        return ServeOutcome::kShardUnavailable;
      }
      // Index inconsistent with the graph; treat as unreachable.
      return ServeOutcome::kOk;
    }
    out->push_back(next);
    cur = next;
    --remaining;
  }
  stats_->RecordPathFallbacks(steps);
  return ServeOutcome::kOk;
}

QueryEngineStats QueryEngine::Stats() const {
  QueryEngineStats stats = stats_->Aggregate();
  if (cache_ != nullptr) {
    const ResultCacheStats c = cache_->stats();
    stats.cache_hits = c.hits;
    stats.cache_misses = c.misses;
    stats.cache_inserts = c.inserts;
    stats.cache_evictions = c.evictions;
  }
  if (decode_cache_ != nullptr) {
    const DecodeCacheStats d = decode_cache_->stats();
    stats.decode_hits = d.hits;
    stats.decode_misses = d.misses;
    stats.cold_pageins += d.cold_pageins;
  }
  stats.has_parents = index_ != nullptr && index_->has_parents() ? 1 : 0;
  stats.compressed = num_compressed_ > 0 ? 1 : 0;
  for (const LabelSource& source : sources_) {
    stats.label_bytes += source.store.MemoryBytes();
    stats.uncompressed_label_bytes += source.store.UncompressedBytes();
  }
  return stats;
}

}  // namespace wcsd

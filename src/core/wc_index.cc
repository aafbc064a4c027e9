#include "core/wc_index.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "order/hybrid_order.h"
#include "order/tree_decomposition.h"
#include "util/epoch_array.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace wcsd {

namespace {

constexpr Quality kNegInfQuality = -std::numeric_limits<Quality>::infinity();

// Decode scratch for views of a compressed store. Two slots rotate per
// thread, so at most two returned views are valid at once — exactly the
// shape every query kernel needs (s and t).
DecodedLabel* NextScratch() {
  thread_local DecodedLabel scratch[2];
  thread_local unsigned next = 0;
  return &scratch[next++ & 1];
}

}  // namespace

VertexOrder MakeOrder(const QualityGraph& g, const WcIndexOptions& options) {
  switch (options.ordering) {
    case WcIndexOptions::Ordering::kDegree:
      return DegreeOrder(g);
    case WcIndexOptions::Ordering::kTreeDecomposition:
      return TreeDecompositionOrder(g);
    case WcIndexOptions::Ordering::kHybrid: {
      HybridOptions h;
      h.degree_threshold = options.hybrid_degree_threshold != 0
                               ? options.hybrid_degree_threshold
                               : AutoDegreeThreshold(g);
      return HybridOrder(g, h);
    }
    case WcIndexOptions::Ordering::kRandom:
      return RandomOrder(g.NumVertices(), options.seed);
    case WcIndexOptions::Ordering::kIdentity:
      return IdentityOrder(g.NumVertices());
  }
  return DegreeOrder(g);
}

/// One-shot builder implementing Algorithm 3, sequentially or as the
/// rank-batched parallel pipeline.
///
/// Sequential mode (num_threads == 1) is the paper's loop: one constrained
/// BFS per root in rank order, each pruning against the live partial index.
///
/// Parallel mode partitions roots (in rank order) into batches. Within a
/// batch, worker threads run the same constrained BFS, but prune only
/// against the immutable snapshot of the index from prior batches and
/// record surviving pops as CANDIDATE entries instead of appending. Missing
/// the prunes of same-batch lower-ranked roots makes the candidate stream a
/// superset of the sequential entry stream with identical (dist, quality)
/// values: with fewer prunes the per-level max-quality frontier dominates
/// the sequential one, and any pop it adds or upgrades is reachable through
/// an already-indexed higher-ranked hub, hence covered. After a barrier, a
/// sequential merge replays each root's candidates in rank order through
/// the sequential cover check, restricted to the hubs of the batch itself:
/// every candidate already passed that check against each hub ranked before
/// the batch, and the merge appends no entry with such a hub. It discards
/// precisely the extras — the result is bit-identical to the sequential
/// build (Theorem 1's minimal index is canonical for a fixed order), for
/// any thread count and batch size (tested).
class WcIndexBuilder {
 public:
  WcIndexBuilder(const QualityGraph& g, VertexOrder order,
                 const WcIndexOptions& options)
      : g_(g),
        order_(std::move(order)),
        options_(options),
        labels_(g.NumVertices()) {
    if (options.record_parents) parents_.resize(g.NumVertices());
  }

  WcIndex Run() {
    Timer timer;
    const size_t n = g_.NumVertices();
    size_t threads = std::min(ResolveThreads(options_.num_threads),
                              n == 0 ? size_t{1} : n);
    if (threads <= 1) {
      BuildWorkspace ws(n);
      for (Rank k = 0; k < n; ++k) {
        BfsFromRoot(k, ws, /*candidates=*/nullptr);
      }
      AccumulateStats(ws);
    } else {
      RunParallel(threads);
    }
    stats_.build_seconds = timer.Seconds();
    WcIndex index(std::move(labels_), std::move(order_), stats_);
    index.parents_ = std::move(parents_);
    return index;
  }

 private:
  // Frontier entry: the paper's queue tuple (u, d, w) with d implicit in
  // the level structure, plus the BFS predecessor for §V quad labels.
  struct Frontier {
    Vertex vertex;
    Quality quality;
    Vertex parent;
  };

  // A surviving pop from a snapshot-pruned BFS, pending the merge-phase
  // re-prune. dist is implicit in sequential mode but must be carried here.
  struct Candidate {
    Vertex vertex;
    Distance dist;
    Quality quality;
    Vertex parent;
  };

  // Line 11's cover check reads L(root) through per-constraint distance
  // tables, PLL's pruning array made exact for constraints by Theorem 3:
  // dist[h] is the least distance among the indexed entries of L(root) at
  // hub h with quality >= w, kInfDistance elsewhere.
  struct CoverTable {
    Quality w = kNegInfQuality;
    std::vector<Distance> dist;  // by hub rank; allocated on first use
    std::vector<Rank> hubs;      // the slots of dist set, for the reset
  };
  // Eight tables hold every constraint a root meets (its own pop's plus one
  // per level) on graphs with up to seven quality levels. With more levels
  // tables are replaced mid-root; 4, 8 and 16 tables built 200-level graphs
  // within noise of each other.
  static constexpr size_t kCoverTables = 8;

  // Per-thread scratch (§IV.C Efficient Initialization): epoch-reset
  // between roots, allocated once per worker for the whole build.
  struct BuildWorkspace {
    explicit BuildWorkspace(size_t n)
        : max_quality(n, kNegInfQuality),
          in_next(n, false),
          memo_quality(n, kNegInfQuality),
          pred(n, kNullVertex) {}

    EpochArray<Quality> max_quality;  // the paper's R vector
    EpochArray<bool> in_next;
    EpochArray<Quality> memo_quality;
    EpochArray<Vertex> pred;
    std::array<CoverTable, kCoverTables> tables;
    size_t table_claims = 0;  // this root's; claim i takes table i % count
    size_t root_indexed = 0;  // leading entries of L(root) the tables read
    std::vector<Frontier> cur;
    std::vector<Vertex> nxt;
    WcIndexBuildStats stats;  // thread-local counters, summed at the end
  };

  void RunParallel(size_t threads) {
    const size_t n = g_.NumVertices();
    ThreadPool pool(threads);
    std::vector<std::unique_ptr<BuildWorkspace>> workspaces;
    workspaces.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      workspaces.push_back(std::make_unique<BuildWorkspace>(n));
    }
    std::vector<std::vector<Candidate>> candidates;
    // Auto batch schedule: start at the thread count and double up to a
    // cap. Early (high-rank) roots contribute the labels that prune the
    // rest of the build, so staling them briefly is cheap only while the
    // batches are small.
    size_t auto_batch = threads;
    const size_t auto_cap = std::max<size_t>(64, 16 * threads);
    for (Rank k0 = 0; k0 < n;) {
      size_t batch = options_.batch_size != 0 ? options_.batch_size
                                              : auto_batch;
      Rank k1 = static_cast<Rank>(std::min<size_t>(n, k0 + batch));
      candidates.assign(k1 - k0, {});
      for (Rank k = k0; k < k1; ++k) {
        pool.Submit([this, k, k0, &workspaces, &candidates](size_t worker) {
          BfsFromRoot(k, *workspaces[worker], &candidates[k - k0]);
        });
      }
      pool.Wait();
      // Barrier passed: labels_ is mutable again, workers are idle, so the
      // first workspace's cover tables are free for the merge.
      Timer merge;
      for (Rank k = k0; k < k1; ++k) {
        MergeRoot(k, k0, candidates[k - k0], *workspaces[0]);
      }
      stats_.merge_seconds += merge.Seconds();
      k0 = k1;
      auto_batch = std::min(auto_batch * 2, auto_cap);
    }
    for (const auto& ws : workspaces) AccumulateStats(*ws);
  }

  // Constrained BFS from the k-th vertex in the order (Algorithm 3 lines
  // 3-17). With `candidates == nullptr` this is the sequential algorithm:
  // cover checks read the live index and survivors are appended directly.
  // Otherwise survivors are recorded for the merge phase and cover checks
  // see only the pre-batch snapshot (labels_ is frozen during the batch).
  void BfsFromRoot(Rank k, BuildWorkspace& ws,
                   std::vector<Candidate>* candidates) {
    const Vertex root = order_.VertexAt(k);

    // Per-root scratch reset (O(1) via epochs): R vector (line 4), the
    // satisfied-query memo, and the root's cover tables.
    ws.max_quality.Clear();
    ws.memo_quality.Clear();
    ws.pred.Clear();
    StartCoverTables(labels_.For(root).size(), ws);

    ws.max_quality.Set(root, kInfQuality);
    ws.cur.clear();
    ws.nxt.clear();
    ws.cur.push_back(Frontier{root, kInfQuality, kNullVertex});

    Distance d = 0;
    while (!ws.cur.empty()) {
      ws.in_next.Clear();
      ws.nxt.clear();
      for (const Frontier& f : ws.cur) {
        ++ws.stats.pops;
        if (!ProcessPop(k, root, f.vertex, d, f.quality, f.parent, ws,
                        candidates)) {
          continue;
        }
        Relax(k, f.vertex, f.quality, ws);
      }
      // Line 17: only after the whole level is processed are the updated
      // vertices pushed, each once, with the maximal quality seen (the
      // quality-priority order at no extra cost).
      ws.cur.clear();
      for (Vertex v : ws.nxt) {
        ws.cur.push_back(Frontier{v, ws.max_quality.Get(v), ws.pred.Get(v)});
      }
      ++d;
    }
  }

  // Lines 11-12: dominance-prune against the partial index, else keep the
  // new entry. Returns true if the entry was kept (and should expand).
  bool ProcessPop(Rank k, Vertex root, Vertex u, Distance d, Quality w,
                  Vertex parent, BuildWorkspace& ws,
                  std::vector<Candidate>* candidates) {
    if (options_.further_pruning && ws.memo_quality.Get(u) >= w) {
      ++ws.stats.pruned_by_memo;
      return false;
    }
    if (Covered(labels_.For(root), labels_.For(u), d, w, ws)) {
      ++ws.stats.pruned_by_query;
      if (options_.further_pruning) ws.memo_quality.Set(u, w);
      return false;
    }
    if (candidates != nullptr) {
      candidates->push_back(Candidate{u, d, w, parent});
    } else {
      AppendEntry(k, u, d, w, parent);
    }
    return true;
  }

  // Merge phase: replay root k of batch [k0, k1) — its candidates in the
  // BFS pop order the sequential build would have used — through the
  // sequential cover check, appending survivors. Only hubs ranked k0 or
  // higher need checking: the worker found each candidate uncovered by
  // every hub ranked below k0, and the merge appends no entry with such a
  // hub. Labels grow in rank order, so those hubs are the tails of L(root)
  // and L(u). The root's own entries, appended here, never cover its
  // candidates (per vertex, candidate qualities strictly ascend within one
  // root), so a root without such a tail appends unchecked. For the same
  // reason the memo is skipped: a memo hit (a previously satisfied query
  // at >= quality) is impossible here.
  void MergeRoot(Rank k, Rank k0, const std::vector<Candidate>& candidates,
                 BuildWorkspace& ws) {
    const Vertex root = order_.VertexAt(k);
    const size_t root_tail = TailBegin(labels_.For(root), k0);
    const bool check = root_tail < labels_.For(root).size();
    StartCoverTables(labels_.For(root).size() - root_tail, ws);
    for (const Candidate& c : candidates) {
      // L(root) is re-read per candidate: appending the root's own entry
      // may reallocate it, but its tail keeps its start.
      auto lu = labels_.For(c.vertex);
      if (check && Covered(labels_.For(root).subspan(root_tail),
                           lu.subspan(TailBegin(lu, k0)), c.dist, c.quality,
                           ws)) {
        ++stats_.pruned_by_query;
        continue;
      }
      AppendEntry(k, c.vertex, c.dist, c.quality, c.parent);
    }
  }

  // Index of the first entry of `label` whose hub is ranked k0 or higher.
  // Scans from the end: the tail is usually short or empty.
  static size_t TailBegin(std::span<const LabelEntry> label, Rank k0) {
    size_t i = label.size();
    while (i > 0 && label[i - 1].hub >= k0) --i;
    return i;
  }

  void AppendEntry(Rank k, Vertex u, Distance d, Quality w, Vertex parent) {
    labels_.Append(u, LabelEntry{k, d, w});
    if (!parents_.empty()) parents_[u].push_back(parent);
    ++stats_.entries_added;
  }

  // Lines 13-16: explore higher-ranked neighbors, keeping per vertex only
  // the maximum-quality candidate for the next level (the R test).
  void Relax(Rank k, Vertex u, Quality w, BuildWorkspace& ws) {
    for (const Arc& a : g_.Neighbors(u)) {
      if (order_.RankOf(a.to) <= k) continue;
      ++ws.stats.relaxations;
      Quality next_quality = std::min(a.quality, w);
      if (next_quality <= ws.max_quality.Get(a.to)) continue;
      ws.max_quality.Set(a.to, next_quality);
      ws.pred.Set(a.to, u);
      if (!ws.in_next.Get(a.to)) {
        ws.in_next.Set(a.to, true);
        ws.nxt.push_back(a.to);
      }
    }
  }

  // Starts a root's cover checks. The tables index the first `indexed`
  // entries of the L(root) span each check passes, so the root's own entry,
  // appended during its BFS or merge replay, stays out of them.
  static void StartCoverTables(size_t indexed, BuildWorkspace& ws) {
    ws.root_indexed = indexed;
    ws.table_claims = 0;
  }

  // The current root's table for constraint w over `lr`, its indexed
  // entries of L(root): found among the tables claimed for this root, or
  // claimed round-robin and scattered in O(|lr|) after resetting the hubs
  // the table set before. Never O(n).
  const Distance* CoverTableFor(std::span<const LabelEntry> lr, Quality w,
                                BuildWorkspace& ws) const {
    const size_t claimed = std::min(ws.table_claims, kCoverTables);
    for (size_t i = 0; i < claimed; ++i) {
      if (ws.tables[i].w == w) return ws.tables[i].dist.data();
    }
    CoverTable& table = ws.tables[ws.table_claims++ % kCoverTables];
    if (table.dist.empty()) {
      table.dist.assign(labels_.NumVertices(), kInfDistance);
    }
    for (Rank h : table.hubs) table.dist[h] = kInfDistance;
    table.hubs.clear();
    for (const LabelEntry& e : lr) {
      if (e.quality < w || e.dist >= table.dist[e.hub]) continue;
      if (table.dist[e.hub] == kInfDistance) table.hubs.push_back(e.hub);
      table.dist[e.hub] = e.dist;
    }
    table.w = w;
    return table.dist.data();
  }

  // Line 11's QUERY: does a hub common to `lr` (entries of L(root)) and
  // `lu` (entries of L(u)) give a w-path of length at most d? The
  // query-efficient form is one pass over `lu` against the root's table
  // for w, indexing the first ws.root_indexed entries of `lr`. It is exact
  // by Theorem 3: inside a hub group the first entry with quality >= w is
  // also the shortest, so the least sum over qualifying pairs is the one
  // Eq. (1) takes. The basic form (plain WC-INDEX) re-resolves hub groups
  // with binary search over `lr` for every query — Algorithm 4 shape.
  bool Covered(std::span<const LabelEntry> lr, std::span<const LabelEntry> lu,
               Distance d, Quality w, BuildWorkspace& ws) const {
    if (!options_.query_efficient) {
      return QueryLabels(lr, lu, w, QueryImpl::kHubGrouped) <= d;
    }
    const Distance* table = CoverTableFor(lr.first(ws.root_indexed), w, ws);
    for (const LabelEntry& e : lu) {
      // 64-bit sum: a hub absent from the table reads kInfDistance.
      if ((e.quality >= w) & (uint64_t{table[e.hub]} + e.dist <= d)) {
        return true;
      }
    }
    return false;
  }

  void AccumulateStats(const BuildWorkspace& ws) {
    stats_.pops += ws.stats.pops;
    stats_.pruned_by_query += ws.stats.pruned_by_query;
    stats_.pruned_by_memo += ws.stats.pruned_by_memo;
    stats_.relaxations += ws.stats.relaxations;
  }

  const QualityGraph& g_;
  VertexOrder order_;
  WcIndexOptions options_;
  LabelSet labels_;
  WcIndexBuildStats stats_;
  std::vector<std::vector<Vertex>> parents_;
};

WcIndex WcIndex::Build(const QualityGraph& g, const WcIndexOptions& options) {
  return BuildWithOrder(g, MakeOrder(g, options), options);
}

WcIndex WcIndex::BuildWithOrder(const QualityGraph& g, VertexOrder order,
                                const WcIndexOptions& options) {
  assert(order.size() == g.NumVertices());
  WcIndexBuilder builder(g, std::move(order), options);
  return builder.Run();
}

void WcIndex::Finalize() {
  if (finalized_) return;
  store_ = LabelStore(FlatLabelSet::FromLabelSet(labels_),
                      labels_.NumVertices());
  finalized_ = true;
}

std::span<const LabelEntry> WcIndex::EntriesFor(Vertex v) const {
  return finalized_ ? store_.View(v, NextScratch()).entries : labels_.For(v);
}

Distance WcIndex::Query(Vertex s, Vertex t, Quality w) const {
  if (s >= NumVertices() || t >= NumVertices()) return kInfDistance;
  if (s == t) return 0;
  if (finalized_) return QueryStores(store_, s, store_, t, w);
  return QueryLabels(labels_.For(s), labels_.For(t), w);
}

Distance WcIndex::Query(Vertex s, Vertex t, Quality w, QueryImpl impl) const {
  if (s >= NumVertices() || t >= NumVertices()) return kInfDistance;
  if (s == t) return 0;
  if (!finalized_) return QueryLabels(labels_.For(s), labels_.For(t), w, impl);
  // kMerge streams compressed labels; the other impls (ablation paths) run
  // over per-vertex views — bit-identical either way.
  if (impl == QueryImpl::kMerge) return MergeStores(store_, s, store_, t, w);
  return QueryLabels(store_.View(s, NextScratch()),
                     store_.View(t, NextScratch()), w, impl);
}

IntervalQueryResult WcIndex::QueryWithInterval(Vertex s, Vertex t,
                                               Quality w) const {
  if (s >= NumVertices() || t >= NumVertices()) return IntervalQueryResult{};
  if (s == t) {
    IntervalQueryResult r;
    r.dist = 0;
    return r;  // 0 under every constraint
  }
  if (finalized_) {
    return QueryLabelsWithInterval(store_.View(s, NextScratch()),
                                   store_.View(t, NextScratch()), w,
                                   NumVertices());
  }
  return QueryLabelsWithInterval(labels_.For(s), labels_.For(t), w);
}

HubQueryResult WcIndex::QueryWithHub(Vertex s, Vertex t, Quality w) const {
  if (s >= NumVertices() || t >= NumVertices()) return HubQueryResult{};
  if (s == t) {
    HubQueryResult r;
    r.dist = 0;
    r.via_hub = order_.RankOf(s);
    r.dist_from_s = 0;
    r.dist_to_t = 0;
    return r;
  }
  if (finalized_) return QueryStoresWithHub(store_, s, store_, t, w);
  return QueryLabelsWithHub(labels_.For(s), labels_.For(t), w);
}

Status WcIndex::SaveSnapshot(const std::string& path,
                             const SnapshotWriteOptions& write_options) const {
  if (!finalized_) {
    return Status::InvalidArgument(
        "SaveSnapshot requires a finalized index (call Finalize first)");
  }
  if (store_.compressed()) {
    // Re-materialize the flat arrays, the snapshot writer's input form.
    // This is the migration path both ways: --compress re-encodes (fresh
    // dictionary), without it the snapshot comes out uncompressed.
    Result<FlatLabelSet> flat = store_.compressed_labels().Decompress();
    if (!flat.ok()) return flat.status();
    return WriteSnapshot(path, flat.value(), &order_, /*parents=*/{},
                         write_options);
  }
  const FlatLabelSet& flat = store_.flat();
  if (!parents_.empty()) {
    // Flatten the per-vertex parent vectors in vertex order — the same
    // order Finalize packs entries — so parents align index-for-index with
    // the flat entry array the snapshot carries.
    std::vector<Vertex> flat_parents;
    flat_parents.reserve(flat.TotalEntries());
    for (const std::vector<Vertex>& pv : parents_) {
      flat_parents.insert(flat_parents.end(), pv.begin(), pv.end());
    }
    if (flat_parents.size() != flat.raw_entries().size()) {
      return Status::InvalidArgument(
          "parent quads out of sync with the flat labels; refusing to "
          "snapshot misaligned parents");
    }
    return WriteSnapshot(path, flat, &order_, flat_parents, write_options);
  }
  return WriteSnapshot(path, flat, &order_, flat_parents_, write_options);
}

Result<WcIndex> WcIndex::LoadMmap(const std::string& path,
                                  const SnapshotLoadOptions& options) {
  Result<MappedSnapshot> snapshot = LoadSnapshotMmap(path, options);
  if (!snapshot.ok()) return snapshot.status();
  MappedSnapshot& mapped = snapshot.value();
  if (!mapped.info.IsFullRange() || !mapped.info.has_order) {
    return Status::InvalidArgument(
        "not a full-range snapshot with a vertex order: " + path);
  }
  WcIndex index;
  index.order_ = VertexOrder(std::move(mapped.order_by_rank));
  if (!index.order_.IsValid()) {
    return Status::Corruption("order is not a permutation in " + path);
  }
  index.flat_parents_ = mapped.parents;  // kept alive by the store's mapping
  index.store_ = LabelStore::FromSnapshot(&mapped);
  index.finalized_ = true;
  return index;
}

}  // namespace wcsd

// WC-INDEX: the paper's primary contribution (§IV).
//
// A single 2-hop labeling answering w-constrained distance queries for
// arbitrary real thresholds w. Construction (Algorithm 3) runs one
// constrained BFS per vertex in a chosen vertex order, with:
//   * distance-prioritized, quality-prioritized search (level-synchronous
//     BFS whose per-level frontier keeps only the maximum-quality path per
//     vertex via the R vector) — Lemma 1;
//   * dominance pruning against the partial index (Line 11's QUERY), which
//     yields a Sound, Complete, and Minimal index (Theorem 1);
//   * the §IV.C engineering: O(1)-reset scratch arrays, the per-root table
//     T, kept here as per-constraint distance tables over L(root) (for a
//     constraint w, table[h] is the least distance of an entry of L(root)
//     at hub h with quality >= w), so each pruning query is one pass over
//     L(u) — exact by Theorem 3, which makes the first entry with quality
//     >= w in a hub group also its shortest — and the "Further Pruning"
//     memo of satisfied queries.

#ifndef WCSD_CORE_WC_INDEX_H_
#define WCSD_CORE_WC_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "labeling/compressed_flat.h"
#include "labeling/flat_label_set.h"
#include "labeling/label_set.h"
#include "labeling/label_store.h"
#include "labeling/query.h"
#include "labeling/snapshot.h"
#include "order/vertex_order.h"
#include "util/status.h"
#include "util/types.h"

namespace wcsd {

/// Construction options.
struct WcIndexOptions {
  /// Vertex-ordering scheme (§IV.D).
  enum class Ordering {
    kDegree,             // canonical PLL order; paper's WC-INDEX basic
    kTreeDecomposition,  // MDE hierarchy (roads)
    kHybrid,             // degree core + MDE periphery; paper's WC-INDEX+
    kRandom,             // ablation baseline
    kIdentity,           // vertex-id order; golden tests vs. the paper
  };

  Ordering ordering = Ordering::kDegree;

  /// Hybrid degree threshold delta; 0 = choose automatically.
  size_t hybrid_degree_threshold = 0;

  /// Seed for kRandom ordering.
  uint64_t seed = 42;

  /// Use the §IV.C query-efficient construction (per-root distance tables,
  /// one pass over L(u) per pruning query). False = re-resolve hub groups
  /// per pruning query, the plain WC-INDEX of the experiments.
  bool query_efficient = true;

  /// Enable the "Further Pruning" memo of satisfied construction queries.
  /// Under the level-synchronous R vector it never prunes: a vertex is
  /// pushed again only at a strictly higher quality than any it was popped
  /// with before, so no earlier satisfied query at >= quality exists
  /// (core.pruned_by_memo is 0 on every graph measured).
  bool further_pruning = true;

  /// Construction threads. 1 = the exact sequential Algorithm 3 loop;
  /// 0 = auto (hardware concurrency); N > 1 = rank-batched parallel
  /// pipeline. Any value produces a bit-identical index (tested): workers
  /// run the constrained BFS of a batch of roots against the immutable
  /// snapshot of the index from prior batches, and a sequential rank-order
  /// merge restores exactly the minimal index of Theorem 1 by re-pruning
  /// each candidate against the hubs of its own batch only; its worker
  /// already checked it against every earlier hub.
  size_t num_threads = 1;

  /// Roots per parallel batch (num_threads > 1 only). 0 = auto: batches
  /// start at num_threads and double up to a cap, so the early high-rank
  /// roots — whose labels prune everything downstream — are merged into the
  /// snapshot quickly, bounding wasted candidate work.
  size_t batch_size = 0;

  /// Record BFS parents per label entry (the paper's §V quad labels
  /// (u, d_u, w_u, p_uv)), enabling path reconstruction. Adds one Vertex of
  /// storage per entry. SaveSnapshot serializes them as the optional v2
  /// parents section, so mmap-loaded snapshots keep the fast unwind.
  bool record_parents = false;

  /// Preset matching the paper's WC-INDEX: the basic construction query
  /// (Algorithm 4 per pop), no memo. The ordering matches WC-INDEX+ — the
  /// paper's Exp 2 notes both "use the same vertex ordering", which is why
  /// their index sizes coincide; only construction time differs.
  static WcIndexOptions Basic() {
    WcIndexOptions o;
    o.ordering = Ordering::kHybrid;
    o.query_efficient = false;
    o.further_pruning = false;
    return o;
  }

  /// Preset matching the paper's WC-INDEX+: hybrid order, query-efficient.
  static WcIndexOptions Plus() {
    WcIndexOptions o;
    o.ordering = Ordering::kHybrid;
    o.query_efficient = true;
    o.further_pruning = true;
    return o;
  }
};

/// Counters recorded during construction (reported by the benches).
struct WcIndexBuildStats {
  size_t entries_added = 0;
  size_t pops = 0;
  size_t pruned_by_query = 0;
  size_t pruned_by_memo = 0;
  size_t relaxations = 0;
  double build_seconds = 0.0;
  /// Wall seconds of the parallel pipeline's sequential merge phase, a part
  /// of build_seconds; 0 for a sequential build.
  double merge_seconds = 0.0;
};

/// The WC-INDEX (Def. 6): per-vertex sets of (hub, distance, quality)
/// entries describing minimal w-paths.
class WcIndex {
 public:
  /// Builds the index for `g`, deriving the vertex order from options.
  static WcIndex Build(const QualityGraph& g,
                       const WcIndexOptions& options = {});

  /// Builds with an explicit, caller-supplied vertex order.
  static WcIndex BuildWithOrder(const QualityGraph& g, VertexOrder order,
                                const WcIndexOptions& options = {});

  /// w-constrained distance between s and t: Eq. (1) through the hub-table
  /// join once finalized over flat labels (labeling/hub_table.h), Query+
  /// (Algorithm 5) otherwise. Both answer identically.
  Distance Query(Vertex s, Vertex t, Quality w) const;

  /// Same, with an explicit query implementation (ablation); kMerge runs
  /// Algorithm 5 on every backend.
  Distance Query(Vertex s, Vertex t, Quality w, QueryImpl impl) const;

  /// Query that also reports the witnessing hub (path reconstruction).
  HubQueryResult QueryWithHub(Vertex s, Vertex t, Quality w) const;

  /// Query that also reports the maximal constraint interval over which
  /// the answer is unchanged (labeling/query.h IntervalQueryResult) — what
  /// the serve-side result cache stores. Out-of-range and s == t queries
  /// answer with the everywhere-valid interval.
  IntervalQueryResult QueryWithInterval(Vertex s, Vertex t, Quality w) const;

  /// True if some w-path connects s and t.
  bool Reachable(Vertex s, Vertex t, Quality w) const {
    return Query(s, t, w) != kInfDistance;
  }

  const LabelSet& labels() const { return labels_; }
  const VertexOrder& order() const { return order_; }
  const WcIndexBuildStats& build_stats() const { return stats_; }

  /// Packs the labels into the flat CSR backend and routes all subsequent
  /// queries through it. Idempotent; the append-oriented labels() remain
  /// available (the dynamic-update subsystem needs them mutable).
  void Finalize();

  /// True once Finalize() has run (or the index was mmap-loaded).
  bool finalized() const { return finalized_; }

  /// The store queries route through once finalized(); empty before.
  const LabelStore& store() const { return store_; }

  /// The flat backend; only meaningful when finalized() and not
  /// compressed() (a compressed-snapshot load leaves it empty).
  const FlatLabelSet& flat_labels() const { return store_.flat(); }

  /// True when queries route through the compressed backend — the index
  /// was mmap-loaded from a v3 compressed snapshot. The flat backend is
  /// empty; distance and hub queries stream the varint labels, and
  /// everything else decodes per vertex on demand.
  bool compressed() const { return store_.compressed(); }

  /// The compressed backend; only meaningful when compressed().
  const CompressedFlatLabelSet& compressed_labels() const {
    return store_.compressed_labels();
  }

  /// Content fingerprint of the served labels, identical across storage
  /// backends (IndexContentFingerprint of the flat arrays; the compressed
  /// backend reproduces it through a decode pass). Requires finalized().
  uint64_t ContentFingerprint() const { return store_.ContentFingerprint(); }

  /// Entries of L(v) from whichever labels queries route through — the
  /// store once finalized (mmap-loaded indexes have empty append-oriented
  /// labels), the heap vectors before that. On the compressed backend the
  /// label is decoded into thread-local scratch: the span stays valid until
  /// the SAME thread's second-next decode through this index (two scratch
  /// slots rotate, so holding s's and t's entries at once — the
  /// query-kernel shape — is safe).
  std::span<const LabelEntry> EntriesFor(Vertex v) const;

  /// True if §V quad labels (BFS parents) are available — recorded at
  /// build time, or loaded from a v2 snapshot's parents section.
  bool has_parents() const {
    return !parents_.empty() || !flat_parents_.empty();
  }

  /// Parents aligned index-for-index with the vertex's label entries
  /// (labels().For(v) and the flat backend pack entries in the same
  /// per-vertex order): Parents(v)[i] is the predecessor of v on the
  /// minimal path witnessing entry i (kNullVertex for self entries).
  /// Empty unless has_parents().
  std::span<const Vertex> Parents(Vertex v) const {
    if (!parents_.empty()) {
      const auto& pv = parents_[v];
      return {pv.data(), pv.size()};
    }
    if (!flat_parents_.empty()) {
      auto offsets = flat_labels().raw_offsets();
      return flat_parents_.subspan(
          offsets[v], offsets[v + 1] - offsets[v]);
    }
    return {};
  }

  /// Number of vertices indexed. Routed through the store once finalized
  /// so mmap-loaded indexes (whose append-oriented labels() are empty)
  /// report correctly.
  size_t NumVertices() const {
    return finalized_ ? store_.NumVertices() : labels_.NumVertices();
  }

  /// Index size in bytes (Figures 6/9/11 report this). A finalized index
  /// reports the backend it serves queries from — the compressed bytes
  /// for a compressed-snapshot load.
  size_t MemoryBytes() const {
    return finalized_ ? store_.MemoryBytes() : labels_.MemoryBytes();
  }

  /// Total number of label entries.
  size_t TotalEntries() const {
    return finalized_ ? store_.TotalEntries() : labels_.TotalEntries();
  }

  /// Writes the finalized flat backend plus the vertex order as a
  /// page-aligned, checksummed snapshot (labeling/snapshot.h). Requires
  /// finalized(). Parent quads, when present, are flattened and written
  /// as the v2 parents section so LoadMmap keeps path reconstruction on
  /// the fast unwind. `write_options.compress` stores the labels in the
  /// v3 compressed sections (refused when the index carries parents); a
  /// compressed-backend index re-materializes its flat arrays first, so
  /// this is also the compress/decompress migration path.
  Status SaveSnapshot(const std::string& path,
                      const SnapshotWriteOptions& write_options = {}) const;

  /// Maps a snapshot written by SaveSnapshot and serves queries directly
  /// out of the mapping: no per-entry deserialization, load time
  /// independent of label count. The result is finalized; its
  /// append-oriented labels() are empty (read EntriesFor, or rebuild a
  /// LabelSet from the flat labels as dynamic updates do). Only full-range
  /// snapshots with an order section qualify — a shard set is served as a
  /// tiling through its manifest (QueryEngine::OpenManifest). A v3
  /// compressed snapshot loads into the compressed backend (see
  /// compressed()): label bytes stay on disk and page in on first decode.
  static Result<WcIndex> LoadMmap(const std::string& path,
                                  const SnapshotLoadOptions& options = {});

 private:
  friend class WcIndexBuilder;
  friend class DynamicWcIndex;

  WcIndex() = default;
  WcIndex(LabelSet labels, VertexOrder order, WcIndexBuildStats stats)
      : labels_(std::move(labels)),
        order_(std::move(order)),
        stats_(stats) {}

  LabelSet labels_;
  LabelStore store_;
  bool finalized_ = false;
  VertexOrder order_;
  WcIndexBuildStats stats_;
  std::vector<std::vector<Vertex>> parents_;
  /// Per-entry parents in flat-entry order, pointing into an mmap'd
  /// snapshot (kept alive by the store's mapping). Mutually exclusive with
  /// parents_ in practice: set only by LoadMmap.
  std::span<const Vertex> flat_parents_;
};

/// Resolves an Ordering scheme to a concrete vertex order for `g`.
VertexOrder MakeOrder(const QualityGraph& g, const WcIndexOptions& options);

}  // namespace wcsd

#endif  // WCSD_CORE_WC_INDEX_H_

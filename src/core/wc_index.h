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
//   * the §IV.C engineering: O(1)-reset scratch arrays and the per-root
//     table T, kept here as per-constraint distance tables over L(root)
//     (for a constraint w, table[h] is the least distance of an entry of
//     L(root) at hub h with quality >= w), so each pruning query is one
//     pass over L(u) — exact by Theorem 3, which makes the first entry with
//     quality >= w in a hub group also its shortest. The paper's "Further
//     Pruning" memo is left out: under the level-synchronous R vector a
//     vertex is pushed again only at a strictly higher quality, so a
//     satisfied query at >= quality never recurs and the memo never prunes.
//
// The builder appends to a LabelSet; a built index holds only the packed
// serving form (labeling/label_store.h), the same form a mapped snapshot
// loads into, so every query and accessor reads one store.

#ifndef WCSD_CORE_WC_INDEX_H_
#define WCSD_CORE_WC_INDEX_H_

#include <cstdint>
#include <memory>
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
  /// (Algorithm 4 per pop). The ordering matches WC-INDEX+ — the paper's
  /// Exp 2 notes both "use the same vertex ordering", which is why their
  /// index sizes coincide; only construction time differs.
  static WcIndexOptions Basic() {
    WcIndexOptions o;
    o.ordering = Ordering::kHybrid;
    o.query_efficient = false;
    return o;
  }

  /// Preset matching the paper's WC-INDEX+: hybrid order, query-efficient.
  static WcIndexOptions Plus() {
    WcIndexOptions o;
    o.ordering = Ordering::kHybrid;
    o.query_efficient = true;
    return o;
  }
};

/// Counters recorded during construction (reported by the benches).
struct WcIndexBuildStats {
  size_t entries_added = 0;
  size_t pops = 0;
  size_t pruned_by_query = 0;
  /// Always 0: the builder has no "Further Pruning" memo (see the header
  /// comment). Kept because the benchmark runner reports it.
  size_t pruned_by_memo = 0;
  size_t relaxations = 0;
  double build_seconds = 0.0;
  /// Wall seconds of the parallel pipeline's sequential merge phase, a part
  /// of build_seconds; 0 for a sequential build.
  double merge_seconds = 0.0;
};

/// The WC-INDEX (Def. 6): per-vertex sets of (hub, distance, quality)
/// entries describing minimal w-paths, held in one label store — flat for
/// a built index, flat or compressed for a mapped snapshot. A copy shares
/// the store's arrays (or mapping) and the parent quads.
class WcIndex {
 public:
  /// Builds the index for `g`, deriving the vertex order from options.
  static WcIndex Build(const QualityGraph& g,
                       const WcIndexOptions& options = {});

  /// Builds with an explicit, caller-supplied vertex order.
  static WcIndex BuildWithOrder(const QualityGraph& g, VertexOrder order,
                                const WcIndexOptions& options = {});

  /// w-constrained distance between s and t: Eq. (1) through the hub-table
  /// join over flat labels (labeling/hub_table.h), Query+ (Algorithm 5)
  /// streaming compressed ones. Both answer identically.
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

  /// The served labels unpacked into a fresh LabelSet (a compressed store
  /// decodes every vertex): the construction form the dynamic-update
  /// subsystem, the verifier and the label statistics take. O(entries) per
  /// call; read single labels through EntriesFor.
  LabelSet labels() const;
  const VertexOrder& order() const { return order_; }
  const WcIndexBuildStats& build_stats() const { return stats_; }

  /// Does nothing: a built or loaded index already serves from its store.
  /// Kept only for the benchmark harness (perfbench/), which still calls it.
  void Finalize() {}

  /// The store every query routes through.
  const LabelStore& store() const { return store_; }

  /// The flat backend; empty when compressed().
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
  /// backend reproduces it through a decode pass).
  uint64_t ContentFingerprint() const { return store_.ContentFingerprint(); }

  /// Entries of L(v) from the store. On the compressed backend the label is
  /// decoded into thread-local scratch: the span stays valid until the SAME
  /// thread's second-next decode through this index (two scratch slots
  /// rotate, so holding s's and t's entries at once — the query-kernel
  /// shape — is safe).
  std::span<const LabelEntry> EntriesFor(Vertex v) const;

  /// True if §V quad labels (BFS parents) are available — recorded at
  /// build time, or loaded from a v2 snapshot's parents section.
  bool has_parents() const { return !parents_.empty(); }

  /// Parents aligned index-for-index with EntriesFor(v): Parents(v)[i] is
  /// the predecessor of v on the minimal path witnessing entry i
  /// (kNullVertex for self entries). Empty unless has_parents().
  std::span<const Vertex> Parents(Vertex v) const {
    if (parents_.empty()) return {};
    auto offsets = flat_labels().raw_offsets();
    return parents_.subspan(offsets[v], offsets[v + 1] - offsets[v]);
  }

  /// Number of vertices indexed.
  size_t NumVertices() const { return store_.NumVertices(); }

  /// Bytes of the backend queries are served from — the compressed bytes
  /// for a compressed-snapshot load. The figures compare WC-INDEX with the
  /// vector-held baselines through labels().MemoryBytes() instead: the
  /// flat hub directory has no counterpart there.
  size_t MemoryBytes() const { return store_.MemoryBytes(); }

  /// Total number of label entries.
  size_t TotalEntries() const { return store_.TotalEntries(); }

  /// Writes the flat labels plus the vertex order as a page-aligned,
  /// checksummed snapshot (labeling/snapshot.h); parent quads, when
  /// present, go into the v2 parents section so LoadMmap keeps path
  /// reconstruction on the fast unwind. `write_options.compress` stores the
  /// labels in the v3 compressed sections (refused when the index carries
  /// parents); a compressed-backend index re-materializes its flat arrays
  /// first, so this is also the compress/decompress migration path.
  Status SaveSnapshot(const std::string& path,
                      const SnapshotWriteOptions& write_options = {}) const;

  /// Maps a snapshot written by SaveSnapshot and serves queries directly
  /// out of the mapping: no per-entry deserialization, load time
  /// independent of label count. Only full-range snapshots with an order
  /// section qualify — a shard set is served as a tiling through its
  /// manifest (QueryEngine::OpenManifest). A v3 compressed snapshot loads
  /// into the compressed backend (see compressed()): label bytes stay on
  /// disk and page in on first decode.
  static Result<WcIndex> LoadMmap(const std::string& path,
                                  const SnapshotLoadOptions& options = {});

 private:
  friend class WcIndexBuilder;
  friend class DynamicWcIndex;

  WcIndex() = default;
  /// Packs `labels` into the flat store and flattens `parents` (one vector
  /// per vertex, empty without quads) into one array aligned with it.
  WcIndex(const LabelSet& labels,
          std::span<const std::vector<Vertex>> parents, VertexOrder order,
          WcIndexBuildStats stats);

  /// Algorithm 3's labels for `g` under `order`, left in the construction
  /// form DynamicWcIndex maintains.
  static LabelSet BuildLabels(const QualityGraph& g, const VertexOrder& order,
                              const WcIndexOptions& options);

  LabelStore store_;
  VertexOrder order_;
  WcIndexBuildStats stats_;
  /// Per-entry parents in flat-entry order: in `parents_storage_` for a
  /// built index, in the mapping (kept alive by the store) for a loaded one.
  std::span<const Vertex> parents_;
  std::shared_ptr<const std::vector<Vertex>> parents_storage_;
};

/// Resolves an Ordering scheme to a concrete vertex order for `g`.
VertexOrder MakeOrder(const QualityGraph& g, const WcIndexOptions& options);

}  // namespace wcsd

#endif  // WCSD_CORE_WC_INDEX_H_

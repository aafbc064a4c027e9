// The serving label store: the finalized labels of one index or one shard,
// held flat (labeling/flat_label_set.h) or compressed
// (labeling/compressed_flat.h).
//
// Everything that serves labels — WcIndex once finalized, and each range of
// QueryEngine's tiling — holds one store, built once from a mapped snapshot
// or from in-memory labels, and never branches on the backend itself:
//   * counts and bytes come from the store;
//   * View(v, scratch) is the one path from a storage backend to a label
//     view (a compressed store decodes; the engine keeps its decode cache
//     in front of this for compressed stores);
//   * QueryStores / QueryStoresWithHub answer between any two stores
//     without a decode. A pair of flat labels goes through the hub-table
//     join (labeling/hub_table.h); a pair with a compressed side streams
//     Algorithm 5 (labeling/query.h) with the cursor each backend reads in
//     place. MergeStores runs Algorithm 5 on every pair: the kMerge
//     ablation.
// A store also carries the vertex total of the index it belongs to, the
// rank space of its hubs, so the join never mistakes a shard's local
// vertex count for it. A store is a cheap value: copies share the backing
// arrays (or mapping).

#ifndef WCSD_LABELING_LABEL_STORE_H_
#define WCSD_LABELING_LABEL_STORE_H_

#include <cstdint>
#include <utility>

#include "labeling/compressed_flat.h"
#include "labeling/flat_label_set.h"
#include "labeling/query.h"
#include "util/types.h"

namespace wcsd {

struct MappedSnapshot;

class LabelStore {
 public:
  /// No labels (a quarantined shard, or an index not yet finalized).
  LabelStore() = default;
  /// Labels of an index with `num_vertices_total` vertices: all of them,
  /// or one shard's slice.
  LabelStore(FlatLabelSet flat, uint64_t num_vertices_total)
      : flat_(std::move(flat)), num_vertices_total_(num_vertices_total) {}
  LabelStore(CompressedFlatLabelSet compressed, uint64_t num_vertices_total)
      : compressed_(std::move(compressed)),
        num_vertices_total_(num_vertices_total),
        is_compressed_(true) {}

  /// Moves the labels out of `mapped`, in whichever backend the file
  /// carries; its info, order and parents stay. The store keeps the
  /// mapping alive.
  static LabelStore FromSnapshot(MappedSnapshot* mapped);

  bool compressed() const { return is_compressed_; }
  /// True when reading a label walks mmap-backed compressed bytes, which
  /// may page them in from disk: the cold tier.
  bool cold() const { return is_compressed_ && compressed_.external(); }
  /// The backend arrays; the one not in use is empty.
  const FlatLabelSet& flat() const { return flat_; }
  const CompressedFlatLabelSet& compressed_labels() const {
    return compressed_;
  }

  /// Vertices held: the index's, or one shard's.
  size_t NumVertices() const {
    return is_compressed_ ? compressed_.NumVertices() : flat_.NumVertices();
  }
  /// Vertices of the whole index, shared by every shard of a tiling. Hub
  /// ranks are global, so this bounds them: [0, num_vertices_total()) is
  /// the rank space the hub-table join covers.
  uint64_t num_vertices_total() const { return num_vertices_total_; }
  size_t TotalEntries() const {
    return is_compressed_ ? compressed_.TotalEntries() : flat_.TotalEntries();
  }
  size_t TotalGroups() const {
    return is_compressed_ ? compressed_.TotalGroups()
                          : flat_.raw_groups().size();
  }
  /// Bytes of the backend actually held.
  size_t MemoryBytes() const {
    return is_compressed_ ? compressed_.MemoryBytes() : flat_.MemoryBytes();
  }
  /// What the same labels cost in the flat backend.
  size_t UncompressedBytes() const {
    return is_compressed_ ? compressed_.UncompressedBytes()
                          : flat_.MemoryBytes();
  }

  /// Chains the flat entry and group payload CRCs onto the caller's
  /// running values. Chaining stores in tiling order reproduces
  /// IndexContentFingerprint of the unsharded flat labels, whatever the
  /// backend per store. A compressed store decodes every vertex; false when
  /// one fails to decode.
  bool ChainContentCrcs(uint32_t* entries_crc, uint32_t* groups_crc) const;

  /// Content fingerprint of this store alone: IndexContentFingerprint of
  /// its flat labels (0 when a compressed vertex fails to decode).
  uint64_t ContentFingerprint() const;

  /// L(v) with its hub directory; v must be in range. A flat store returns
  /// a view into its arrays; a compressed one decodes into `scratch`, and
  /// the view lives as long as the scratch does. A failed decode (corrupt
  /// bytes below the deep-validation tiers) yields an empty view, which
  /// answers like an unreachable vertex.
  FlatLabelView View(Vertex v, DecodedLabel* scratch) const;

 private:
  FlatLabelSet flat_;
  CompressedFlatLabelSet compressed_;
  uint64_t num_vertices_total_ = 0;
  bool is_compressed_ = false;
};

/// Eq. (1) between L(s) of `a` and L(t) of `b` (two shards, or one store
/// twice); s and t must be in range. Two flat labels are joined through
/// the calling thread's hub table, over the rank space both stores share;
/// a hub rank outside it matches nothing. A compressed side is streamed
/// through its own quality dictionary, never decoded.
Distance QueryStores(const LabelStore& a, Vertex s, const LabelStore& b,
                     Vertex t, Quality w);

/// The same, reporting the best hub and split distances (§V).
HubQueryResult QueryStoresWithHub(const LabelStore& a, Vertex s,
                                  const LabelStore& b, Vertex t, Quality w);

/// Algorithm 5 (Query+) itself between the same two labels, whatever the
/// backends: WcIndex's kMerge ablation.
Distance MergeStores(const LabelStore& a, Vertex s, const LabelStore& b,
                     Vertex t, Quality w);

}  // namespace wcsd

#endif  // WCSD_LABELING_LABEL_STORE_H_

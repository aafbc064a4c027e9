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
//   * QueryStores / QueryStoresWithHub run Algorithm 5 (labeling/query.h)
//     between any two stores with the cursor each backend reads in place,
//     so every pair — flat, compressed or mixed — streams without a decode.
// A store is a cheap value: copies share the backing arrays (or mapping).

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
  explicit LabelStore(FlatLabelSet flat) : flat_(std::move(flat)) {}
  explicit LabelStore(CompressedFlatLabelSet compressed)
      : compressed_(std::move(compressed)), is_compressed_(true) {}

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

  size_t NumVertices() const {
    return is_compressed_ ? compressed_.NumVertices() : flat_.NumVertices();
  }
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
  bool is_compressed_ = false;
};

/// Algorithm 5 between L(s) of `a` and L(t) of `b` (two shards, or one
/// store twice); s and t must be in range. Compressed sides are streamed
/// through their own quality dictionaries, never decoded.
Distance QueryStores(const LabelStore& a, Vertex s, const LabelStore& b,
                     Vertex t, Quality w);

/// The same walk, reporting the best hub and split distances (§V).
HubQueryResult QueryStoresWithHub(const LabelStore& a, Vertex s,
                                  const LabelStore& b, Vertex t, Quality w);

}  // namespace wcsd

#endif  // WCSD_LABELING_LABEL_STORE_H_

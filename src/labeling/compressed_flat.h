// Compressed flat label storage: the at-rest/cold-tier query backend.
//
// FlatLabelSet spends 12 bytes per entry plus 8 per hub group; on large
// graphs that label mass — not CPU — is what caps index size on one
// machine. CompressedFlatLabelSet keeps every vertex's label as one
// delta/varint byte stream instead: hubs ascend (small deltas), distances
// rise within a hub group (small deltas), and qualities come from the
// graph's few distinct values (a dictionary index). Measured ratio on the
// benchmark fixtures is ~3-4x (see README "Storage tiers").
//
// The layout is GROUP-oriented so the query skeleton's VarintCursor
// (below) can stream it without materializing the label:
//
//   per vertex: varint group_count
//     per group: varint hub_delta   (first group: absolute rank;
//                                    later groups: rank - prev_rank >= 1)
//                varint entry_count (>= 1)
//       per entry: varint dist_delta (first entry: absolute distance;
//                                     later: dist - prev_dist >= 0)
//                  varint qcode      (0 = +inf, else dictionary index + 1)
//
// Alongside the byte blob the set keeps the same two O(vertices) offset
// arrays a FlatLabelSet has (logical entry and group offsets) plus a third
// giving each vertex's byte range, so shard planning, manifest totals and
// per-vertex counts never need a decode. Like FlatLabelSet, the arrays are
// spans over either heap vectors (FromFlat) or externally owned memory —
// an mmap'd snapshot section (labeling/snapshot.h v3), which is what makes
// the cold tier work: compressed label bytes stay on disk and page in on
// first touch.
//
// Trust model mirrors the flat backend: decode paths are BOUNDS-CHECKED
// against the vertex's byte slice (corrupt bytes can misanswer at the
// default load tier but can never read out of bounds); Validate's deeper
// tiers turn every corruption class into a clean Status.

#ifndef WCSD_LABELING_COMPRESSED_FLAT_H_
#define WCSD_LABELING_COMPRESSED_FLAT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "labeling/flat_label_set.h"
#include "labeling/query.h"
#include "util/endian.h"
#include "util/status.h"
#include "util/types.h"

namespace wcsd {

/// A vertex's label decoded into caller-owned scratch: the same shape the
/// flat query kernels consume (FlatLabelView over these spans).
struct DecodedLabel {
  std::vector<LabelEntry> entries;
  std::vector<HubGroup> groups;

  FlatLabelView View() const {
    return {{entries.data(), entries.size()}, {groups.data(), groups.size()}};
  }
  void Clear() {
    entries.clear();
    groups.clear();
  }
};

/// Immutable delta/varint-compressed packing of a FlatLabelSet.
class CompressedFlatLabelSet {
 public:
  CompressedFlatLabelSet() = default;

  /// Compresses `flat`. The quality dictionary is derived from the labels
  /// themselves (sorted distinct finite qualities).
  static CompressedFlatLabelSet FromFlat(const FlatLabelSet& flat);

  /// Wraps externally owned arrays without copying — the zero-copy path
  /// for mmap'd compressed snapshots. `keep_alive` (typically the mapping)
  /// is retained for the lifetime of this set and all copies. The caller
  /// is responsible for validation (see Validate).
  static CompressedFlatLabelSet FromExternal(
      std::span<const uint64_t> offsets, std::span<const uint64_t> group_offsets,
      std::span<const uint64_t> comp_offsets, std::span<const uint8_t> blob,
      std::span<const Quality> dictionary,
      std::shared_ptr<const void> keep_alive);

  size_t NumVertices() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t TotalEntries() const { return offsets_.empty() ? 0 : offsets_.back(); }
  size_t TotalGroups() const {
    return group_offsets_.empty() ? 0 : group_offsets_.back();
  }
  size_t EntryCount(Vertex v) const { return offsets_[v + 1] - offsets_[v]; }
  size_t GroupCount(Vertex v) const {
    return group_offsets_[v + 1] - group_offsets_[v];
  }

  /// Bytes of the compressed representation (blob + offsets + dictionary).
  size_t MemoryBytes() const {
    return blob_.size() + dictionary_.size() * sizeof(Quality) +
           (offsets_.size() + group_offsets_.size() + comp_offsets_.size()) *
               sizeof(uint64_t);
  }

  /// What the same labels cost in the flat backend (FlatLabelSet
  /// MemoryBytes) — the numerator of the compression ratio.
  size_t UncompressedBytes() const {
    return TotalEntries() * sizeof(LabelEntry) +
           TotalGroups() * sizeof(HubGroup) +
           (offsets_.size() + group_offsets_.size()) * sizeof(uint64_t);
  }

  /// True when the arrays live in externally owned memory (an mmap'd
  /// snapshot) rather than heap vectors — the cold-tier signal: a decode
  /// of an external vertex may fault label pages in from disk.
  bool external() const { return external_; }

  /// Decodes L(v) into `out` (cleared first). Bounds-checked: any
  /// structural violation — truncated varint, counts disagreeing with the
  /// offset arrays, non-ascending hubs, out-of-range quality code — is a
  /// clean Status and leaves `out` cleared.
  Status DecodeVertex(Vertex v, DecodedLabel* out) const;

  /// Exact inverse of FromFlat (round-trip tests; one-shot migration).
  Result<FlatLabelSet> Decompress() const;

  /// Structural validation. kShape is O(vertices): array shapes, offset
  /// monotonicity, dictionary sortedness. kDirectory and kDeep both cost a
  /// full streaming parse of the blob (compressed streams cannot be
  /// skip-validated the way the flat directory can): kDirectory proves
  /// every stream decodes cleanly with counts matching the offset arrays
  /// and strictly ascending hubs; kDeep additionally checks per-group
  /// distance monotonicity.
  Status Validate(ValidateLevel level) const;

  /// Content fingerprint of the DECODED index: identical to
  /// IndexContentFingerprint over the equivalent FlatLabelSet, so caches
  /// and manifests bind compressed and flat servings of one index to the
  /// same identity. Costs a full decode pass.
  uint64_t ContentFingerprint() const;

  /// Chains this set's decoded entry/group payload CRCs onto the caller's
  /// running values — the shard-set form of ContentFingerprint (see
  /// QueryEngine::ContentFingerprint). Returns false when a vertex
  /// fails to decode. Costs a full decode pass.
  bool ChainContentCrcs(uint32_t* entries_crc, uint32_t* groups_crc) const;

  /// Raw arrays in storage order, for the snapshot writer.
  std::span<const uint64_t> raw_offsets() const { return offsets_; }
  std::span<const uint64_t> raw_group_offsets() const {
    return group_offsets_;
  }
  std::span<const uint64_t> raw_comp_offsets() const { return comp_offsets_; }
  std::span<const uint8_t> raw_blob() const { return blob_; }
  std::span<const Quality> raw_dictionary() const { return dictionary_; }

  friend bool operator==(const CompressedFlatLabelSet& a,
                         const CompressedFlatLabelSet& b);

 private:
  struct OwnedArrays {
    std::vector<uint64_t> offsets;
    std::vector<uint64_t> group_offsets;
    std::vector<uint64_t> comp_offsets;
    std::vector<uint8_t> blob;
    std::vector<Quality> dictionary;
  };

  void Adopt(std::shared_ptr<const OwnedArrays> owned);

  std::span<const uint64_t> offsets_;        // n+1, logical entry offsets
  std::span<const uint64_t> group_offsets_;  // n+1, logical group offsets
  std::span<const uint64_t> comp_offsets_;   // n+1, byte offsets into blob_
  std::span<const uint8_t> blob_;            // varint streams, vertex-major
  std::span<const Quality> dictionary_;      // sorted distinct finite
  std::shared_ptr<const void> storage_;      // OwnedArrays or mmap handle
  bool external_ = false;
};

// Bounds-checked varint readers shared by DecodeVertex and VarintCursor.
namespace varint_internal {

/// Advances *p past one varint, never past `end`. False on truncation or a
/// value that would overflow 64 bits.
inline bool GetVarint(const uint8_t** p, const uint8_t* end, uint64_t* out) {
  uint64_t value = 0;
  int shift = 0;
  while (*p < end && shift < 64) {
    const uint8_t b = *(*p)++;
    value |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *out = value;
      return true;
    }
    shift += 7;
  }
  return false;
}

/// Two varints read by GetVarintPairSlow; `next` is null on truncation
/// or overflow.
struct VarintPair {
  const uint8_t* next = nullptr;
  uint64_t a = 0;
  uint64_t b = 0;
};

/// GetVarintPair's per-byte path, kept out of line so the two-byte fast
/// path stays small enough to inline into the kernels' loops. It takes and
/// returns values, so no caller's cursor has its address taken. Internal
/// linkage gives every translation unit that runs a merge its own copy:
/// GCC then knows which registers the call clobbers and keeps the cursors
/// in the others across it, where an external definition measured ~40%
/// more stack traffic in the varint merge and 6-9% slower queries.
[[gnu::noinline]] static inline VarintPair GetVarintPairSlow(
    const uint8_t* p, const uint8_t* end) {
  VarintPair pair;
  if (GetVarint(&p, end, &pair.a) && GetVarint(&p, end, &pair.b)) {
    pair.next = p;
  }
  return pair;
}

/// Reads two consecutive varints — a group header (hub delta, entry count)
/// or an entry (distance delta, quality code). Nearly every such pair is
/// two single bytes, which are read directly when both lie inside the
/// slice; anything else takes the bounds-checked per-byte path, so the
/// values and where *p stops on success are exactly GetVarint's. False
/// (with *p unchanged) on truncation or overflow.
inline bool GetVarintPair(const uint8_t** p, const uint8_t* end, uint64_t* a,
                          uint64_t* b) {
  const uint8_t* q = *p;
  if (end - q >= 2 && ((q[0] | q[1]) & 0x80) == 0) {
    *a = q[0];
    *b = q[1];
    *p = q + 2;
    return true;
  }
  const VarintPair pair = GetVarintPairSlow(q, end);
  if (pair.next == nullptr) return false;
  *a = pair.a;
  *b = pair.b;
  *p = pair.next;
  return true;
}

/// Skips the 2 varints/entry payload of a group whose header was already
/// consumed. False on truncation.
inline bool SkipGroupEntries(const uint8_t** p, const uint8_t* end,
                             uint64_t count) {
  uint64_t scratch;
  for (uint64_t i = 0; i < count; ++i) {
    if (!GetVarintPair(p, end, &scratch, &scratch)) return false;
  }
  return true;
}

}  // namespace varint_internal

/// The group cursor over one compressed label (see labeling/query.h): it
/// walks the vertex's varint stream in place, positioned at successive
/// group headers, decoding qualities through the set's own dictionary.
/// Unmatched groups are skipped without building a single LabelEntry. Any
/// malformed read flips the cursor to "exhausted" — corrupt bytes end the
/// merge early instead of reading out of bounds (same trust model as the
/// flat kernels, minus their crash classes).
struct VarintCursor {
  const uint8_t* p = nullptr;
  const uint8_t* end = nullptr;
  std::span<const Quality> dict;
  uint64_t groups_left = 0;
  uint64_t hub = 0;
  uint64_t count = 0;  // entries in the current group (header consumed)

  /// L(v) of `labels`; v must be in range.
  VarintCursor(const CompressedFlatLabelSet& labels, Vertex v)
      : dict(labels.raw_dictionary()) {
    const auto comp = labels.raw_comp_offsets();
    const auto blob = labels.raw_blob();
    // The offset arrays are kShape-validated at load, but clamp anyway so a
    // corrupt slice can never index past the blob.
    const uint64_t lo = std::min<uint64_t>(comp[v], blob.size());
    const uint64_t hi = std::min<uint64_t>(comp[v + 1], blob.size());
    if (lo <= hi) {
      p = blob.data() + lo;
      end = blob.data() + hi;
    }
  }

  bool Start() {
    return varint_internal::GetVarint(&p, end, &groups_left) &&
           NextHeader(true);
  }

  /// Parses the next group header; the previous group's entries must
  /// already be consumed. False when the stream is exhausted.
  bool NextHeader(bool first) {
    if (groups_left == 0) return false;
    --groups_left;
    uint64_t delta = 0;
    if (!varint_internal::GetVarintPair(&p, end, &delta, &count)) {
      groups_left = 0;
      return false;
    }
    hub = first ? delta : hub + delta;
    return true;
  }

  /// True when the current group is short: it holds at most three
  /// entries, a next group follows, 8 bytes from p lie inside the slice,
  /// and none of the 2 * count + 2 bytes holding the entries and the next
  /// header has a continuation bit. Then every one of those varints is one
  /// byte, readable from `*word` (the 8 bytes, loaded on little-endian
  /// hosts, where its low byte is the first).
  bool LoadShortGroup(uint64_t* word) const {
    if constexpr (kLittleEndianHost) {
      if (count <= 3 && groups_left > 0 && end - p >= 8) {
        std::memcpy(word, p, sizeof(*word));
        const uint64_t used =
            count == 3 ? ~uint64_t{0} : (uint64_t{1} << (16 * count + 16)) - 1;
        return (*word & used & 0x8080808080808080ULL) == 0;
      }
    }
    return false;
  }

  /// Moves past a short group, reading the next header from its word:
  /// the state NextHeader(false) reaches after the entries.
  void AdvancePastShortGroup(uint64_t word) {
    const uint64_t header = word >> (16 * count);
    --groups_left;
    hub += header & 0xFF;
    p += 2 * count + 2;
    count = (header >> 8) & 0xFF;
  }

  bool SkipGroup() {
    uint64_t word = 0;
    if (LoadShortGroup(&word)) {
      AdvancePastShortGroup(word);
      return true;
    }
    if (!varint_internal::SkipGroupEntries(&p, end, count)) {
      groups_left = 0;
      return false;
    }
    return NextHeader(false);
  }

  /// Consumes the current group's entries and parses the next header.
  /// `*found` is the distance of the first entry with quality >= w
  /// (kInfDistance if none) — the Theorem 3 choice, exactly what
  /// FirstWithQuality picks on the decoded group. A malformed entry
  /// (truncated, or a quality code past the dictionary) exhausts the
  /// cursor, `*found` covering the entries before it.
  bool TakeFirst(Quality w, Distance* found) {
    *found = kInfDistance;
    uint64_t dist = 0;
    uint64_t word = 0;
    if (LoadShortGroup(&word)) {
      for (uint64_t i = 0; i < count; ++i) {
        const uint64_t qcode = (word >> (16 * i + 8)) & 0xFF;
        if (qcode > dict.size()) {
          groups_left = 0;
          return false;
        }
        TakeEntry(i, (word >> (16 * i)) & 0xFF, qcode, w, &dist, found);
      }
      AdvancePastShortGroup(word);
      return true;
    }
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t dist_delta = 0, qcode = 0;
      if (!varint_internal::GetVarintPair(&p, end, &dist_delta, &qcode) ||
          qcode > dict.size()) {
        groups_left = 0;
        return false;
      }
      TakeEntry(i, dist_delta, qcode, w, &dist, found);
    }
    return NextHeader(false);
  }

  /// Entry i of a group (qcode already range-checked): extends the running
  /// distance and keeps the first one whose quality meets w.
  void TakeEntry(uint64_t i, uint64_t dist_delta, uint64_t qcode, Quality w,
                 uint64_t* dist, Distance* found) const {
    *dist = i == 0 ? dist_delta : *dist + dist_delta;
    if (*found == kInfDistance) {
      const Quality quality = qcode == 0 ? kInfQuality : dict[qcode - 1];
      if (quality >= w) *found = static_cast<Distance>(*dist);
    }
  }
};

}  // namespace wcsd

#endif  // WCSD_LABELING_COMPRESSED_FLAT_H_

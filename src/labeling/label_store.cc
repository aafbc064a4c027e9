#include "labeling/label_store.h"

#include <algorithm>

#include "labeling/hub_table.h"
#include "labeling/shard_manifest.h"
#include "labeling/snapshot.h"
#include "util/checksum.h"

namespace wcsd {

namespace {

// Runs a `Step` for constraint w over L(s) of `a` and L(t) of `b`, each
// through the cursor its backend reads in place, and returns it.
template <typename Step>
Step WalkStores(const LabelStore& a, Vertex s, const LabelStore& b, Vertex t,
                Quality w) {
  if (!a.compressed()) {
    const DirectoryCursor cs(a.flat().View(s));
    return b.compressed()
               ? MergeHubGroups(cs, VarintCursor(b.compressed_labels(), t),
                                Step(w))
               : MergeHubGroups(cs, DirectoryCursor(b.flat().View(t)),
                                Step(w));
  }
  const VarintCursor cs(a.compressed_labels(), s);
  return b.compressed()
             ? MergeHubGroups(cs, VarintCursor(b.compressed_labels(), t),
                              Step(w))
             : MergeHubGroups(cs, DirectoryCursor(b.flat().View(t)), Step(w));
}

// The rank space of a pair: a rank at or beyond either store's vertex
// total matches nothing.
size_t RankSpace(const LabelStore& a, const LabelStore& b) {
  return static_cast<size_t>(
      std::min(a.num_vertices_total(), b.num_vertices_total()));
}

// The joins stay out of line: inlined into QueryStores they changed the
// register allocation of the varint merge beside them and slowed it.
[[gnu::noinline]] Distance JoinDistance(std::span<const LabelEntry> ls,
                                        std::span<const LabelEntry> lt,
                                        Quality w, size_t num_ranks) {
  return DistanceScatter(ls, w, num_ranks).Probe(lt);
}

[[gnu::noinline]] HubQueryResult JoinWitnessHub(
    std::span<const LabelEntry> ls, std::span<const LabelEntry> lt, Quality w,
    size_t num_ranks) {
  return DistanceScatter(ls, w, num_ranks).ProbeWithHub(lt);
}

}  // namespace

LabelStore LabelStore::FromSnapshot(MappedSnapshot* mapped) {
  const uint64_t total = mapped->info.num_vertices_total;
  if (mapped->info.compressed) {
    return LabelStore(std::move(mapped->compressed), total);
  }
  return LabelStore(std::move(mapped->labels), total);
}

bool LabelStore::ChainContentCrcs(uint32_t* entries_crc,
                                  uint32_t* groups_crc) const {
  if (is_compressed_) {
    return compressed_.ChainContentCrcs(entries_crc, groups_crc);
  }
  // CRC of a concatenation is the CRC of its pieces chained, so the raw
  // arrays chain exactly like the compressed backend's per-vertex decodes.
  const auto entries = flat_.raw_entries();
  const auto groups = flat_.raw_groups();
  *entries_crc = Crc32c(entries.data(), entries.size() * sizeof(LabelEntry),
                        *entries_crc);
  *groups_crc =
      Crc32c(groups.data(), groups.size() * sizeof(HubGroup), *groups_crc);
  return true;
}

uint64_t LabelStore::ContentFingerprint() const {
  return is_compressed_ ? compressed_.ContentFingerprint()
                        : IndexContentFingerprint(flat_);
}

FlatLabelView LabelStore::View(Vertex v, DecodedLabel* scratch) const {
  if (!is_compressed_) return flat_.View(v);
  if (!compressed_.DecodeVertex(v, scratch).ok()) scratch->Clear();
  return scratch->View();
}

Distance QueryStores(const LabelStore& a, Vertex s, const LabelStore& b,
                     Vertex t, Quality w) {
  if (!a.compressed() && !b.compressed()) {
    return JoinDistance(a.flat().For(s), b.flat().For(t), w, RankSpace(a, b));
  }
  return WalkStores<DistanceStep>(a, s, b, t, w).best;
}

HubQueryResult QueryStoresWithHub(const LabelStore& a, Vertex s,
                                  const LabelStore& b, Vertex t, Quality w) {
  if (!a.compressed() && !b.compressed()) {
    return JoinWitnessHub(a.flat().For(s), b.flat().For(t), w,
                          RankSpace(a, b));
  }
  return WalkStores<WitnessHubStep>(a, s, b, t, w).result;
}

Distance MergeStores(const LabelStore& a, Vertex s, const LabelStore& b,
                     Vertex t, Quality w) {
  return WalkStores<DistanceStep>(a, s, b, t, w).best;
}

}  // namespace wcsd

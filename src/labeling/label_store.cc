#include "labeling/label_store.h"

#include "labeling/shard_manifest.h"
#include "labeling/snapshot.h"
#include "util/checksum.h"

namespace wcsd {

namespace {

// Runs a `Step` for constraint w over L(s) of `a` and L(t) of `b`, each
// through the cursor its backend reads in place, and returns it.
template <typename Step>
Step MergeStores(const LabelStore& a, Vertex s, const LabelStore& b, Vertex t,
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

}  // namespace

LabelStore LabelStore::FromSnapshot(MappedSnapshot* mapped) {
  if (mapped->info.compressed) {
    return LabelStore(std::move(mapped->compressed));
  }
  return LabelStore(std::move(mapped->labels));
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
  return MergeStores<DistanceStep>(a, s, b, t, w).best;
}

HubQueryResult QueryStoresWithHub(const LabelStore& a, Vertex s,
                                  const LabelStore& b, Vertex t, Quality w) {
  return MergeStores<WitnessHubStep>(a, s, b, t, w).result;
}

}  // namespace wcsd

#include "labeling/flat_label_set.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace wcsd {

void FlatLabelSet::Adopt(std::shared_ptr<const OwnedArrays> owned) {
  offsets_ = owned->offsets;
  entries_ = owned->entries;
  group_offsets_ = owned->group_offsets;
  groups_ = owned->groups;
  storage_ = std::move(owned);
  external_ = false;
}

FlatLabelSet FlatLabelSet::FromLabelSet(const LabelSet& labels) {
  auto owned = std::make_shared<OwnedArrays>();
  const size_t n = labels.NumVertices();
  owned->offsets.reserve(n + 1);
  owned->group_offsets.reserve(n + 1);
  owned->entries.reserve(labels.TotalEntries());
  owned->offsets.push_back(0);
  owned->group_offsets.push_back(0);
  for (Vertex v = 0; v < n; ++v) {
    auto lv = labels.For(v);
    for (size_t i = 0; i < lv.size(); ++i) {
      if (i == 0 || lv[i].hub != lv[i - 1].hub) {
        owned->groups.push_back({lv[i].hub, static_cast<uint32_t>(i)});
      }
      owned->entries.push_back(lv[i]);
    }
    owned->offsets.push_back(owned->entries.size());
    owned->group_offsets.push_back(owned->groups.size());
  }
  FlatLabelSet flat;
  flat.Adopt(std::move(owned));
  return flat;
}

FlatLabelSet FlatLabelSet::FromExternal(
    std::span<const uint64_t> offsets, std::span<const LabelEntry> entries,
    std::span<const uint64_t> group_offsets, std::span<const HubGroup> groups,
    std::shared_ptr<const void> keep_alive) {
  FlatLabelSet flat;
  flat.offsets_ = offsets;
  flat.entries_ = entries;
  flat.group_offsets_ = group_offsets;
  flat.groups_ = groups;
  flat.storage_ = std::move(keep_alive);
  flat.external_ = true;
  return flat;
}

LabelSet FlatLabelSet::ToLabelSet() const {
  const size_t n = NumVertices();
  LabelSet labels(n);
  for (Vertex v = 0; v < n; ++v) {
    auto lv = For(v);
    auto* out = labels.Mutable(v);
    out->assign(lv.begin(), lv.end());
  }
  return labels;
}

bool operator==(const FlatLabelSet& a, const FlatLabelSet& b) {
  return std::ranges::equal(a.offsets_, b.offsets_) &&
         std::ranges::equal(a.entries_, b.entries_) &&
         std::ranges::equal(a.group_offsets_, b.group_offsets_) &&
         std::ranges::equal(a.groups_, b.groups_);
}

Status FlatLabelSet::Validate(ValidateLevel level) const {
  if (group_offsets_.size() != offsets_.size() ||
      (offsets_.empty() && !entries_.empty()) ||
      (!offsets_.empty() &&
       (offsets_.front() != 0 || group_offsets_.front() != 0 ||
        offsets_.back() != entries_.size() ||
        group_offsets_.back() != groups_.size()))) {
    return Status::Corruption("inconsistent flat offsets");
  }
  const size_t n = NumVertices();
  for (Vertex v = 0; v < n; ++v) {
    if (offsets_[v] > offsets_[v + 1] ||
        group_offsets_[v] > group_offsets_[v + 1]) {
      return Status::Corruption("non-monotone flat offsets");
    }
  }
  if (level == ValidateLevel::kShape) return Status::OK();
  const bool deep = level == ValidateLevel::kDeep;
  for (Vertex v = 0; v < n; ++v) {
    // The directory tier works off group `begin`s and the vertex's entry
    // COUNT (from the offsets array): it proves every group boundary the
    // query kernels will index with stays inside the slice, without ever
    // dereferencing — and so faulting in — an entry page.
    const size_t entry_count =
        static_cast<size_t>(offsets_[v + 1] - offsets_[v]);
    std::span<const HubGroup> groups{groups_.data() + group_offsets_[v],
                                     groups_.data() + group_offsets_[v + 1]};
    size_t entry = 0;
    for (size_t g = 0; g < groups.size(); ++g) {
      const size_t ge = g + 1 < groups.size() ? groups[g + 1].begin
                                              : entry_count;
      if (groups[g].begin != entry || ge <= entry || ge > entry_count) {
        return Status::Corruption("bad hub directory");
      }
      if (g > 0 && groups[g].hub <= groups[g - 1].hub) {
        return Status::Corruption("unsorted hub directory");
      }
      if (deep) {
        std::span<const LabelEntry> entries = For(v);
        for (size_t i = entry; i < ge; ++i) {
          if (entries[i].hub != groups[g].hub ||
              (i > entry && entries[i - 1].dist > entries[i].dist)) {
            return Status::Corruption("unsorted flat labels");
          }
        }
      }
      entry = ge;
    }
    if (entry != entry_count) {
      return Status::Corruption("entries outside hub directory");
    }
  }
  return Status::OK();
}

}  // namespace wcsd

#include "labeling/label_set.h"

#include <algorithm>
#include <cassert>

namespace wcsd {

void LabelSet::Append(Vertex v, LabelEntry entry) {
  auto& lv = labels_[v];
  assert(lv.empty() || lv.back().hub < entry.hub ||
         (lv.back().hub == entry.hub && lv.back().dist <= entry.dist));
  lv.push_back(entry);
}

size_t LabelSet::TotalEntries() const {
  size_t total = 0;
  for (const auto& lv : labels_) total += lv.size();
  return total;
}

double LabelSet::AverageLabelSize() const {
  if (labels_.empty()) return 0.0;
  return static_cast<double>(TotalEntries()) /
         static_cast<double>(labels_.size());
}

size_t LabelSet::MaxLabelSize() const {
  size_t max_size = 0;
  for (const auto& lv : labels_) max_size = std::max(max_size, lv.size());
  return max_size;
}

size_t LabelSet::MemoryBytes() const {
  return TotalEntries() * sizeof(LabelEntry) +
         labels_.size() * sizeof(std::vector<LabelEntry>);
}

bool LabelSet::IsSorted() const {
  for (const auto& lv : labels_) {
    for (size_t i = 1; i < lv.size(); ++i) {
      if (lv[i - 1].hub > lv[i].hub) return false;
      if (lv[i - 1].hub == lv[i].hub && lv[i - 1].dist > lv[i].dist) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace wcsd

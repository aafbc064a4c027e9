#include "labeling/label_set.h"

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

size_t LabelSet::MemoryBytes() const {
  return TotalEntries() * sizeof(LabelEntry) +
         labels_.size() * sizeof(std::vector<LabelEntry>);
}

}  // namespace wcsd

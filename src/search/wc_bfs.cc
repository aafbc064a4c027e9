#include "search/wc_bfs.h"

#include <cassert>

namespace wcsd {

WcBfs::WcBfs(const QualityGraph* g)
    : g_(g), visited_(g->NumVertices(), false) {
  queue_.reserve(g->NumVertices());
}

Distance WcBfs::Query(Vertex s, Vertex t, Quality w) {
  assert(s < g_->NumVertices() && t < g_->NumVertices());
  if (s == t) return 0;
  visited_.Clear();
  queue_.clear();
  queue_.push_back(s);
  visited_.Set(s, true);
  Distance dist = 0;
  size_t level_begin = 0;
  // Level-synchronous expansion, as in Algorithm 1: `size` marks the current
  // frontier, dist advances per level.
  while (level_begin < queue_.size()) {
    size_t level_end = queue_.size();
    ++dist;
    for (size_t i = level_begin; i < level_end; ++i) {
      Vertex u = queue_[i];
      for (const Arc& a : g_->Neighbors(u)) {
        if (a.quality < w || visited_.Get(a.to)) continue;
        if (a.to == t) return dist;
        visited_.Set(a.to, true);
        queue_.push_back(a.to);
      }
    }
    level_begin = level_end;
  }
  return kInfDistance;
}

std::vector<Distance> WcBfs::AllDistances(Vertex s, Quality w) {
  std::vector<Distance> dist(g_->NumVertices(), kInfDistance);
  visited_.Clear();
  queue_.clear();
  queue_.push_back(s);
  visited_.Set(s, true);
  dist[s] = 0;
  size_t head = 0;
  while (head < queue_.size()) {
    Vertex u = queue_[head++];
    for (const Arc& a : g_->Neighbors(u)) {
      if (a.quality < w || visited_.Get(a.to)) continue;
      visited_.Set(a.to, true);
      dist[a.to] = dist[u] + 1;
      queue_.push_back(a.to);
    }
  }
  return dist;
}

}  // namespace wcsd

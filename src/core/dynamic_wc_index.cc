#include "core/dynamic_wc_index.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <utility>

#include "graph/builder.h"
#include "labeling/delta.h"
#include "labeling/query.h"

namespace wcsd {

namespace {
constexpr Quality kNegInfQuality = -std::numeric_limits<Quality>::infinity();
}  // namespace

DynamicWcIndex::DynamicWcIndex(const QualityGraph& g,
                               const WcIndexOptions& options)
    : options_(options),
      order_(MakeOrder(g, options)),
      labels_(WcIndex::BuildLabels(g, order_, options)),
      adj_(g.NumVertices()) {
  for (Vertex u = 0; u < g.NumVertices(); ++u) {
    auto nbrs = g.Neighbors(u);
    adj_[u].assign(nbrs.begin(), nbrs.end());
  }
}

DynamicWcIndex::DynamicWcIndex(const QualityGraph& g, VertexOrder order,
                               LabelSet labels, const WcIndexOptions& options)
    : options_(options),
      order_(std::move(order)),
      labels_(std::move(labels)),
      adj_(g.NumVertices()) {
  assert(labels_.NumVertices() == g.NumVertices());
  for (Vertex u = 0; u < g.NumVertices(); ++u) {
    auto nbrs = g.Neighbors(u);
    adj_[u].assign(nbrs.begin(), nbrs.end());
  }
}

bool DynamicWcIndex::Apply(const DeltaLog& log) {
  if (!log.HasDelete()) {
    for (const DeltaBatch& batch : log.batches) {
      std::vector<EdgeUpdate> staged;
      staged.reserve(batch.records.size());
      for (const DeltaRecord& record : batch.records) {
        // kUpgrade rides InsertEdge's parallel-edge max-quality semantics.
        staged.push_back(EdgeUpdate{record.u, record.v, record.quality});
      }
      InsertEdges(staged);
    }
    return true;
  }
  // A delete invalidates labels in ways incremental repair cannot fix:
  // stage every op on the adjacency in log order, rebuild once.
  for (const DeltaBatch& batch : log.batches) {
    for (const DeltaRecord& record : batch.records) {
      if (record.op == static_cast<uint8_t>(DeltaOp::kDelete)) {
        StageErase(record.u, record.v);
      } else {
        StageInsert(record.u, record.v, record.quality);
      }
    }
  }
  Rebuild();
  return false;
}

WcIndex DynamicWcIndex::ReleaseIndex() {
  WcIndex index(labels_, /*parents=*/{}, order_, WcIndexBuildStats{});
  labels_ = LabelSet();
  return index;
}

QualityGraph DynamicWcIndex::Snapshot() const {
  GraphBuilder builder(adj_.size());
  for (Vertex u = 0; u < adj_.size(); ++u) {
    for (const Arc& a : adj_[u]) {
      if (u < a.to) builder.AddEdge(u, a.to, a.quality);
    }
  }
  return builder.Build();
}

void DynamicWcIndex::Rebuild() {
  const QualityGraph g = Snapshot();
  order_ = MakeOrder(g, options_);
  labels_ = WcIndex::BuildLabels(g, order_, options_);
}

Distance DynamicWcIndex::Query(Vertex s, Vertex t, Quality w) const {
  if (s == t) return 0;
  return QueryLabels(labels_.For(s), labels_.For(t), w);
}

bool DynamicWcIndex::StageInsert(Vertex u, Vertex v, Quality q) {
  if (u == v) return false;
  // Parallel-edge semantics match GraphBuilder: keep the max quality.
  for (Arc& a : adj_[u]) {
    if (a.to != v) continue;
    if (q <= a.quality) return false;  // Dominated parallel edge: no-op.
    a.quality = q;
    for (Arc& b : adj_[v]) {
      if (b.to == u) b.quality = q;
    }
    return true;
  }
  adj_[u].push_back(Arc{v, q});
  adj_[v].push_back(Arc{u, q});
  return true;
}

bool DynamicWcIndex::StageErase(Vertex u, Vertex v) {
  auto erase_arc = [this](Vertex from, Vertex to) {
    auto& arcs = adj_[from];
    auto it = std::find_if(arcs.begin(), arcs.end(),
                           [to](const Arc& a) { return a.to == to; });
    if (it == arcs.end()) return false;
    arcs.erase(it);
    return true;
  };
  const bool existed = erase_arc(u, v);
  erase_arc(v, u);
  return existed;
}

void DynamicWcIndex::InsertEdge(Vertex u, Vertex v, Quality q) {
  assert(u < adj_.size() && v < adj_.size());
  if (!StageInsert(u, v, q)) return;
  ResumeAcross(u, v, q);
  ResumeAcross(v, u, q);
}

void DynamicWcIndex::InsertEdges(const std::vector<EdgeUpdate>& edges) {
  size_t current_edges = 0;
  for (const auto& arcs : adj_) current_edges += arcs.size();
  current_edges /= 2;
  if (edges.size() * 8 > current_edges + 8) {
    // Bulk path: stage everything, rebuild once.
    for (const EdgeUpdate& e : edges) StageInsert(e.u, e.v, e.quality);
    Rebuild();
    return;
  }
  for (const EdgeUpdate& e : edges) InsertEdge(e.u, e.v, e.quality);
}

void DynamicWcIndex::DeleteEdge(Vertex u, Vertex v) {
  assert(u < adj_.size() && v < adj_.size());
  if (StageErase(u, v)) Rebuild();
}

void DynamicWcIndex::ResumeAcross(Vertex from, Vertex to, Quality q) {
  // Snapshot L(from): ResumeBfs mutates labels, and iterating a mutating
  // vector would be undefined.
  std::vector<LabelEntry> entries(labels_.For(from).begin(),
                                  labels_.For(from).end());
  for (const LabelEntry& e : entries) {
    ResumeBfs(e.hub, to, e.dist + 1, std::min(e.quality, q));
  }
}

void DynamicWcIndex::ResumeBfs(Rank h, Vertex seed, Distance d, Quality w) {
  // Vertices with rank <= h are never labeled by hub h (they are covered by
  // higher-priority hubs), matching Algorithm 3 line 13.
  if (order_.RankOf(seed) <= h) return;
  const Vertex hub_vertex = order_.VertexAt(h);

  struct Candidate {
    Distance dist;
    Quality quality;
    Vertex vertex;
    bool operator>(const Candidate& other) const {
      if (dist != other.dist) return dist > other.dist;
      return quality < other.quality;
    }
  };
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>>
      queue;
  // Local R map: max quality already popped per vertex during this resume.
  // The resume touches few vertices, so a sparse map beats an O(n) array.
  std::vector<std::pair<Vertex, Quality>> popped;
  auto max_popped = [&popped](Vertex v) {
    Quality best = kNegInfQuality;
    for (const auto& [pv, pq] : popped) {
      if (pv == v) best = std::max(best, pq);
    }
    return best;
  };

  queue.push(Candidate{d, w, seed});
  while (!queue.empty()) {
    Candidate c = queue.top();
    queue.pop();
    if (c.quality <= max_popped(c.vertex)) continue;  // Dominated locally.
    popped.emplace_back(c.vertex, c.quality);
    if (QueryLabels(labels_.For(hub_vertex), labels_.For(c.vertex),
                    c.quality) <= c.dist) {
      continue;  // Covered by the current index.
    }
    InsertEntry(c.vertex, LabelEntry{h, c.dist, c.quality});
    for (const Arc& a : adj_[c.vertex]) {
      if (order_.RankOf(a.to) <= h) continue;
      Quality nq = std::min(a.quality, c.quality);
      if (nq <= max_popped(a.to)) continue;
      queue.push(Candidate{c.dist + 1, nq, a.to});
    }
  }
}

void DynamicWcIndex::InsertEntry(Vertex u, LabelEntry entry) {
  auto* lv = labels_.Mutable(u);
  // Locate the insertion point by (hub, dist).
  auto it = std::lower_bound(lv->begin(), lv->end(), entry,
                             [](const LabelEntry& a, const LabelEntry& b) {
                               if (a.hub != b.hub) return a.hub < b.hub;
                               return a.dist < b.dist;
                             });
  // Drop following same-hub entries the new one dominates (dist >= new,
  // quality <= new). They form a prefix of the suffix by Theorem 3.
  auto erase_end = it;
  while (erase_end != lv->end() && erase_end->hub == entry.hub &&
         erase_end->quality <= entry.quality) {
    ++erase_end;
  }
  it = lv->erase(it, erase_end);
  lv->insert(it, entry);
}

}  // namespace wcsd

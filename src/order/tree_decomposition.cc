#include "order/tree_decomposition.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "util/bucket_queue.h"

namespace wcsd {

TreeDecomposition MdeDecompose(const QualityGraph& g,
                               const MdeOptions& options) {
  const size_t n = g.NumVertices();
  TreeDecomposition td;
  td.elimination_order.reserve(n);
  td.bags.reserve(n);

  // Transient adjacency (live neighbors only), each list sorted by id, so
  // bags come out sorted and fill-in is one linear merge per neighbor.
  std::vector<std::vector<Vertex>> adj(n);
  for (Vertex u = 0; u < n; ++u) {
    for (const Arc& a : g.Neighbors(u)) adj[u].push_back(a.to);
    std::sort(adj[u].begin(), adj[u].end());
    adj[u].erase(std::unique(adj[u].begin(), adj[u].end()), adj[u].end());
  }

  BucketQueue queue(n);
  for (Vertex u = 0; u < n; ++u) {
    queue.Push(u, static_cast<uint32_t>(adj[u].size()));
  }

  std::vector<bool> eliminated(n, false);
  std::vector<Vertex> deferred;
  std::vector<Vertex> merged;

  while (!queue.Empty()) {
    Vertex v = static_cast<Vertex>(queue.PopMin());
    if (eliminated[v]) continue;
    eliminated[v] = true;
    const std::vector<Vertex> neighbors = std::move(adj[v]);

    if (neighbors.size() > options.max_fill_degree) {
      // Degree cap reached: since v had the minimum degree, every remaining
      // vertex is at least this dense. Defer all of them (no fill-in); the
      // hybrid ordering ranks this residue by degree instead.
      deferred.push_back(v);
      for (Vertex u : neighbors) {
        auto& list = adj[u];
        list.erase(std::lower_bound(list.begin(), list.end(), v));
      }
      continue;
    }

    td.elimination_order.push_back(v);

    // Bag = {v} ∪ N(v) in the transient graph (Def. 8's B_i).
    std::vector<Vertex> bag;
    bag.reserve(neighbors.size() + 1);
    bag.push_back(v);
    bag.insert(bag.end(), neighbors.begin(), neighbors.end());
    td.width = std::max(td.width, bag.size() > 0 ? bag.size() - 1 : 0);
    td.bags.push_back(std::move(bag));

    // Remove v and connect clique(N(v)): adj[u] := (adj[u] ∪ N(v)) \ {u, v}.
    for (Vertex u : neighbors) {
      merged.clear();
      std::set_union(adj[u].begin(), adj[u].end(), neighbors.begin(),
                     neighbors.end(), std::back_inserter(merged));
      adj[u].clear();
      for (Vertex x : merged) {
        if (x != u && x != v) adj[u].push_back(x);
      }
      queue.Push(u, static_cast<uint32_t>(adj[u].size()));
    }
  }

  // Deferred (capped) vertices are eliminated last without fill-in, ordered
  // by their residual degree ascending so the densest vertices top the
  // hierarchy. Their bags are their residual neighborhoods.
  for (Vertex v : deferred) {
    std::vector<Vertex> bag;
    bag.push_back(v);
    td.elimination_order.push_back(v);
    td.bags.push_back(std::move(bag));
  }

  // Parent links: bag i hangs off the bag of the earliest-eliminated vertex
  // among its neighborhood (all of which are eliminated after v_i).
  std::vector<size_t> elim_pos(n, 0);
  for (size_t i = 0; i < td.elimination_order.size(); ++i) {
    elim_pos[td.elimination_order[i]] = i;
  }
  td.parent.assign(td.bags.size(), -1);
  for (size_t i = 0; i < td.bags.size(); ++i) {
    const auto& bag = td.bags[i];
    size_t best = SIZE_MAX;
    for (size_t k = 1; k < bag.size(); ++k) {
      best = std::min(best, elim_pos[bag[k]]);
    }
    if (best != SIZE_MAX) td.parent[i] = static_cast<int64_t>(best);
  }
  return td;
}

bool TreeDecomposition::IsValidFor(const QualityGraph& g) const {
  const size_t n = g.NumVertices();
  if (elimination_order.size() != n || bags.size() != n) return false;

  std::vector<size_t> elim_pos(n, 0);
  std::vector<bool> seen(n, false);
  for (size_t i = 0; i < n; ++i) {
    Vertex v = elimination_order[i];
    if (v >= n || seen[v]) return false;
    seen[v] = true;
    elim_pos[v] = i;
  }

  // Condition 1: every vertex occurs in some bag — it is the first element
  // of its own bag by construction.
  for (size_t i = 0; i < n; ++i) {
    if (bags[i].empty() || bags[i][0] != elimination_order[i]) return false;
  }

  // Condition 2: every edge (u, v) is contained in the bag of whichever
  // endpoint is eliminated first (the other endpoint is still live then and
  // the original edge survives until an endpoint is eliminated).
  for (Vertex u = 0; u < n; ++u) {
    for (const Arc& a : g.Neighbors(u)) {
      if (u > a.to) continue;
      Vertex first = elim_pos[u] < elim_pos[a.to] ? u : a.to;
      Vertex other = first == u ? a.to : u;
      const auto& bag = bags[elim_pos[first]];
      if (std::find(bag.begin(), bag.end(), other) == bag.end()) return false;
    }
  }

  // Condition 3: bags containing any vertex v form a connected subtree.
  // A set S of tree nodes is connected iff exactly |S| - 1 members have
  // their parent inside S.
  std::vector<std::vector<size_t>> bags_containing(n);
  for (size_t i = 0; i < bags.size(); ++i) {
    for (Vertex v : bags[i]) bags_containing[v].push_back(i);
  }
  std::vector<bool> in_set(bags.size(), false);
  for (Vertex v = 0; v < n; ++v) {
    const auto& set = bags_containing[v];
    for (size_t b : set) in_set[b] = true;
    size_t linked = 0;
    for (size_t b : set) {
      if (parent[b] >= 0 && in_set[static_cast<size_t>(parent[b])]) ++linked;
    }
    for (size_t b : set) in_set[b] = false;
    if (linked != set.size() - 1) return false;
  }
  return true;
}

VertexOrder TreeDecompositionOrder(const QualityGraph& g,
                                   const MdeOptions& options) {
  TreeDecomposition td = MdeDecompose(g, options);
  // Rank 0 = eliminated last (top of the hierarchy).
  std::vector<Vertex> by_rank(td.elimination_order.rbegin(),
                              td.elimination_order.rend());
  return VertexOrder(std::move(by_rank));
}

}  // namespace wcsd

#include "graph/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "graph/builder.h"

namespace wcsd {

Quality SampleQuality(const QualityModel& model, Rng* rng) {
  assert(model.num_levels >= 1);
  switch (model.kind) {
    case QualityModel::Kind::kUniformLevels:
      return static_cast<Quality>(
          rng->NextInRange(1, model.num_levels));
    case QualityModel::Kind::kZipfLevels: {
      // Inverse-CDF sampling over {1..L} with P(k) ~ 1/k^s.
      double total = 0.0;
      for (int k = 1; k <= model.num_levels; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k), model.zipf_s);
      }
      double target = rng->NextDouble() * total;
      double acc = 0.0;
      for (int k = 1; k <= model.num_levels; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k), model.zipf_s);
        if (target <= acc) return static_cast<Quality>(k);
      }
      return static_cast<Quality>(model.num_levels);
    }
  }
  return 1.0f;
}

namespace {

/// Union-find for spanning-tree selection.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Returns true if x and y were in different sets (now merged).
  bool Union(size_t x, size_t y) {
    size_t rx = Find(x), ry = Find(y);
    if (rx == ry) return false;
    parent_[rx] = ry;
    return true;
  }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

QualityGraph GenerateRoadNetwork(const RoadOptions& options, uint64_t seed) {
  Rng rng(seed);
  const size_t rows = options.rows;
  const size_t cols = options.cols;
  const size_t n = rows * cols;
  auto id = [cols](size_t r, size_t c) -> Vertex {
    return static_cast<Vertex>(r * cols + c);
  };
  // An edge is arterial if it runs along an arterial row (horizontal edges)
  // or column (vertical edges).
  auto is_arterial = [&options, cols](Vertex u, Vertex v) {
    if (options.arterial_spacing == 0) return false;
    size_t ru = u / cols, cu = u % cols;
    size_t rv = v / cols, cv = v % cols;
    if (ru == rv) return ru % options.arterial_spacing == 0;
    if (cu == cv) return cu % options.arterial_spacing == 0;
    return false;
  };
  auto edge_quality = [&](Vertex u, Vertex v) {
    return is_arterial(u, v)
               ? static_cast<Quality>(options.quality.num_levels)
               : SampleQuality(options.quality, &rng);
  };

  // Enumerate the grid edges (right and down), shuffle, and split them into
  // a random spanning tree (always kept) plus extras (kept with probability
  // extra_edge_keep_prob). Arterial edges are always kept: highways do not
  // have random gaps.
  std::vector<std::pair<Vertex, Vertex>> grid_edges;
  grid_edges.reserve(2 * n);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) grid_edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) grid_edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  rng.Shuffle(&grid_edges);

  GraphBuilder builder(n);
  DisjointSets sets(n);
  for (const auto& [u, v] : grid_edges) {
    bool tree_edge = sets.Union(u, v);
    if (tree_edge || is_arterial(u, v) ||
        rng.NextBool(options.extra_edge_keep_prob)) {
      builder.AddEdge(u, v, edge_quality(u, v));
    }
  }

  // Occasional diagonal shortcuts (highway ramps / bridges).
  for (size_t r = 0; r + 1 < rows; ++r) {
    for (size_t c = 0; c + 1 < cols; ++c) {
      if (rng.NextBool(options.diagonal_prob)) {
        builder.AddEdge(id(r, c), id(r + 1, c + 1),
                        SampleQuality(options.quality, &rng));
      }
    }
  }
  return builder.Build();
}

QualityGraph GenerateBarabasiAlbert(size_t num_vertices,
                                    size_t edges_per_vertex,
                                    const QualityModel& quality,
                                    uint64_t seed) {
  assert(num_vertices >= 2);
  Rng rng(seed);
  size_t m = std::max<size_t>(1, std::min(edges_per_vertex, num_vertices - 1));

  GraphBuilder builder(num_vertices);
  // `endpoints` holds one entry per edge endpoint: sampling uniformly from
  // it is sampling proportionally to degree (preferential attachment).
  std::vector<Vertex> endpoints;
  endpoints.reserve(2 * m * num_vertices);

  // Seed clique over the first m+1 vertices.
  size_t seed_size = m + 1;
  for (size_t u = 0; u < seed_size; ++u) {
    for (size_t v = u + 1; v < seed_size; ++v) {
      builder.AddEdge(static_cast<Vertex>(u), static_cast<Vertex>(v),
                      SampleQuality(quality, &rng));
      endpoints.push_back(static_cast<Vertex>(u));
      endpoints.push_back(static_cast<Vertex>(v));
    }
  }

  std::vector<Vertex> chosen;
  for (size_t u = seed_size; u < num_vertices; ++u) {
    chosen.clear();
    // Sample m distinct targets by degree. Rejection is cheap: duplicates
    // are rare once the endpoint pool is large.
    while (chosen.size() < m) {
      Vertex t = endpoints[rng.NextBounded(endpoints.size())];
      if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
        chosen.push_back(t);
      }
    }
    for (Vertex t : chosen) {
      builder.AddEdge(static_cast<Vertex>(u), t, SampleQuality(quality, &rng));
      endpoints.push_back(static_cast<Vertex>(u));
      endpoints.push_back(t);
    }
  }
  return builder.Build();
}

QualityGraph GenerateErdosRenyi(size_t num_vertices, size_t num_edges,
                                const QualityModel& quality, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(num_vertices);
  size_t added = 0;
  // Sample random pairs; the builder dedups, so aim for the requested count
  // with a bounded number of attempts.
  size_t attempts = 0;
  const size_t max_attempts = num_edges * 4 + 64;
  while (added < num_edges && attempts < max_attempts) {
    ++attempts;
    Vertex u = static_cast<Vertex>(rng.NextBounded(num_vertices));
    Vertex v = static_cast<Vertex>(rng.NextBounded(num_vertices));
    if (u == v) continue;
    builder.AddEdge(u, v, SampleQuality(quality, &rng));
    ++added;
  }
  return builder.Build();
}

QualityGraph GenerateRandomTree(size_t num_vertices,
                                const QualityModel& quality, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(num_vertices);
  // Random attachment: vertex i links to a uniformly random earlier vertex.
  for (size_t i = 1; i < num_vertices; ++i) {
    Vertex parent = static_cast<Vertex>(rng.NextBounded(i));
    builder.AddEdge(static_cast<Vertex>(i), parent,
                    SampleQuality(quality, &rng));
  }
  return builder.Build();
}

QualityGraph GenerateRandomConnected(size_t num_vertices, size_t num_edges,
                                     const QualityModel& quality,
                                     uint64_t seed) {
  assert(num_vertices >= 1);
  Rng rng(seed);
  GraphBuilder builder(num_vertices);
  // Spanning tree first (connectivity), then random extras.
  for (size_t i = 1; i < num_vertices; ++i) {
    Vertex parent = static_cast<Vertex>(rng.NextBounded(i));
    builder.AddEdge(static_cast<Vertex>(i), parent,
                    SampleQuality(quality, &rng));
  }
  size_t extras = num_edges > num_vertices - 1
                      ? num_edges - (num_vertices - 1)
                      : 0;
  for (size_t i = 0; i < extras; ++i) {
    Vertex u = static_cast<Vertex>(rng.NextBounded(num_vertices));
    Vertex v = static_cast<Vertex>(rng.NextBounded(num_vertices));
    if (u != v) builder.AddEdge(u, v, SampleQuality(quality, &rng));
  }
  return builder.Build();
}

QualityGraph GenerateWattsStrogatz(size_t num_vertices, size_t k, double beta,
                                   const QualityModel& quality,
                                   uint64_t seed) {
  assert(num_vertices > 2 * k);
  Rng rng(seed);
  GraphBuilder builder(num_vertices);
  for (size_t u = 0; u < num_vertices; ++u) {
    for (size_t j = 1; j <= k; ++j) {
      Vertex v = static_cast<Vertex>((u + j) % num_vertices);
      if (rng.NextBool(beta)) {
        // Rewire to a random target (avoiding a self-loop).
        Vertex t;
        do {
          t = static_cast<Vertex>(rng.NextBounded(num_vertices));
        } while (t == u);
        builder.AddEdge(static_cast<Vertex>(u), t,
                        SampleQuality(quality, &rng));
      } else {
        builder.AddEdge(static_cast<Vertex>(u), v,
                        SampleQuality(quality, &rng));
      }
    }
  }
  return builder.Build();
}

}  // namespace wcsd

// Synthetic graph generators.
//
// The paper evaluates on public DIMACS road networks and KONECT/SNAP social
// networks; this environment is offline, so these generators produce the
// closest synthetic equivalents (DESIGN.md §3.1):
//   * road networks  -> perturbed grid graphs: connected, near-planar, small
//     treewidth, small near-uniform degree, large diameter;
//   * social networks -> Barabási–Albert preferential attachment: scale-free
//     degree distribution, small diameter;
//   * Erdős–Rényi / Watts–Strogatz / trees -> test fixtures.
//
// Edge qualities are sampled from a QualityModel, mirroring the paper's "For
// other non-labeled graphs, we randomly generate those weights" with |w|
// distinct values.

#ifndef WCSD_GRAPH_GENERATORS_H_
#define WCSD_GRAPH_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/random.h"
#include "util/types.h"

namespace wcsd {

/// Distribution of edge qualities.
struct QualityModel {
  enum class Kind {
    kUniformLevels,  // uniform over {1, 2, ..., num_levels}
    kZipfLevels,     // level k with probability proportional to 1/k^s
  };

  Kind kind = Kind::kUniformLevels;
  /// The paper's |w|: number of distinct quality values.
  int num_levels = 5;
  /// Zipf exponent (kZipfLevels only).
  double zipf_s = 1.2;
};

/// Samples one quality according to the model.
Quality SampleQuality(const QualityModel& model, Rng* rng);

/// Parameters for the road-network generator.
struct RoadOptions {
  size_t rows = 64;
  size_t cols = 64;
  /// Probability of keeping a non-spanning-tree grid edge. A random spanning
  /// tree is always kept, so the graph is connected; pruning the remainder
  /// creates the irregular block structure of real road networks.
  double extra_edge_keep_prob = 0.7;
  /// Probability of adding each diagonal shortcut.
  double diagonal_prob = 0.05;
  /// If nonzero, every arterial_spacing-th row/column is an arterial whose
  /// edges get the TOP quality level, forming a connected high-quality
  /// backbone (a highway grid). Realistic for quality = weight limits or
  /// lane counts; with 0 all qualities are i.i.d., under which long
  /// high-threshold routes are almost surely infeasible.
  size_t arterial_spacing = 0;
  QualityModel quality;
};

/// Generates a connected road-like network with rows*cols vertices.
QualityGraph GenerateRoadNetwork(const RoadOptions& options, uint64_t seed);

/// Generates a connected Barabási–Albert scale-free graph: each new vertex
/// attaches `edges_per_vertex` edges preferentially to high-degree vertices.
QualityGraph GenerateBarabasiAlbert(size_t num_vertices,
                                    size_t edges_per_vertex,
                                    const QualityModel& quality,
                                    uint64_t seed);

/// Generates a G(n, m) Erdős–Rényi graph (not necessarily connected).
QualityGraph GenerateErdosRenyi(size_t num_vertices, size_t num_edges,
                                const QualityModel& quality, uint64_t seed);

/// Generates a connected random graph: a random spanning tree plus
/// `num_edges - (n - 1)` random extra edges. The workhorse for property
/// tests, where disconnected pairs would make oracles trivially agree.
QualityGraph GenerateRandomConnected(size_t num_vertices, size_t num_edges,
                                     const QualityModel& quality,
                                     uint64_t seed);

/// Generates a uniformly random tree on n vertices.
QualityGraph GenerateRandomTree(size_t num_vertices,
                                const QualityModel& quality, uint64_t seed);

/// Generates a Watts–Strogatz small-world graph: ring lattice with `k`
/// neighbors per side, each edge rewired with probability `beta`.
QualityGraph GenerateWattsStrogatz(size_t num_vertices, size_t k, double beta,
                                   const QualityModel& quality, uint64_t seed);

}  // namespace wcsd

#endif  // WCSD_GRAPH_GENERATORS_H_

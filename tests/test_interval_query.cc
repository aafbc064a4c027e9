// Exactness of the interval-returning merge kernel (labeling/query.h
// IntervalQueryResult): the foundation the dominance-aware result cache
// stands on. For randomized graphs across the generator families, every
// query's reported interval [w_lo, w_hi] must be
//   * correct  — re-querying at ANY breakpoint inside it returns the same
//     distance (brute-force sweep over every quality value of the graph,
//     plus half-offsets and the extremes), and
//   * maximal  — the distance changes exactly at the boundaries: one float
//     ulp below w_lo and one above w_hi answer differently.
// The span and flat kernels must agree bit-for-bit, and the distance must
// match the plain (differentially fuzzed) query path and the Dijkstra
// ground truth.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/query.h"
#include "paper_fixtures.h"
#include "search/constrained_dijkstra.h"
#include "util/random.h"

namespace wcsd {
namespace {

/// Probe constraints: every distinct quality, half-offsets probing the
/// strict thresholds, and the all-pass / all-fail extremes.
std::vector<Quality> ProbeConstraints(const QualityGraph& g) {
  std::vector<Quality> probes;
  for (Quality q : g.DistinctQualities()) {
    probes.push_back(q - 0.5f);
    probes.push_back(q);
    probes.push_back(q + 0.5f);
  }
  probes.push_back(-1.0f);
  probes.push_back(1e9f);
  return probes;
}

/// Checks one query's interval against the span kernel over `labels` (the
/// same labels as vectors) and the brute-force breakpoint sweep.
void CheckInterval(const WcIndex& flat, const LabelSet& labels,
                   const std::vector<Quality>& sweep, Vertex s, Vertex t,
                   Quality w) {
  const IntervalQueryResult r = flat.QueryWithInterval(s, t, w);
  ASSERT_EQ(r, QueryLabelsWithInterval(labels.For(s), labels.For(t), w))
      << "flat and span interval kernels disagree at s=" << s << " t=" << t
      << " w=" << w;

  // The distance half must match the plain query path.
  EXPECT_EQ(r.dist, flat.Query(s, t, w)) << "s=" << s << " t=" << t
                                         << " w=" << w;
  EXPECT_TRUE(r.Contains(w)) << "interval [" << r.w_lo << ", " << r.w_hi
                             << "] misses its own w=" << w;

  // Maximality: one ulp outside either finite end changes the answer.
  if (r.w_lo != -kInfQuality) {
    EXPECT_EQ(flat.Query(s, t, r.w_lo), r.dist) << "s=" << s << " t=" << t;
    const Quality below = std::nextafter(r.w_lo, -kInfQuality);
    EXPECT_NE(flat.Query(s, t, below), r.dist)
        << "interval is not maximal below: s=" << s << " t=" << t
        << " w_lo=" << r.w_lo;
  }
  if (r.w_hi != kInfQuality) {
    EXPECT_EQ(flat.Query(s, t, r.w_hi), r.dist) << "s=" << s << " t=" << t;
    const Quality above = std::nextafter(r.w_hi, kInfQuality);
    EXPECT_NE(flat.Query(s, t, above), r.dist)
        << "interval is not maximal above: s=" << s << " t=" << t
        << " w_hi=" << r.w_hi;
  }

  // Brute force at every breakpoint: inside the interval the answer is
  // pinned; outside it must differ (the interval is one maximal constant
  // step of a non-decreasing step function).
  for (Quality probe : sweep) {
    const Distance d = flat.Query(s, t, probe);
    if (r.Contains(probe)) {
      EXPECT_EQ(d, r.dist) << "probe " << probe << " inside ["
                           << r.w_lo << ", " << r.w_hi << "] of s=" << s
                           << " t=" << t << " w=" << w;
    } else {
      EXPECT_NE(d, r.dist) << "probe " << probe << " outside ["
                           << r.w_lo << ", " << r.w_hi << "] of s=" << s
                           << " t=" << t << " w=" << w;
    }
  }
}

QualityGraph MakeIntervalGraph(size_t family, uint64_t seed) {
  Rng rng(seed * 0x51ed2701u + family);
  QualityModel quality;
  quality.num_levels = static_cast<int>(rng.NextInRange(2, 6));
  switch (family) {
    case 0: {
      RoadOptions options;
      options.rows = static_cast<size_t>(rng.NextInRange(4, 7));
      options.cols = static_cast<size_t>(rng.NextInRange(4, 7));
      options.quality = quality;
      return GenerateRoadNetwork(options, seed);
    }
    case 1:
      return GenerateBarabasiAlbert(
          static_cast<size_t>(rng.NextInRange(24, 60)),
          static_cast<size_t>(rng.NextInRange(2, 4)), quality, seed);
    case 2:
      return GenerateWattsStrogatz(
          static_cast<size_t>(rng.NextInRange(24, 60)),
          static_cast<size_t>(rng.NextInRange(1, 3)), 0.2, quality, seed);
    default:
      return GenerateRandomConnected(
          static_cast<size_t>(rng.NextInRange(24, 60)),
          static_cast<size_t>(rng.NextInRange(30, 90)), quality, seed);
  }
}

TEST(IntervalQuery, ExactOnRandomGraphs) {
  size_t checked = 0;
  auto check_graph = [&](const QualityGraph& g, uint64_t seed) {
    const size_t n = g.NumVertices();
    const WcIndex flat = WcIndex::Build(g, WcIndexOptions::Plus());
    const LabelSet labels = flat.labels();
    const std::vector<Quality> sweep = ProbeConstraints(g);

    Rng rng(seed ^ 0x17e2a1u);
    for (size_t qi = 0; qi < 20; ++qi) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(n));
      Vertex t = static_cast<Vertex>(rng.NextBounded(n));
      Quality w = static_cast<Quality>(rng.NextInRange(0, 6)) +
                  (rng.NextBool(0.3) ? 0.5f : 0.0f);
      // Distance ground truth, independently of the label kernels.
      ASSERT_EQ(flat.QueryWithInterval(s, t, w).dist,
                ConstrainedDijkstraUnit(g, s, t, w))
          << "seed=" << seed << " n=" << n << " s=" << s << " t=" << t
          << " w=" << w;
      CheckInterval(flat, labels, sweep, s, t, w);
      ++checked;
    }
  };
  for (size_t family = 0; family < 4; ++family) {
    for (uint64_t gi = 0; gi < 5; ++gi) {
      const uint64_t seed = 4200 + 10 * family + gi;
      check_graph(MakeIntervalGraph(family, seed), seed);
    }
  }
  // The rank space changes on this thread: from at most 60 vertices above
  // to 2,000, then back to 40.
  QualityModel quality;
  quality.num_levels = 5;
  for (size_t size : {size_t{2000}, size_t{40}}) {
    const uint64_t seed = 4300 + size;
    check_graph(GenerateRandomConnected(size, 3 * size, quality, seed), seed);
  }
  EXPECT_GE(checked, 440u);
}

// The everywhere-valid answers: s == t and out-of-range queries certify
// the full constraint axis, including +/-infinity.
TEST(IntervalQuery, DegenerateQueriesCoverTheWholeAxis) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());

  IntervalQueryResult self = index.QueryWithInterval(2, 2, 3.0f);
  EXPECT_EQ(self.dist, 0u);
  EXPECT_EQ(self.w_lo, -kInfQuality);
  EXPECT_EQ(self.w_hi, kInfQuality);
  EXPECT_TRUE(self.Contains(kInfQuality));

  IntervalQueryResult oob = index.QueryWithInterval(
      2, static_cast<Vertex>(g.NumVertices()), 1.0f);
  EXPECT_EQ(oob.dist, kInfDistance);
  EXPECT_EQ(oob.w_lo, -kInfQuality);
  EXPECT_EQ(oob.w_hi, kInfQuality);
}

// Figure 3 spot check: dist(2, 5 | w >= 2) = 2 (the paper's example), and
// the reported interval re-answers every constraint it covers.
TEST(IntervalQuery, PaperFigure3SpotCheck) {
  QualityGraph g = MakeFigure3Graph();
  const WcIndex flat = WcIndex::Build(g, WcIndexOptions::Plus());
  const LabelSet labels = flat.labels();
  const std::vector<Quality> sweep = ProbeConstraints(g);

  IntervalQueryResult r = flat.QueryWithInterval(2, 5, 2.0f);
  EXPECT_EQ(r.dist, 2u);
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      for (Quality w : sweep) {
        CheckInterval(flat, labels, sweep, s, t, w);
      }
    }
  }
}

}  // namespace
}  // namespace wcsd

// Quality-constrained shortest PATH queries (paper §V).
//
// The index stores quads (u, d_u, w_u, p_uv): each label entry keeps the
// BFS predecessor recorded during construction (WcIndexOptions::
// record_parents). A path is reconstructed by walking predecessors from
// both endpoints toward the witnessing hub; where a predecessor's own entry
// was pruned (covered by another hub), reconstruction falls back to the
// recursive hub decomposition — pick any constraint-satisfying neighbor one
// step closer to the hub according to the index.

#ifndef WCSD_CORE_PATH_INDEX_H_
#define WCSD_CORE_PATH_INDEX_H_

#include <vector>

#include "core/wc_index.h"
#include "graph/graph.h"
#include "util/types.h"

namespace wcsd {

/// Per-call reconstruction counters: how many unwind steps were resolved
/// by the recorded quad parents vs. the index-guided neighbor fallback.
/// A parent-less index (built without record_parents, or mmap-loaded from
/// a v1 snapshot that dropped the quads) resolves every step through the
/// fallback — correct, but one Query per neighbor per step. Serving
/// engines aggregate fallback_steps so the degraded mode is observable.
struct PathQueryStats {
  size_t parent_steps = 0;
  size_t fallback_steps = 0;
};

/// Reconstructs a shortest w-path from s to t. Returns the vertex sequence
/// s ... t (inclusive), or an empty vector if t is unreachable under w.
/// Works on every label backend (flat, or compressed and decoded per step).
/// Fastest with parent quads (record_parents at build, or a v2 snapshot);
/// falls back to pure index-guided search otherwise — still correct, more
/// queries (reported through `stats` when non-null).
std::vector<Vertex> QueryConstrainedPath(const WcIndex& index,
                                         const QualityGraph& g, Vertex s,
                                         Vertex t, Quality w,
                                         PathQueryStats* stats = nullptr);

/// Validates that `path` is a w-path in `g` from its front to its back
/// (every consecutive pair is an edge with quality >= w). Used by tests and
/// examples; an empty path is invalid.
bool IsValidWPath(const QualityGraph& g, const std::vector<Vertex>& path,
                  Quality w);

}  // namespace wcsd

#endif  // WCSD_CORE_PATH_INDEX_H_

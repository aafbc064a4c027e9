// Property verifier for WCSD indexes (paper §IV.B).
//
// Checks, by brute force against the graph, the three properties Theorem 1
// claims for Algorithm 3's output:
//   * Soundness   — every entry (h, d, w) in L(u) is witnessed by a real
//                   w-path of length d between u and the hub vertex (and,
//                   when `require_tight`, d is exactly the w-constrained
//                   distance, i.e. the entry sits on the dominance
//                   frontier);
//   * Completeness — Query(s, t, w) equals the constrained-BFS distance for
//                   every checked (s, t, w);
//   * Minimality  — no entry is dominated within its label (together with
//                   Theorem 3 strict monotonicity), and every entry is
//                   necessary: deleting it changes some query answer.
//
// All checks are exponential-free but brute-force (BFS per entry / per
// pair); they are meant for tests and small-to-mid graphs.

#ifndef WCSD_CORE_VERIFIER_H_
#define WCSD_CORE_VERIFIER_H_

#include <cstddef>
#include <string>

#include "core/wc_index.h"
#include "graph/graph.h"
#include "labeling/label_set.h"
#include "order/vertex_order.h"

namespace wcsd {

/// Aggregated verification counters; all-zero violation counts == pass.
struct VerificationReport {
  size_t entries_checked = 0;
  size_t pairs_checked = 0;
  size_t soundness_violations = 0;
  size_t tightness_violations = 0;
  size_t monotonicity_violations = 0;
  size_t dominated_entries = 0;
  size_t unnecessary_entries = 0;
  size_t completeness_violations = 0;

  bool ok() const {
    return soundness_violations == 0 && tightness_violations == 0 &&
           monotonicity_violations == 0 && dominated_entries == 0 &&
           unnecessary_entries == 0 && completeness_violations == 0;
  }

  /// One-line human-readable summary for test failure messages.
  std::string Summary() const;
};

/// Soundness over raw labels: each entry is witnessed by a real path.
/// With `require_tight`, also checks the entry distance is exactly the
/// constrained distance (frontier membership).
VerificationReport VerifySoundness(const LabelSet& labels,
                                   const VertexOrder& order,
                                   const QualityGraph& g, bool require_tight);

/// Theorem 3: within each (vertex, hub) group, distances and qualities are
/// strictly co-monotone, and no entry dominates another.
VerificationReport VerifyMonotonicity(const LabelSet& labels);

/// Completeness: Query(s, t, w) == constrained BFS for every vertex pair
/// and every distinct quality threshold (plus one unsatisfiable threshold).
/// O(|V|^2 |w| (|V|+|E|)) — small graphs only.
VerificationReport VerifyCompleteness(const WcIndex& index,
                                      const QualityGraph& g);

/// Minimality: dominance-freeness plus necessity of every entry. Reads the
/// entries the index serves (WcIndex::EntriesFor), so a mapped snapshot,
/// flat or compressed, is checked as thoroughly as a freshly built index.
VerificationReport VerifyMinimality(const WcIndex& index);

/// Runs all checks appropriate for a WC-INDEX, over the entries it serves
/// (see VerifyMinimality).
VerificationReport VerifyAll(const WcIndex& index, const QualityGraph& g);

}  // namespace wcsd

#endif  // WCSD_CORE_VERIFIER_H_

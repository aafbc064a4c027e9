#include "core/batch.h"

#include <algorithm>
#include <memory>

#include "serve/batch_runner.h"
#include "util/thread_pool.h"

namespace wcsd {

std::vector<Distance> BatchQuery(const WcIndex& index,
                                 const std::vector<BatchQueryInput>& queries,
                                 size_t threads) {
  std::vector<Distance> results(queries.size(), kInfDistance);
  // Contiguous chunks of at least 64 queries; cap workers at one chunk
  // each, since threads a transient pool cannot feed are pure startup
  // overhead. Long-lived servers should hold a QueryEngine instead and
  // amortize its pool across batches.
  constexpr size_t kMinChunk = 64;
  const size_t max_useful = (queries.size() + kMinChunk - 1) / kMinChunk;
  threads = std::max<size_t>(1, std::min(threads, max_useful));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  const size_t target = threads * 4;
  RunChunked(pool.get(), queries.size(),
             std::max(kMinChunk, (queries.size() + target - 1) / target),
             [&](size_t begin, size_t end, size_t) {
               for (size_t i = begin; i < end; ++i) {
                 results[i] =
                     index.Query(queries[i].s, queries[i].t, queries[i].w);
               }
             });
  return results;
}

std::vector<RankedCandidate> TopKClosest(const WcIndex& index, Vertex source,
                                         const std::vector<Vertex>& candidates,
                                         Quality w, size_t k) {
  return TopKClosestOverLabels(
      index.NumVertices(), source, candidates, w, k,
      [&index](Vertex v) { return index.EntriesFor(v); });
}

std::vector<ProfilePoint> QualityProfile(const WcIndex& index, Vertex s,
                                         Vertex t,
                                         const std::vector<Quality>& thresholds,
                                         size_t* label_merges) {
  return QualityProfileOverIntervals(
      thresholds,
      [&](Quality w) { return index.QueryWithInterval(s, t, w); },
      label_merges);
}

}  // namespace wcsd

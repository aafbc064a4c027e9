#include "net/swap_service.h"

#include <cassert>
#include <utility>

#include "labeling/delta.h"
#include "serve/result_cache.h"

namespace wcsd {

SwappableQueryService::SwappableQueryService(
    std::shared_ptr<const QueryService> initial)
    : current_(std::move(initial)) {
  assert(current_ != nullptr);
}

uint64_t SwappableQueryService::Swap(
    std::shared_ptr<const QueryService> next) {
  assert(next != nullptr);
  std::shared_ptr<const QueryService> old;
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old = std::move(current_);
    current_ = std::move(next);
    // Bumped inside the critical section so generation observations are
    // consistent with which service answers: a request that pinned the new
    // service never reports the old generation.
    generation = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  // `old` dies here (or when the last in-flight pin releases it) — outside
  // the lock, so tearing down a whole engine never stalls the swap path.
  return generation;
}

std::shared_ptr<const QueryService> SwappableQueryService::Pin() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

Distance SwappableQueryService::Query(Vertex s, Vertex t, Quality w) const {
  return Pin()->Query(s, t, w);
}

std::vector<Distance> SwappableQueryService::Batch(
    const std::vector<BatchQueryInput>& queries) const {
  return Pin()->Batch(queries);
}

uint64_t SwappableQueryService::NumVertices() const {
  return Pin()->NumVertices();
}

QueryEngineStats SwappableQueryService::Stats() const {
  // Service and generation must be captured under ONE critical section:
  // pinning first and reading generation() after would let a concurrent
  // Swap land in between and label the old service's counters with the new
  // generation. The inner Stats() call runs outside the lock so a slow
  // stats aggregation never stalls the swap path.
  std::shared_ptr<const QueryService> pinned;
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pinned = current_;
    generation = generation_.load(std::memory_order_acquire);
  }
  QueryEngineStats stats = pinned->Stats();
  stats.generation = generation;
  return stats;
}

std::vector<ShardBalanceEntry> SwappableQueryService::ShardBalance() const {
  return Pin()->ShardBalance();
}

ServeOutcome SwappableQueryService::QueryEx(Vertex s, Vertex t, Quality w,
                                            Distance* out) const {
  return Pin()->QueryEx(s, t, w, out);
}

ServeOutcome SwappableQueryService::BatchEx(
    const std::vector<BatchQueryInput>& queries,
    std::vector<Distance>* out) const {
  return Pin()->BatchEx(queries, out);
}

ServeOutcome SwappableQueryService::TopKEx(
    Vertex source, std::span<const Vertex> candidates, Quality w, size_t k,
    std::vector<RankedCandidate>* out) const {
  return Pin()->TopKEx(source, candidates, w, k, out);
}

ServeOutcome SwappableQueryService::ProfileEx(
    Vertex s, Vertex t, std::span<const Quality> thresholds,
    std::vector<ProfilePoint>* out) const {
  return Pin()->ProfileEx(s, t, thresholds, out);
}

ServeOutcome SwappableQueryService::PathEx(Vertex s, Vertex t, Quality w,
                                           std::vector<Vertex>* out) const {
  return Pin()->PathEx(s, t, w, out);
}

Result<NextGeneration> OpenNextGeneration(const QueryEngine& current,
                                          const DeltaLog* delta,
                                          const QueryEngineOptions& options,
                                          const EngineOpener& open) {
  NextGeneration next;
  QueryEngineOptions next_options = options;
  if (options.shared_cache != nullptr) {
    ResultCache& cache = *options.shared_cache;
    // Runs inside the next engine's construction, after its fingerprint is
    // known and before its Rebind.
    next_options.pre_bind_invalidate = [&](uint64_t next_fingerprint) {
      const uint64_t fingerprint = current.cache_fingerprint();
      const bool scoped = delta != nullptr && delta->base_fingerprint != 0 &&
                          delta->base_fingerprint == fingerprint &&
                          cache.fingerprint() == fingerprint &&
                          next_fingerprint != fingerprint;
      if (!scoped) {
        if (cache.fingerprint() != next_fingerprint) {
          next.cache = CacheHandoff::kWiped;
        }
        return;
      }
      const std::vector<DeltaImpact> impacts = DeltaImpacts(*delta);
      next.cache = CacheHandoff::kScoped;
      next.dropped = cache.InvalidateDelta(
          next_fingerprint, impacts,
          current.has_index() ? ReachabilityCoupling(current.index(), impacts)
                              : ResultCache::CoupledFn());
    };
  }
  Result<QueryEngine> opened = open(next_options);
  if (!opened.ok()) return opened.status();
  next.engine =
      std::make_shared<const QueryEngine>(std::move(opened).value());
  return next;
}

}  // namespace wcsd

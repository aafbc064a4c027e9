// Hot snapshot swap: epoch/RCU-style generation switching for live serving.
//
// A SwappableQueryService fronts the server's QueryService with an
// indirection the swap coordinator (serve --watch) can retarget while
// connections are live. Every request pins the current inner service with
// a shared_ptr copy, so an in-flight query finishes on the generation it
// started on while new requests land on the new one — Swap() never blocks
// a query and never drops one. The old generation (engine + mmap'd
// snapshot) is destroyed when its last in-flight request releases the pin.
//
// The generation counter starts at 1 and is bumped by every Swap; Stats()
// stamps it into QueryEngineStats.generation, which the wire kStatsReply
// carries (protocol v5), so clients can observe reloads. Non-swappable
// services report generation 0.
//
// OpenNextGeneration is the one reload handoff: it opens the engine that
// replaces the serving one and settles the shared result cache — scoped
// to a delta log (live updates, the paper's §VIII open problem), kept, or
// wiped — before the caller publishes the engine with Swap.

#ifndef WCSD_NET_SWAP_SERVICE_H_
#define WCSD_NET_SWAP_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/server.h"
#include "util/status.h"

namespace wcsd {

struct DeltaLog;

class SwappableQueryService : public QueryService {
 public:
  explicit SwappableQueryService(
      std::shared_ptr<const QueryService> initial);

  /// Atomically retargets all future requests to `next` and returns the
  /// new generation number. In-flight requests finish on the old service.
  /// An engine sharing a result cache with the serving one comes from
  /// OpenNextGeneration, which has settled the cache by the time it
  /// returns.
  uint64_t Swap(std::shared_ptr<const QueryService> next);

  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  Distance Query(Vertex s, Vertex t, Quality w) const override;
  std::vector<Distance> Batch(
      const std::vector<BatchQueryInput>& queries) const override;
  uint64_t NumVertices() const override;
  QueryEngineStats Stats() const override;
  std::vector<ShardBalanceEntry> ShardBalance() const override;
  ServeOutcome QueryEx(Vertex s, Vertex t, Quality w,
                       Distance* out) const override;
  ServeOutcome BatchEx(const std::vector<BatchQueryInput>& queries,
                       std::vector<Distance>* out) const override;
  ServeOutcome TopKEx(Vertex source, std::span<const Vertex> candidates,
                      Quality w, size_t k,
                      std::vector<RankedCandidate>* out) const override;
  ServeOutcome ProfileEx(Vertex s, Vertex t,
                         std::span<const Quality> thresholds,
                         std::vector<ProfilePoint>* out) const override;
  ServeOutcome PathEx(Vertex s, Vertex t, Quality w,
                      std::vector<Vertex>* out) const override;

 private:
  /// A shared_ptr copy under a short critical section. A plain mutex-
  /// protected copy (rather than std::atomic<std::shared_ptr>) keeps the
  /// implementation portable across the toolchains CI builds with; the
  /// critical section is two refcount ops.
  std::shared_ptr<const QueryService> Pin() const;

  mutable std::mutex mu_;
  std::shared_ptr<const QueryService> current_;
  std::atomic<uint64_t> generation_{1};
};

/// Opens a QueryEngine with the options it is given: a snapshot, a
/// manifest, or an in-memory index.
using EngineOpener =
    std::function<Result<QueryEngine>(const QueryEngineOptions& options)>;

/// What a reload did to the shared result cache.
enum class CacheHandoff : uint8_t {
  kKept,    // no shared cache, or the same labels reopened: nothing dropped
  kScoped,  // InvalidateDelta dropped only the intervals the delta touches
  kWiped,   // the next engine's Rebind dropped every entry
};

/// The engine that replaces the serving one, not yet published.
struct NextGeneration {
  std::shared_ptr<const QueryEngine> engine;
  CacheHandoff cache = CacheHandoff::kKept;
  /// Intervals the scoped invalidation dropped (kScoped only).
  size_t dropped = 0;
};

/// The one reload handoff: opens the generation that replaces `current`
/// through `open` with `options`, then the caller publishes it with Swap.
/// When `options.shared_cache` is set (and bound to `current`) and `delta`
/// was written against `current` — its base fingerprint is non-zero and
/// equals current.cache_fingerprint(), and the next fingerprint differs —
/// the cache is scoped before the next engine's Rebind:
///   InvalidateDelta(next fingerprint, DeltaImpacts(*delta),
///                   ReachabilityCoupling(current.index(), impacts)),
/// with quality overlap alone when `current` has no index (a manifest
/// tiling). Otherwise the Rebind settles it: reopening the same labels
/// keeps the cache, anything else wipes it. `delta` may be null. `current`
/// must serve until the call returns: its index answers the coupling
/// probes.
Result<NextGeneration> OpenNextGeneration(const QueryEngine& current,
                                          const DeltaLog* delta,
                                          const QueryEngineOptions& options,
                                          const EngineOpener& open);

}  // namespace wcsd

#endif  // WCSD_NET_SWAP_SERVICE_H_

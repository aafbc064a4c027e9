// Batch scaffold of the serving engine: chunked fan-out over a ThreadPool
// with per-call completion tracking, plus the per-worker stats slots the
// engine accumulates into.
//
// ThreadPool::Wait waits for GLOBAL quiescence, which is wrong for a
// serving engine: two user threads batching against the same engine would
// each block on the other's work. RunChunked instead counts down its own
// chunks on the caller's stack, so concurrent batches share the pool's
// workers but complete independently.

#ifndef WCSD_SERVE_BATCH_RUNNER_H_
#define WCSD_SERVE_BATCH_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "util/thread_pool.h"
#include "util/types.h"

namespace wcsd {

/// Monotonic serving counters, aggregated across workers on read. The
/// cache_* counters come from the engine's result cache (serve/
/// result_cache.h) and stay zero when caching is off.
struct QueryEngineStats {
  uint64_t queries = 0;
  uint64_t reachable = 0;
  uint64_t batches = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_evictions = 0;
  /// Queries refused because their labels live in a quarantined shard
  /// (degraded-mode sharded serving); always 0 for healthy engines.
  uint64_t shard_unavailable = 0;
  /// Hot-swap generation currently serving (net/swap_service.h), starting
  /// at 1 and bumped on every swap; 0 for a non-swappable service.
  uint64_t generation = 0;
  /// 1 when the served index carries §V parent quads (path reconstruction
  /// runs on the fast unwind), 0 otherwise — e.g. an index built without
  /// record_parents or mmap-loaded from a v1 snapshot that predates the
  /// parents section. Surfaced on the wire so the degraded parent-less
  /// mode is explicit, not silent.
  uint64_t has_parents = 0;
  /// Path-reconstruction unwind steps resolved through the index-guided
  /// neighbor fallback instead of a recorded parent quad. A steadily
  /// climbing value on a parent-less index is the degraded mode's
  /// signature (each fallback step costs one index query per neighbor).
  uint64_t path_fallbacks = 0;
  /// 1 when the engine serves the compressed label backend (a v3
  /// compressed snapshot, or any compressed shard in a sharded set), 0 on
  /// the flat backend.
  uint64_t compressed = 0;
  /// Decoded-label cache counters (serve/decode_cache.h); zero when no
  /// decode cache is configured. Distance queries over two compressed
  /// labels stream them and never consult the cache.
  uint64_t decode_hits = 0;
  uint64_t decode_misses = 0;
  /// Label reads that walked mmap-backed compressed bytes — the reads that
  /// can fault cold-tier pages in from disk: one per streamed side of a
  /// distance query, per decode-cache miss, and per decode on an engine
  /// without a decode cache. Decode-cache hits read no label bytes; the
  /// §V path walker over a whole index reads through the index and is not
  /// counted.
  uint64_t cold_pageins = 0;
  /// Bytes of the label backend actually resident/served (compressed
  /// bytes on the compressed backend) vs. what the same labels cost flat.
  /// uncompressed_label_bytes / label_bytes is the compression ratio; the
  /// two are equal on the flat backend.
  uint64_t label_bytes = 0;
  uint64_t uncompressed_label_bytes = 0;
};

/// Applies `fn(begin, end, worker)` to consecutive chunks of [0, n) and
/// blocks until every chunk has run. With a null pool or a single chunk the
/// call is inline (worker 0). Safe to call from multiple threads on one
/// pool concurrently.
inline void RunChunked(
    ThreadPool* pool, size_t n, size_t chunk,
    const std::function<void(size_t begin, size_t end, size_t worker)>& fn) {
  if (n == 0) return;
  chunk = std::max<size_t>(1, chunk);
  const size_t num_chunks = (n + chunk - 1) / chunk;
  if (pool == nullptr || num_chunks <= 1) {
    fn(0, n, 0);
    return;
  }
  std::mutex mu;
  std::condition_variable done;
  size_t remaining = num_chunks;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = c * chunk;
    const size_t end = std::min(n, begin + chunk);
    pool->Submit([&, begin, end](size_t worker) {
      fn(begin, end, worker);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&] { return remaining == 0; });
}

/// Per-worker counter slot, cache-line padded so workers never share a
/// line. Relaxed atomics: single queries may come from arbitrary caller
/// threads, and stats() may race a batch in flight.
struct alignas(64) ServeWorkerSlot {
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> reachable{0};
  std::atomic<uint64_t> cold_pageins{0};
};

/// The stats state an engine heap-holds (atomics are unmovable; the engine
/// stays movable by owning this through a unique_ptr).
struct ServeStatsBlock {
  explicit ServeStatsBlock(size_t num_workers) : slots(num_workers) {}

  /// Records one direct (non-batch) query.
  void RecordSingle(Distance d) {
    slots[0].queries.fetch_add(1, std::memory_order_relaxed);
    if (d != kInfDistance) {
      slots[0].reachable.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Records queries refused in degraded mode (quarantined shard).
  void RecordUnavailable(uint64_t count) {
    shard_unavailable.fetch_add(count, std::memory_order_relaxed);
  }

  /// Records `count` evaluated sub-queries of which `reachable_count`
  /// answered finite (the top-k / profile endpoints evaluate many
  /// per-frame).
  void RecordMany(uint64_t count, uint64_t reachable_count) {
    slots[0].queries.fetch_add(count, std::memory_order_relaxed);
    slots[0].reachable.fetch_add(reachable_count, std::memory_order_relaxed);
  }

  /// Records label reads of mmap-backed compressed bytes made outside a
  /// batch (QueryEngineStats::cold_pageins).
  void RecordColdPageins(uint64_t count) {
    if (count != 0) {
      slots[0].cold_pageins.fetch_add(count, std::memory_order_relaxed);
    }
  }

  /// Records path-unwind steps served through the graph fallback.
  void RecordPathFallbacks(uint64_t count) {
    if (count != 0) {
      path_fallbacks.fetch_add(count, std::memory_order_relaxed);
    }
  }

  QueryEngineStats Aggregate() const {
    QueryEngineStats total;
    for (const ServeWorkerSlot& slot : slots) {
      total.queries += slot.queries.load(std::memory_order_relaxed);
      total.reachable += slot.reachable.load(std::memory_order_relaxed);
      total.cold_pageins +=
          slot.cold_pageins.load(std::memory_order_relaxed);
    }
    total.batches = batches.load(std::memory_order_relaxed);
    total.shard_unavailable =
        shard_unavailable.load(std::memory_order_relaxed);
    total.path_fallbacks = path_fallbacks.load(std::memory_order_relaxed);
    return total;
  }

  std::vector<ServeWorkerSlot> slots;
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> shard_unavailable{0};
  std::atomic<uint64_t> path_fallbacks{0};
};

}  // namespace wcsd

#endif  // WCSD_SERVE_BATCH_RUNNER_H_

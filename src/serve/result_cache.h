// Dominance-aware result cache for the serve path.
//
// d(s, t, w) is a non-decreasing step function of w (PAPER §IV, Theorem
// 3), so one query — answered by the interval-returning merge kernel
// (labeling/query.h) — certifies its distance for a whole constraint
// interval, not just the w it was asked. The cache exploits that: a hit
// only needs SOME cached interval for (s, t) to contain w, which turns one
// miss into a hit for every nearby constraint. Production query logs are
// heavily skewed toward a small hot set of (s, t) pairs (see PAPERS.md on
// IS-LABEL / Query-by-Sketch), which is exactly the shape this rewards.
//
// Layout: a fixed budget of open-addressed slots, split across shards.
// One slot holds one undirected (s, t) key — endpoints are normalized, the
// graph is undirected — and a small set of disjoint (interval, distance)
// entries, stamped with the index fingerprint they were certified by.
// Capacity pressure is resolved by replacement, never by growth, so the
// byte budget is a hard bound.
//
// Concurrency: the read path is LOCK-FREE. Every slot is a seqlock — an
// even/odd version counter brackets all-atomic field updates — so Lookup
// and LookupBound probe, validate, and return without acquiring any mutex;
// a reader that races a writer simply retries or treats the slot as a miss
// (always sound: a miss just recomputes). Writers (Insert, InsertBound,
// Rebind, InvalidateDelta, Clear) still serialize per shard on the stripe
// mutex, so slot state only ever changes under one writer at a time. This
// is what lets N per-core server reactors share one cache without the read
// path becoming the contention wall.
//
// Admission: a second-chance-on-first-touch policy protects the hot set.
// An insert that would displace a live key is refused the first time that
// key is seen and admitted only when it comes back while its tag survives
// — one-off pairs (the tail of a skewed workload) die in the tag table
// instead of evicting resident hot pairs. Inserts into empty slots and
// re-inserts of resident keys are always admitted.
//
// Intervals stored for one key are maximal constant regions of the same
// step function, hence pairwise disjoint — an insert whose interval is
// already present is a no-op, and no overlap reconciliation is needed.
//
// Snapshot identity: a cache is bound to the index content fingerprint
// (labeling/shard_manifest.h IndexContentFingerprint) it was filled from,
// and every slot additionally records the fingerprint its entries were
// certified by. Rebind(fingerprint) wholesale-invalidates every entry when
// the identity changes (snapshot reload, dynamic update), and is a no-op
// when it does not — engines call it unconditionally at open, shared cache
// or not (a swap coordinator that already invalidated makes it a no-op).
// For a small delta between two known snapshots, InvalidateDelta() rebinds
// while dropping only the entries the delta can touch, keeping the hot set
// warm across live updates (see the soundness note at its declaration).
// LookupBound checks the slot's recorded fingerprint under the same
// slot-version protocol, so an engine of one generation can never read an
// entry certified by another — even mid-sweep, when the cache-level
// fingerprint has moved on but stale slots are not yet dropped.

#ifndef WCSD_SERVE_RESULT_CACHE_H_
#define WCSD_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "labeling/delta.h"
#include "labeling/query.h"
#include "util/types.h"

namespace wcsd {

class SlotWriteSection;

/// Monotonic cache counters. hits + misses = lookups; inserts counts
/// intervals stored; evictions counts displaced live keys and displaced
/// intervals within a full slot; admission_rejects counts first-touch
/// inserts refused by the second-chance policy.
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t admission_rejects = 0;

  friend bool operator==(const ResultCacheStats&,
                         const ResultCacheStats&) = default;
};

class ResultCache {
 public:
  /// Intervals one slot can hold for its (s, t) key.
  static constexpr size_t kIntervalsPerSlot = 3;
  /// Linear-probe window; a full window replaces instead of growing.
  static constexpr size_t kProbeWindow = 4;
  /// Seqlock read attempts before a racing slot is treated as a miss.
  static constexpr int kSeqlockRetries = 8;
  /// Second-chance tag slots per shard (power of two).
  static constexpr size_t kAdmissionTags = 64;

  /// Budgets ~`budget_bytes` of slot storage (rounded down to a power of
  /// two per shard, floor of one probe window per shard). The budget is
  /// fixed for the cache's lifetime. `second_chance_admission` gates the
  /// first-touch admission policy; off, any displacement-required insert
  /// evicts immediately (the pre-admission behavior, useful for tests and
  /// scan-heavy workloads).
  explicit ResultCache(size_t budget_bytes,
                       bool second_chance_admission = true);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Binds the cache to an index identity. A changed fingerprint drops
  /// every cached entry (counters survive); an unchanged one is a no-op.
  /// An insert racing a Rebind may land after the wipe, so a caller
  /// sharing one cache across snapshot swaps must Rebind before the new
  /// snapshot starts serving (engines do this unconditionally at open).
  void Rebind(uint64_t fingerprint);

  /// Decides whether cached pair (s, t) is reachability-coupled to a
  /// changed edge at the given test constraint (see InvalidateDelta).
  /// Called with a shard mutex held: must not re-enter the cache.
  using CoupledFn =
      std::function<bool(Vertex s, Vertex t, const DeltaImpact& impact,
                         Quality w_test)>;

  /// Rebinds to `new_fingerprint` while dropping only the entries a delta
  /// can touch. Soundness: a shortest path changed by edge {u, v} uses
  /// that edge, so its (s -> u) prefix and (v -> t) suffix already exist in
  /// the OLD graph — a cached interval [w_lo, w_hi] for (s, t) can only be
  /// stale if (a) it intersects the impact's constraint window
  /// [q_lo, q_hi], and (b) the pair is reachability-coupled to {u, v} in
  /// the old index at w_test = max(w_lo, q_lo) (reachability is monotone
  /// non-increasing in w, so testing the lowest affected constraint is
  /// conservative). `coupled` implements (b) from the OLD index —
  /// ReachabilityCoupling below, which also covers deltas whose records
  /// only together connect a pair; pass an empty function to skip it and
  /// invalidate on quality overlap alone (still sound, just coarser).
  /// Surviving entries are re-stamped with
  /// `new_fingerprint`: the delta argument certifies them for the new
  /// index. Returns the number of intervals dropped.
  size_t InvalidateDelta(uint64_t new_fingerprint,
                         std::span<const DeltaImpact> impacts,
                         const CoupledFn& coupled = {});

  /// The identity the current contents are valid for.
  uint64_t fingerprint() const;

  /// True (and *dist filled) when a cached interval for (s, t) contains w.
  /// Lock-free; may spuriously miss under writer contention (sound).
  bool Lookup(Vertex s, Vertex t, Quality w, Distance* dist);

  /// Generation-safe lookup: hits only entries whose slot was certified by
  /// exactly `expected_fingerprint`, checked under the same slot-version
  /// protocol as the payload read. An engine of one generation sharing the
  /// cache with another can never read the other's entries — including
  /// mid-InvalidateDelta, when stale slots linger after the cache-level
  /// fingerprint has already moved on. Lock-free like Lookup.
  bool LookupBound(Vertex s, Vertex t, Quality w,
                   uint64_t expected_fingerprint, Distance* dist);

  /// The lookup-miss-insert sequence the engine runs: returns the cached
  /// distance on a hit, otherwise calls `compute()` (which must return the
  /// IntervalQueryResult for (s, t, w)), stores its interval, and returns
  /// its distance.
  template <typename ComputeFn>
  Distance GetOrCompute(Vertex s, Vertex t, Quality w,
                        const ComputeFn& compute) {
    Distance dist;
    if (Lookup(s, t, w, &dist)) return dist;
    IntervalQueryResult result = compute();
    Insert(s, t, result);
    return result.dist;
  }

  /// Generation-safe variant for a cache shared across engine swaps: the
  /// lookup hits only entries certified by `expected_fingerprint`
  /// (LookupBound), and the insert is dropped unless the cache is still
  /// bound to it at insert time — an old-generation engine racing a swap
  /// can neither read nor poison the new generation's entries.
  template <typename ComputeFn>
  Distance GetOrCompute(Vertex s, Vertex t, Quality w,
                        uint64_t expected_fingerprint,
                        const ComputeFn& compute) {
    Distance dist;
    if (LookupBound(s, t, w, expected_fingerprint, &dist)) return dist;
    IntervalQueryResult result = compute();
    InsertBound(s, t, result, expected_fingerprint);
    return result.dist;
  }

  /// Stores the certified interval for (s, t). Degenerate results (the
  /// everywhere-valid interval of out-of-range queries) are cacheable like
  /// any other.
  void Insert(Vertex s, Vertex t, const IntervalQueryResult& result);

  /// Insert that checks the bound fingerprint under the shard mutex and
  /// silently drops on mismatch. Because Rebind/InvalidateDelta store the
  /// new fingerprint BEFORE sweeping the shards, a stale insert either
  /// lands before the sweep (and is swept) or observes the new fingerprint
  /// (and is dropped) — never survives into the new generation.
  void InsertBound(Vertex s, Vertex t, const IntervalQueryResult& result,
                   uint64_t expected_fingerprint);

  /// Drops every entry (counters survive).
  void Clear();

  ResultCacheStats stats() const;

  size_t num_shards() const { return num_shards_; }
  size_t slots_per_shard() const { return slots_per_shard_; }

  /// Bytes of slot storage actually allocated.
  size_t MemoryBytes() const;

 private:
  friend class SlotWriteSection;

  struct Interval {
    Quality w_lo;
    Quality w_hi;
    Distance dist;
  };

  /// One seqlock-protected slot. All reader-visible fields are atomics
  /// (relaxed accesses bracketed by the version protocol), so the lock-free
  /// read path is race-free by construction; `clock` is writer-only state
  /// touched exclusively under the shard mutex. 64 bytes, line-aligned.
  struct AtomicInterval {
    std::atomic<Quality> w_lo{0};
    std::atomic<Quality> w_hi{0};
    std::atomic<Distance> dist{0};
  };
  struct alignas(64) Slot {
    /// Seqlock: odd while a writer is mid-update; readers validate that
    /// the version is even and unchanged across their field reads.
    std::atomic<uint32_t> version{0};
    std::atomic<uint32_t> count{0};
    std::atomic<uint64_t> key;
    /// Index fingerprint this slot's intervals were certified by.
    std::atomic<uint64_t> fingerprint{0};
    AtomicInterval iv[kIntervalsPerSlot];
    uint32_t clock = 0;  // rotation point for interval replacement
  };

  /// Consistent copy of one slot's reader-visible state.
  struct SlotSnapshot {
    uint64_t key;
    uint64_t fingerprint;
    uint32_t count;
    Interval iv[kIntervalsPerSlot];
  };

  /// Cache-line aligned so two shards' mutexes never share a line. The
  /// mutex serializes writers only; hits/misses are atomics because the
  /// lock-free read path bumps them, the remaining counters are
  /// writer-owned under mu.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unique_ptr<Slot[]> slots;
    /// Second-chance tags: keys seen once whose admission is pending.
    std::unique_ptr<uint64_t[]> admit_once;
    uint32_t clock = 0;  // rotation point for slot replacement
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t admission_rejects = 0;
  };

  /// Seqlock-consistent read of one slot; false when `kSeqlockRetries`
  /// attempts raced writers (callers treat that as a miss).
  static bool ReadSlot(const Slot& slot, SlotSnapshot* out);

  /// Shared lock-free probe; `expected` non-null adds the per-slot
  /// fingerprint check (LookupBound).
  bool LookupImpl(Vertex s, Vertex t, Quality w, Distance* dist,
                  const uint64_t* expected);

  /// Shared insert path; `expected` non-null adds the fingerprint check
  /// under the shard mutex (InsertBound).
  void InsertImpl(Vertex s, Vertex t, const IntervalQueryResult& result,
                  const uint64_t* expected);

  /// High hash bits pick the shard, low bits the probe base inside it, so
  /// the two stay uncorrelated. num_shards_ and slots_per_shard_ are
  /// powers of two.
  Shard& ShardFor(uint64_t hash) const {
    return shards_[(hash >> 48) & (num_shards_ - 1)];
  }

  /// Heap-held array (mutexes are immovable); size num_shards_.
  std::unique_ptr<Shard[]> shards_;
  size_t num_shards_ = 0;
  size_t slots_per_shard_ = 0;
  bool admission_ = true;

  /// fingerprint_ is atomic so InsertBound can check it under a shard
  /// mutex only; fingerprint_mu_ still serializes the writers
  /// (Rebind/InvalidateDelta) against each other.
  mutable std::mutex fingerprint_mu_;
  std::atomic<uint64_t> fingerprint_{0};
};

class WcIndex;

/// The coupling test InvalidateDelta needs for the whole delta `impacts`,
/// read off `old_index`, the index the cached answers came from. At
/// w_test, pair (s, t) is coupled when
///   * one record {u, v}: s reaches u and v reaches t, or s reaches v and
///     u reaches t;
///   * two or more records: s reaches SOME record endpoint and some record
///     endpoint reaches t. Records can connect a pair only together, so
///     testing them one by one is unsound. This is sound: on a changed
///     path, the first changed edge has an old-graph prefix from s and the
///     last one an old-graph suffix to t, and a deleted edge's old path
///     lies wholly in the old graph.
/// Reachability is probed on `old_index` uncached (InvalidateDelta calls
/// this under the cache's shard mutexes); it must outlive the function.
ResultCache::CoupledFn ReachabilityCoupling(
    const WcIndex& old_index, std::span<const DeltaImpact> impacts);

}  // namespace wcsd

#endif  // WCSD_SERVE_RESULT_CACHE_H_

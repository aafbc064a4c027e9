#include "serve/result_cache.h"

#include <algorithm>

#include "core/wc_index.h"

namespace wcsd {

namespace {

constexpr uint64_t kEmptyKey = ~uint64_t{0};  // (2^32-1, 2^32-1): kNullVertex

/// Undirected key: the graph is undirected, so (s, t) and (t, s) share one
/// entry — normalizing doubles the hit rate on symmetric workloads.
inline uint64_t KeyOf(Vertex s, Vertex t) {
  if (s > t) std::swap(s, t);
  return (uint64_t{s} << 32) | t;
}

/// splitmix64 finalizer: cheap, and spreads the structured vertex-pair key
/// across all 64 bits so shard (high bits) and probe base (low bits) both
/// look random.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline size_t FloorPow2(size_t x) {
  size_t p = 1;
  while (p * 2 <= x) p *= 2;
  return p;
}

}  // namespace

/// RAII seqlock write section: entry flips the slot version odd, exit flips
/// it back even. All field stores between the two must be relaxed atomics —
/// the release fence on entry orders the odd-version store before them, and
/// the release store on exit orders them before the even version any reader
/// validates against. Callers hold the shard mutex, so write sections never
/// nest or overlap on one slot.
class SlotWriteSection {
 public:
  explicit SlotWriteSection(ResultCache::Slot& slot) : slot_(slot) {
    const uint32_t v = slot_.version.load(std::memory_order_relaxed);
    slot_.version.store(v + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
  ~SlotWriteSection() {
    const uint32_t v = slot_.version.load(std::memory_order_relaxed);
    slot_.version.store(v + 1, std::memory_order_release);
  }
  SlotWriteSection(const SlotWriteSection&) = delete;
  SlotWriteSection& operator=(const SlotWriteSection&) = delete;

 private:
  ResultCache::Slot& slot_;
};

ResultCache::ResultCache(size_t budget_bytes) {
  const size_t total_slots =
      std::max(kProbeWindow, budget_bytes / sizeof(Slot));
  // ~256 slots per shard before adding stripes, capped at 64 shards: small
  // budgets stay single-stripe, big ones spread writer contention.
  num_shards_ = std::clamp<size_t>(FloorPow2(total_slots / 256), 1, 64);
  slots_per_shard_ =
      std::max(kProbeWindow, FloorPow2(total_slots / num_shards_));
  shards_ = std::make_unique<Shard[]>(num_shards_);
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].slots = std::make_unique<Slot[]>(slots_per_shard_);
    for (size_t j = 0; j < slots_per_shard_; ++j) {
      shards_[i].slots[j].key.store(kEmptyKey, std::memory_order_relaxed);
    }
    shards_[i].admit_once = std::make_unique<uint64_t[]>(kAdmissionTags);
    std::fill_n(shards_[i].admit_once.get(), kAdmissionTags, kEmptyKey);
  }
}

void ResultCache::Rebind(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(fingerprint_mu_);
  if (fingerprint_.load(std::memory_order_relaxed) == fingerprint) return;
  // New identity is visible before any entry is dropped, so a stale
  // InsertBound racing the sweep can never land after it (see InsertBound).
  fingerprint_.store(fingerprint, std::memory_order_release);
  Clear();
}

size_t ResultCache::InvalidateDelta(uint64_t new_fingerprint,
                                    std::span<const DeltaImpact> impacts,
                                    const CoupledFn& coupled) {
  std::lock_guard<std::mutex> lock(fingerprint_mu_);
  fingerprint_.store(new_fingerprint, std::memory_order_release);
  size_t dropped = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> shard_lock(shard.mu);
    for (size_t si = 0; si < slots_per_shard_; ++si) {
      Slot& slot = shard.slots[si];
      // Writer-side reads: stable under the shard mutex.
      const uint64_t slot_key = slot.key.load(std::memory_order_relaxed);
      if (slot_key == kEmptyKey) continue;
      const Vertex s = static_cast<Vertex>(slot_key >> 32);
      const Vertex t = static_cast<Vertex>(slot_key & 0xffffffffu);
      const uint32_t count = slot.count.load(std::memory_order_relaxed);
      Interval kept[kIntervalsPerSlot];
      uint32_t num_kept = 0;
      for (uint32_t j = 0; j < count; ++j) {
        const Interval iv{slot.iv[j].w_lo.load(std::memory_order_relaxed),
                          slot.iv[j].w_hi.load(std::memory_order_relaxed),
                          slot.iv[j].dist.load(std::memory_order_relaxed)};
        bool touched = false;
        for (const DeltaImpact& impact : impacts) {
          if (iv.w_hi < impact.q_lo || impact.q_hi < iv.w_lo) continue;
          const Quality w_test = std::max(iv.w_lo, impact.q_lo);
          if (!coupled || coupled(s, t, impact, w_test)) {
            touched = true;
            break;
          }
        }
        if (touched) {
          ++dropped;
        } else {
          kept[num_kept++] = iv;
        }
      }
      SlotWriteSection write(slot);
      for (uint32_t j = 0; j < num_kept; ++j) {
        slot.iv[j].w_lo.store(kept[j].w_lo, std::memory_order_relaxed);
        slot.iv[j].w_hi.store(kept[j].w_hi, std::memory_order_relaxed);
        slot.iv[j].dist.store(kept[j].dist, std::memory_order_relaxed);
      }
      slot.count.store(num_kept, std::memory_order_relaxed);
      slot.clock = 0;
      if (num_kept == 0) {
        slot.key.store(kEmptyKey, std::memory_order_relaxed);
      } else {
        // Survivors are certified for the new index by the delta soundness
        // argument: re-stamp them so LookupBound(new_fingerprint) hits.
        slot.fingerprint.store(new_fingerprint, std::memory_order_relaxed);
      }
    }
  }
  return dropped;
}

uint64_t ResultCache::fingerprint() const {
  return fingerprint_.load(std::memory_order_acquire);
}

void ResultCache::Clear() {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t si = 0; si < slots_per_shard_; ++si) {
      Slot& slot = shard.slots[si];
      SlotWriteSection write(slot);
      slot.key.store(kEmptyKey, std::memory_order_relaxed);
      slot.count.store(0, std::memory_order_relaxed);
      slot.clock = 0;
    }
    shard.clock = 0;
    std::fill_n(shard.admit_once.get(), kAdmissionTags, kEmptyKey);
  }
}

bool ResultCache::ReadSlot(const Slot& slot, SlotSnapshot* out) {
  for (int attempt = 0; attempt < kSeqlockRetries; ++attempt) {
    const uint32_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 & 1u) continue;  // writer mid-update; retry
    out->key = slot.key.load(std::memory_order_relaxed);
    out->fingerprint = slot.fingerprint.load(std::memory_order_relaxed);
    uint32_t count = slot.count.load(std::memory_order_relaxed);
    count = std::min<uint32_t>(count, kIntervalsPerSlot);
    out->count = count;
    for (uint32_t i = 0; i < count; ++i) {
      out->iv[i].w_lo = slot.iv[i].w_lo.load(std::memory_order_relaxed);
      out->iv[i].w_hi = slot.iv[i].w_hi.load(std::memory_order_relaxed);
      out->iv[i].dist = slot.iv[i].dist.load(std::memory_order_relaxed);
    }
    // Orders the field loads above before the version re-check: if the
    // version is still v1, no write section overlapped the reads.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.version.load(std::memory_order_relaxed) == v1) return true;
  }
  return false;  // persistent writer contention; caller treats as a miss
}

bool ResultCache::LookupBound(Vertex s, Vertex t, Quality w,
                              uint64_t expected_fingerprint,
                              Distance* dist) {
  const uint64_t key = KeyOf(s, t);
  const uint64_t hash = Mix(key);
  Shard& shard = ShardFor(hash);
  const size_t mask = slots_per_shard_ - 1;
  for (size_t p = 0; p < kProbeWindow; ++p) {
    const Slot& slot = shard.slots[(hash + p) & mask];
    SlotSnapshot snap;
    if (!ReadSlot(slot, &snap)) continue;  // unreadable ≠ ours; keep probing
    if (snap.key != key) continue;
    // The fingerprint was read under the same version validation as the
    // intervals, so a hit here is certified by exactly this generation.
    if (snap.fingerprint != expected_fingerprint) break;
    for (uint32_t i = 0; i < snap.count; ++i) {
      if (snap.iv[i].w_lo <= w && w <= snap.iv[i].w_hi) {
        *dist = snap.iv[i].dist;
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    break;  // keys are unique within the window
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ResultCache::InsertBound(Vertex s, Vertex t,
                              const IntervalQueryResult& result,
                              uint64_t expected_fingerprint) {
  const uint64_t key = KeyOf(s, t);
  const uint64_t hash = Mix(key);
  Shard& shard = ShardFor(hash);
  const size_t mask = slots_per_shard_ - 1;
  std::lock_guard<std::mutex> lock(shard.mu);
  if (fingerprint_.load(std::memory_order_acquire) != expected_fingerprint) {
    return;  // the index this result came from is no longer bound
  }

  Slot* target = nullptr;
  Slot* empty = nullptr;
  for (size_t p = 0; p < kProbeWindow; ++p) {
    Slot& slot = shard.slots[(hash + p) & mask];
    if (slot.key.load(std::memory_order_relaxed) == key) {
      target = &slot;
      break;
    }
    if (slot.key.load(std::memory_order_relaxed) == kEmptyKey &&
        empty == nullptr) {
      empty = &slot;
    }
  }
  bool fresh = false;
  if (target == nullptr) {
    if (empty != nullptr) {
      target = empty;
    } else {
      // Window full of other keys: displacing a resident entry needs
      // admission. Second chance: the first touch of a key only plants a
      // tag; the insert is admitted when the key comes back while its tag
      // survives. One-off pairs die in the tag table instead of evicting
      // the hot set.
      uint64_t& tag = shard.admit_once[(hash >> 32) & (kAdmissionTags - 1)];
      if (tag != key) {
        tag = key;
        ++shard.admission_rejects;
        return;
      }
      tag = kEmptyKey;  // second touch: consume the tag and admit
      target = &shard.slots[(hash + (shard.clock++ % kProbeWindow)) & mask];
      ++shard.evictions;
    }
    fresh = true;
  } else if (target->fingerprint.load(std::memory_order_relaxed) !=
             expected_fingerprint) {
    // Resident key certified by another generation (possible only inside
    // an InvalidateDelta sweep window): its intervals are not ours to
    // extend — reset the slot to this generation.
    fresh = true;
  }

  if (!fresh) {
    // Intervals of one key are maximal constant regions of the same step
    // function: a duplicate is bit-identical, anything else is disjoint.
    // Writer-side reads, stable under the shard mutex.
    const uint32_t count = target->count.load(std::memory_order_relaxed);
    for (uint32_t i = 0; i < count; ++i) {
      if (target->iv[i].w_lo.load(std::memory_order_relaxed) == result.w_lo &&
          target->iv[i].w_hi.load(std::memory_order_relaxed) == result.w_hi) {
        return;
      }
    }
  }

  SlotWriteSection write(*target);
  if (fresh) {
    target->key.store(key, std::memory_order_relaxed);
    target->fingerprint.store(expected_fingerprint,
                              std::memory_order_relaxed);
    target->count.store(0, std::memory_order_relaxed);
    target->clock = 0;
  }
  const uint32_t count = target->count.load(std::memory_order_relaxed);
  uint32_t at;
  if (count < kIntervalsPerSlot) {
    at = count;
    target->count.store(count + 1, std::memory_order_relaxed);
  } else {
    at = target->clock++ % kIntervalsPerSlot;
    ++shard.evictions;
  }
  target->iv[at].w_lo.store(result.w_lo, std::memory_order_relaxed);
  target->iv[at].w_hi.store(result.w_hi, std::memory_order_relaxed);
  target->iv[at].dist.store(result.dist, std::memory_order_relaxed);
  ++shard.inserts;
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats total;
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    total.hits += shard.hits.load(std::memory_order_relaxed);
    total.misses += shard.misses.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(shard.mu);
    total.inserts += shard.inserts;
    total.evictions += shard.evictions;
    total.admission_rejects += shard.admission_rejects;
  }
  return total;
}

size_t ResultCache::MemoryBytes() const {
  return num_shards_ * slots_per_shard_ * sizeof(Slot);
}

ResultCache::CoupledFn ReachabilityCoupling(
    const WcIndex& old_index, std::span<const DeltaImpact> impacts) {
  auto reaches = [&old_index](Vertex a, Vertex b, Quality w) {
    return old_index.Query(a, b, w) != kInfDistance;
  };
  if (impacts.size() <= 1) {
    return [reaches](Vertex s, Vertex t, const DeltaImpact& impact,
                     Quality w_test) {
      return (reaches(s, impact.u, w_test) && reaches(impact.v, t, w_test)) ||
             (reaches(s, impact.v, w_test) && reaches(impact.u, t, w_test));
    };
  }
  std::vector<Vertex> endpoints;
  for (const DeltaImpact& impact : impacts) {
    endpoints.insert(endpoints.end(), {impact.u, impact.v});
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  return [reaches, endpoints = std::move(endpoints)](
             Vertex s, Vertex t, const DeltaImpact&, Quality w_test) {
    return std::any_of(endpoints.begin(), endpoints.end(),
                       [&](Vertex x) { return reaches(s, x, w_test); }) &&
           std::any_of(endpoints.begin(), endpoints.end(),
                       [&](Vertex y) { return reaches(y, t, w_test); });
  };
}

}  // namespace wcsd

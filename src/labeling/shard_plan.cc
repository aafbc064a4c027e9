#include "labeling/shard_plan.h"

#include <algorithm>

namespace wcsd {

namespace {

/// Fills the per-shard mass fields of a plan whose begin/end are set.
void FillMass(const FlatLabelSet& flat, ShardPlan* plan) {
  auto offsets = flat.raw_offsets();
  auto group_offsets = flat.raw_group_offsets();
  plan->total_bytes = 0;
  for (PlannedShard& shard : plan->shards) {
    shard.entry_count = offsets[shard.end] - offsets[shard.begin];
    shard.group_count =
        group_offsets[shard.end] - group_offsets[shard.begin];
    shard.bytes = ShardLabelBytes(shard.num_vertices(), shard.entry_count,
                                  shard.group_count);
    plan->total_bytes += shard.bytes;
  }
}

ShardPlan MakePlan(const FlatLabelSet& flat,
                   std::vector<uint64_t> boundaries) {
  // `boundaries` holds the n_shards+1 fence posts, 0 first, n last.
  ShardPlan plan;
  plan.num_vertices = flat.NumVertices();
  plan.shards.reserve(boundaries.size() - 1);
  for (size_t k = 0; k + 1 < boundaries.size(); ++k) {
    PlannedShard shard;
    shard.begin = boundaries[k];
    shard.end = boundaries[k + 1];
    plan.shards.push_back(shard);
  }
  FillMass(flat, &plan);
  return plan;
}

std::vector<uint64_t> EvenBoundaries(uint64_t n, uint64_t shards) {
  std::vector<uint64_t> fences(shards + 1);
  for (uint64_t k = 0; k <= shards; ++k) fences[k] = n * k / shards;
  return fences;
}

/// Greedy prefix-sum split: each interior fence lands at the vertex whose
/// prefix mass is closest to the ideal k/N point, clamped so every shard
/// keeps at least one vertex.
std::vector<uint64_t> MassBoundaries(const std::vector<uint64_t>& prefix,
                                     uint64_t n, uint64_t shards) {
  const uint64_t total = prefix[n];
  std::vector<uint64_t> fences(shards + 1);
  fences[0] = 0;
  fences[shards] = n;
  for (uint64_t k = 1; k < shards; ++k) {
    // Ideal mass of the first k shards; double to sidestep u64 overflow on
    // total * k (total can be ~2^40 for big indexes, k is small, but stay
    // safe for any input).
    const double ideal =
        static_cast<double>(total) * static_cast<double>(k) /
        static_cast<double>(shards);
    auto it = std::lower_bound(prefix.begin(), prefix.end(), ideal);
    uint64_t cut = static_cast<uint64_t>(it - prefix.begin());
    if (cut > 0 &&
        ideal - static_cast<double>(prefix[cut - 1]) <
            static_cast<double>(prefix[cut]) - ideal) {
      --cut;
    }
    // Keep fences strictly increasing with room for the remaining shards.
    cut = std::max(cut, fences[k - 1] + 1);
    cut = std::min(cut, n - (shards - k));
    fences[k] = cut;
  }
  return fences;
}

}  // namespace

uint64_t ShardPlan::MaxShardBytes() const {
  uint64_t max = 0;
  for (const PlannedShard& shard : shards) max = std::max(max, shard.bytes);
  return max;
}

double ShardPlan::MeanShardBytes() const {
  if (shards.empty()) return 0.0;
  return static_cast<double>(total_bytes) /
         static_cast<double>(shards.size());
}

double ShardPlan::ByteSkew() const {
  double mean = MeanShardBytes();
  if (mean <= 0.0) return 0.0;
  return static_cast<double>(MaxShardBytes()) / mean;
}

uint64_t ShardLabelBytes(uint64_t num_vertices, uint64_t entry_count,
                         uint64_t group_count) {
  return entry_count * sizeof(LabelEntry) + group_count * sizeof(HubGroup) +
         num_vertices * 2 * sizeof(uint64_t);
}

uint64_t VertexLabelBytes(const FlatLabelSet& flat, Vertex v) {
  auto offsets = flat.raw_offsets();
  auto group_offsets = flat.raw_group_offsets();
  return ShardLabelBytes(1, offsets[v + 1] - offsets[v],
                         group_offsets[v + 1] - group_offsets[v]);
}

Result<ShardPlan> PlanShards(const FlatLabelSet& flat,
                             const ShardPlanOptions& options) {
  if ((options.num_shards > 0) == (options.max_bytes > 0)) {
    return Status::InvalidArgument(
        "exactly one of num_shards and max_bytes must be set");
  }
  if (options.even_vertex && options.num_shards == 0) {
    return Status::InvalidArgument("even_vertex needs num_shards");
  }
  const uint64_t n = flat.NumVertices();
  if (n == 0) {
    // One empty shard still tiles [0, 0) and keeps downstream artifacts
    // (shard files, manifests) well-formed.
    ShardPlan plan = MakePlan(flat, {0, 0});
    return plan;
  }

  if (options.num_shards > 0) {
    const uint64_t shards =
        std::min<uint64_t>(options.num_shards, n);  // no empty shards
    if (options.even_vertex || shards == 1) {
      return MakePlan(flat, EvenBoundaries(n, shards));
    }
    std::vector<uint64_t> prefix(n + 1, 0);
    for (Vertex v = 0; v < n; ++v) {
      prefix[v + 1] = prefix[v] + VertexLabelBytes(flat, v);
    }
    ShardPlan planned = MakePlan(flat, MassBoundaries(prefix, n, shards));
    ShardPlan even = MakePlan(flat, EvenBoundaries(n, shards));
    // The greedy split can lose to even cuts only on near-uniform mass
    // with unlucky rounding; taking the better of the two makes the plan
    // provably never worse than the even-vertex fallback.
    return planned.MaxShardBytes() <= even.MaxShardBytes() ? planned : even;
  }

  // max_bytes mode: greedy fill, new shard when the next vertex would
  // overflow the cap (a lone overweight vertex still forms a shard).
  std::vector<uint64_t> fences{0};
  uint64_t current = 0;
  for (Vertex v = 0; v < n; ++v) {
    uint64_t mass = VertexLabelBytes(flat, v);
    if (current > 0 && current + mass > options.max_bytes) {
      fences.push_back(v);
      current = 0;
    }
    current += mass;
  }
  fences.push_back(n);
  return MakePlan(flat, std::move(fences));
}

}  // namespace wcsd

// Label-mass-balanced shard planning.
//
// Even vertex-range shards are badly skewed on hub-heavy indexes: the
// 2-hop labeling concentrates label mass on hub prefixes, so the shard
// holding the hubs carries most of the bytes while the tail shards are
// nearly empty — defeating the per-shard paging/locality sharded serving
// exists for (IS-LABEL and Query-by-Sketch size partitions by
// label/landmark mass for the same reason). The planner computes shard
// boundaries from per-vertex label mass instead: a greedy prefix-sum split
// over the FlatLabelSet's directory/entry counts.
//
// Two modes, plus a fallback:
//   * num_shards = N   — split [0, n) into exactly N contiguous ranges,
//     cutting each boundary at the prefix-sum position closest to the
//     ideal k/N mass point (clamped so no shard is empty). The result is
//     compared against the even-vertex split and the better of the two (by
//     max shard bytes) is returned, so a plan is never worse than even.
//   * max_bytes = B    — greedy fill: a new shard starts when adding the
//     next vertex would push the current shard past B. A single vertex
//     whose label alone exceeds B still gets its own shard (a shard never
//     splits below one vertex).
//   * even_vertex      — ignore mass, split into even vertex ranges (the
//     pre-planner behavior, kept for comparison and as a fallback).
//
// A plan is pure metadata — shard_manifest.h turns one into an on-disk
// shard set (snapshot files + manifest).

#ifndef WCSD_LABELING_SHARD_PLAN_H_
#define WCSD_LABELING_SHARD_PLAN_H_

#include <cstdint>
#include <vector>

#include "labeling/flat_label_set.h"
#include "util/status.h"
#include "util/types.h"

namespace wcsd {

struct ShardPlanOptions {
  /// Split into exactly this many shards (clamped to the vertex count so
  /// no shard is empty). Mutually exclusive with max_bytes.
  size_t num_shards = 0;
  /// Cap each shard's label bytes; shard count falls out. A single vertex
  /// heavier than the cap still becomes a (one-vertex) shard.
  uint64_t max_bytes = 0;
  /// Ignore label mass and cut even vertex ranges (needs num_shards).
  bool even_vertex = false;
};

/// One planned shard: a vertex range plus the label mass it carries.
struct PlannedShard {
  uint64_t begin = 0;
  uint64_t end = 0;          // exclusive
  uint64_t entry_count = 0;  // LabelEntry records in the range
  uint64_t group_count = 0;  // hub-directory records in the range
  uint64_t bytes = 0;        // serialized CSR payload bytes (see VertexLabelBytes)

  uint64_t num_vertices() const { return end - begin; }
  friend bool operator==(const PlannedShard&, const PlannedShard&) = default;
};

/// A tiling of [0, num_vertices) into contiguous shards.
struct ShardPlan {
  std::vector<PlannedShard> shards;
  uint64_t num_vertices = 0;
  uint64_t total_bytes = 0;

  uint64_t MaxShardBytes() const;
  double MeanShardBytes() const;
  /// max/mean shard bytes — 1.0 is perfect balance. 0 for empty plans.
  double ByteSkew() const;
};

/// Label bytes of a shard file holding `num_vertices` vertices with these
/// entry and hub-group counts: the entries, the hub directory, and each
/// vertex's slot in the two offset arrays (PlannedShard::bytes, and the
/// mass a manifest records).
uint64_t ShardLabelBytes(uint64_t num_vertices, uint64_t entry_count,
                         uint64_t group_count);

/// Label bytes vertex v contributes to a shard file (ShardLabelBytes of
/// one vertex). Every vertex carries at least the offset-slot mass, so
/// max_bytes mode always advances.
uint64_t VertexLabelBytes(const FlatLabelSet& flat, Vertex v);

/// Plans shard boundaries for `flat` (see file header for the modes).
/// Fails on contradictory options (both or neither of num_shards/max_bytes,
/// even_vertex without num_shards). A 0-vertex set plans one empty shard.
Result<ShardPlan> PlanShards(const FlatLabelSet& flat,
                             const ShardPlanOptions& options);

}  // namespace wcsd

#endif  // WCSD_LABELING_SHARD_PLAN_H_

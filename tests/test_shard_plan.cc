// Shard planner + manifest tests.
//
// Planner properties (seeded random label distributions + real indexes of
// the paper's graphs): planned boundaries always tile [0, n), never split
// below one vertex, respect --max-bytes, and the planned byte skew is
// never worse than the even-vertex split (and strictly better on
// hub-heavy inputs — the point of the planner).
//
// Manifest: round-trip encode/decode, the shard-set writer, and
// QueryEngine::OpenManifest's validation ladder — every negative
// (bad tiling, wrong fingerprint, missing file, swapped file, corrupt
// payload, corrupt/truncated manifest) must fail with a clean Status that
// names the offending shard, never crash. A golden manifest fixture in
// tests/data pins the on-disk encoding byte-for-byte (regenerate with
// WCSD_REGEN_SHARD_GOLDEN=1 after a deliberate format change).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "labeling/snapshot.h"
#include "paper_fixtures.h"
#include "serve/query_engine.h"
#include "util/checksum.h"
#include "util/random.h"

namespace wcsd {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(WCSD_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

/// A synthetic label distribution with controllable per-vertex mass:
/// vertex v gets `entries_of(v)` single-entry hub groups.
template <typename EntriesOf>
FlatLabelSet MakeSyntheticFlat(size_t n, EntriesOf entries_of) {
  LabelSet labels(n);
  for (Vertex v = 0; v < n; ++v) {
    size_t count = entries_of(v);
    for (size_t k = 0; k < count; ++k) {
      labels.Append(v, LabelEntry{static_cast<Rank>(k),
                                  static_cast<Distance>(k + 1), 1.0f});
    }
  }
  return FlatLabelSet::FromLabelSet(labels);
}

/// Checks the universal plan invariants: shards tile [0, n) in order and
/// (given n > 0) no shard is empty; per-shard masses add up.
void ExpectValidPlan(const FlatLabelSet& flat, const ShardPlan& plan) {
  ASSERT_FALSE(plan.shards.empty());
  EXPECT_EQ(plan.num_vertices, flat.NumVertices());
  uint64_t cursor = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
  for (const PlannedShard& shard : plan.shards) {
    EXPECT_EQ(shard.begin, cursor);
    if (flat.NumVertices() > 0) {
      EXPECT_GT(shard.end, shard.begin) << "empty shard in plan";
    }
    cursor = shard.end;
    entries += shard.entry_count;
    bytes += shard.bytes;
    uint64_t from_vertices = 0;
    for (uint64_t v = shard.begin; v < shard.end; ++v) {
      from_vertices += VertexLabelBytes(flat, static_cast<Vertex>(v));
    }
    EXPECT_EQ(shard.bytes, from_vertices);
  }
  EXPECT_EQ(cursor, flat.NumVertices());
  EXPECT_EQ(entries, flat.TotalEntries());
  EXPECT_EQ(bytes, plan.total_bytes);
}

TEST(ShardPlan, OptionValidation) {
  FlatLabelSet flat = MakeSyntheticFlat(4, [](Vertex) { return 1u; });
  EXPECT_FALSE(PlanShards(flat, {}).ok());
  ShardPlanOptions both;
  both.num_shards = 2;
  both.max_bytes = 100;
  EXPECT_FALSE(PlanShards(flat, both).ok());
  ShardPlanOptions even_only;
  even_only.even_vertex = true;
  even_only.max_bytes = 100;
  EXPECT_FALSE(PlanShards(flat, even_only).ok());
}

TEST(ShardPlan, TilesRandomDistributions) {
  Rng rng(0x9a7d);
  for (int round = 0; round < 40; ++round) {
    size_t n = 1 + static_cast<size_t>(rng.NextBounded(300));
    uint64_t salt = rng.NextBounded(1u << 30);
    FlatLabelSet flat = MakeSyntheticFlat(n, [&](Vertex v) {
      // Mix of uniform, spiky, and empty label sizes.
      uint64_t h = (v * 2654435761u) ^ salt;
      return static_cast<size_t>(h % 7 == 0 ? h % 97 : h % 4);
    });
    ShardPlanOptions options;
    options.num_shards = 1 + static_cast<size_t>(rng.NextBounded(10));
    auto plan = PlanShards(flat, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ExpectValidPlan(flat, plan.value());
    // Clamped: never more shards than vertices, never an empty shard.
    EXPECT_EQ(plan.value().shards.size(),
              std::min<uint64_t>(options.num_shards, n));

    ShardPlanOptions by_bytes;
    by_bytes.max_bytes = 16 + rng.NextBounded(4096);
    auto capped = PlanShards(flat, by_bytes);
    ASSERT_TRUE(capped.ok()) << capped.status().ToString();
    ExpectValidPlan(flat, capped.value());
    for (const PlannedShard& shard : capped.value().shards) {
      // The cap holds unless the shard is a single vertex that alone
      // exceeds it (a shard never splits below one vertex).
      if (shard.num_vertices() > 1) {
        EXPECT_LE(shard.bytes, by_bytes.max_bytes);
      }
    }
  }
}

TEST(ShardPlan, PlannedNeverWorseThanEven) {
  Rng rng(0xbeef);
  for (int round = 0; round < 30; ++round) {
    size_t n = 2 + static_cast<size_t>(rng.NextBounded(200));
    uint64_t salt = rng.NextBounded(1u << 30);
    bool hub_heavy = round % 2 == 0;
    FlatLabelSet flat = MakeSyntheticFlat(n, [&](Vertex v) {
      if (hub_heavy) return static_cast<size_t>(v < n / 8 ? 64 : 1);
      return static_cast<size_t>(((v * 2654435761u) ^ salt) % 5);
    });
    ShardPlanOptions options;
    options.num_shards = 2 + static_cast<size_t>(rng.NextBounded(6));
    auto planned = PlanShards(flat, options);
    options.even_vertex = true;
    auto even = PlanShards(flat, options);
    ASSERT_TRUE(planned.ok() && even.ok());
    EXPECT_LE(planned.value().MaxShardBytes(), even.value().MaxShardBytes())
        << "n=" << n << " shards=" << options.num_shards
        << " hub_heavy=" << hub_heavy;
  }
}

TEST(ShardPlan, HubHeavyPrefixGetsBalanced) {
  // The motivating shape: label mass concentrated on a hub prefix. An
  // even split puts nearly everything in shard 0; the planner must do
  // strictly better.
  FlatLabelSet flat = MakeSyntheticFlat(
      256, [](Vertex v) { return static_cast<size_t>(v < 16 ? 200 : 1); });
  ShardPlanOptions options;
  options.num_shards = 4;
  auto planned = PlanShards(flat, options);
  options.even_vertex = true;
  auto even = PlanShards(flat, options);
  ASSERT_TRUE(planned.ok() && even.ok());
  EXPECT_GT(even.value().ByteSkew(), 2.0);     // even split is badly skewed
  EXPECT_LT(planned.value().ByteSkew(), 1.5);  // planner fixes it
  EXPECT_LT(planned.value().ByteSkew(), even.value().ByteSkew());
  // And the hub prefix ends up alone in a small first shard.
  EXPECT_LT(planned.value().shards[0].num_vertices(), 64u);
}

TEST(ShardPlan, RealIndexesOfPaperGraphs) {
  for (const QualityGraph& g :
       {MakeFigure3Graph(), MakeFigure2Graph(), MakeFigure1Network()}) {
    WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
    const FlatLabelSet& flat = index.flat_labels();
    for (size_t shards : {1u, 2u, 3u, 17u}) {
      ShardPlanOptions options;
      options.num_shards = shards;
      auto plan = PlanShards(flat, options);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      ExpectValidPlan(flat, plan.value());
      options.even_vertex = true;
      auto even = PlanShards(flat, options);
      ASSERT_TRUE(even.ok());
      EXPECT_LE(plan.value().MaxShardBytes(), even.value().MaxShardBytes());
    }
    ShardPlanOptions by_bytes;
    by_bytes.max_bytes = 128;
    auto capped = PlanShards(flat, by_bytes);
    ASSERT_TRUE(capped.ok());
    ExpectValidPlan(flat, capped.value());
  }
}

TEST(ShardPlan, EdgeSizes) {
  FlatLabelSet empty = MakeSyntheticFlat(0, [](Vertex) { return 0u; });
  ShardPlanOptions options;
  options.num_shards = 4;
  auto plan = PlanShards(empty, options);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().shards.size(), 1u);
  EXPECT_EQ(plan.value().shards[0].begin, 0u);
  EXPECT_EQ(plan.value().shards[0].end, 0u);
  EXPECT_EQ(plan.value().ByteSkew(), 0.0);

  FlatLabelSet one = MakeSyntheticFlat(1, [](Vertex) { return 3u; });
  auto single = PlanShards(one, options);
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single.value().shards.size(), 1u);  // clamped to n
  EXPECT_EQ(single.value().shards[0].end, 1u);
}

// ---------------------------------------------------------------- manifest

/// One deterministic fixture index (the golden snapshot's graph) shared by
/// the manifest tests.
WcIndex BuildFigure3Index() {
  WcIndexOptions options;
  options.ordering = WcIndexOptions::Ordering::kIdentity;
  return WcIndex::Build(MakeFigure3Graph(), options);
}

TEST(ShardManifestFormat, RoundTrip) {
  ShardManifest manifest;
  manifest.num_vertices_total = 42;
  manifest.total_entries = 1000;
  manifest.total_groups = 600;
  manifest.total_label_bytes = 17472;
  manifest.fingerprint = 0x1234'5678'9abc'def0ULL;
  manifest.shards = {
      {"a.shard0", 0, 10, 400, 300, 8000, 0xdeadbeef},
      {"deep/dir/b.shard1", 10, 42, 600, 300, 9472, 0x01020304},
  };
  std::string path = testing::TempDir() + "/roundtrip.manifest";
  ASSERT_TRUE(WriteShardManifest(path, manifest).ok());
  auto read = ReadShardManifest(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), manifest);
  std::remove(path.c_str());
}

TEST(ShardManifestFormat, ResolveShardPath) {
  EXPECT_EQ(ResolveShardPath("/data/set.manifest", "set.shard0"),
            "/data/set.shard0");
  EXPECT_EQ(ResolveShardPath("set.manifest", "set.shard0"), "set.shard0");
  EXPECT_EQ(ResolveShardPath("/data/set.manifest", "/abs/other.shard0"),
            "/abs/other.shard0");
}

TEST(ShardManifestFormat, ValidateTilingCatchesBadSets) {
  ShardManifest manifest;
  manifest.num_vertices_total = 6;
  manifest.shards = {{"s0", 0, 4, 0, 0, 0, 0}, {"s1", 3, 6, 0, 0, 0, 0}};
  Status overlap = manifest.ValidateTiling();
  EXPECT_FALSE(overlap.ok());
  EXPECT_NE(overlap.message().find("tile"), std::string::npos);
  EXPECT_NE(overlap.message().find("s1"), std::string::npos);

  manifest.shards = {{"s0", 0, 2, 0, 0, 0, 0}, {"s1", 3, 6, 0, 0, 0, 0}};
  EXPECT_FALSE(manifest.ValidateTiling().ok());  // gap

  manifest.shards = {{"s0", 0, 6, 0, 0, 0, 0}};
  manifest.total_entries = 99;  // masses don't add up
  Status totals = manifest.ValidateTiling();
  EXPECT_FALSE(totals.ok());
  EXPECT_NE(totals.message().find("add up"), std::string::npos);

  manifest.total_entries = 0;
  EXPECT_TRUE(manifest.ValidateTiling().ok());
}

TEST(ShardManifestFormat, FingerprintIsContentAndTilingInvariant) {
  WcIndex index = BuildFigure3Index();
  uint64_t fingerprint = IndexContentFingerprint(index.flat_labels());
  EXPECT_NE(fingerprint, 0u);
  // Recomputing on an identical rebuild agrees; a different index differs.
  WcIndex again = BuildFigure3Index();
  EXPECT_EQ(IndexContentFingerprint(again.flat_labels()), fingerprint);
  WcIndex other = WcIndex::Build(MakeFigure2Graph(), WcIndexOptions::Plus());
  EXPECT_NE(IndexContentFingerprint(other.flat_labels()), fingerprint);
}

/// Writes a fresh 2-shard planned set of the Figure 3 index under
/// `stem` (in TempDir unless absolute) and returns the written set.
WrittenShardSet WriteFigure3ShardSet(const std::string& stem) {
  WcIndex index = BuildFigure3Index();
  ShardPlanOptions options;
  options.num_shards = 2;
  auto plan = PlanShards(index.flat_labels(), options);
  EXPECT_TRUE(plan.ok());
  auto written = WriteShardSet(stem, index.flat_labels(), plan.value());
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  return std::move(written).value();
}

void RemoveShardSet(const WrittenShardSet& set) {
  std::remove(set.manifest_path.c_str());
  for (const std::string& path : set.shard_paths) {
    std::remove(path.c_str());
  }
}

TEST(ShardManifestFormat, WriteShardSetMatchesIndex) {
  WcIndex index = BuildFigure3Index();
  WrittenShardSet set =
      WriteFigure3ShardSet(testing::TempDir() + "/fig3_set");
  EXPECT_EQ(set.manifest.num_vertices_total, index.NumVertices());
  EXPECT_EQ(set.manifest.total_entries, index.TotalEntries());
  EXPECT_EQ(set.manifest.fingerprint,
            IndexContentFingerprint(index.flat_labels()));
  EXPECT_TRUE(set.manifest.ValidateTiling().ok());
  // Shard paths are stored manifest-relative.
  for (const ShardManifestEntry& shard : set.manifest.shards) {
    EXPECT_EQ(shard.path.find('/'), std::string::npos);
  }
  auto read = ReadShardManifest(set.manifest_path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), set.manifest);
  RemoveShardSet(set);
}

TEST(ShardManifestServe, OpenManifestAnswersLikeUnsharded) {
  WcIndex index = BuildFigure3Index();
  WrittenShardSet set =
      WriteFigure3ShardSet(testing::TempDir() + "/fig3_serve");
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  QueryEngineOptions options;
  options.num_threads = 1;
  auto engine = QueryEngine::OpenManifest(set.manifest_path, options,
                                          verify);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine.value().NumVertices(), index.NumVertices());
  EXPECT_EQ(engine.value().num_shards(), 2u);
  for (Vertex s = 0; s < index.NumVertices(); ++s) {
    for (Vertex t = 0; t < index.NumVertices(); ++t) {
      for (Quality w : {1.0f, 2.0f, 3.0f, 5.0f}) {
        EXPECT_EQ(engine.value().Query(s, t, w), index.Query(s, t, w))
            << s << " " << t << " " << w;
      }
    }
  }
  // Balance reporting covers the whole range in tiling order.
  auto balance = engine.value().ShardBalance();
  ASSERT_EQ(balance.size(), 2u);
  EXPECT_EQ(balance[0].vertex_begin, 0u);
  EXPECT_EQ(balance[1].vertex_end, index.NumVertices());
  EXPECT_EQ(balance[0].entry_count + balance[1].entry_count,
            index.TotalEntries());
  RemoveShardSet(set);
}

TEST(ShardManifestServe, RejectsBadTilings) {
  WrittenShardSet set =
      WriteFigure3ShardSet(testing::TempDir() + "/fig3_badtile");
  // Overlap: stretch shard 0's recorded range over shard 1's start.
  ShardManifest bad = set.manifest;
  bad.shards[1].vertex_begin -= 1;
  ASSERT_TRUE(WriteShardManifest(set.manifest_path, bad).ok());
  auto overlap = QueryEngine::OpenManifest(set.manifest_path);
  ASSERT_FALSE(overlap.ok());
  EXPECT_NE(overlap.status().message().find("tile"), std::string::npos);
  EXPECT_NE(overlap.status().message().find(bad.shards[1].path),
            std::string::npos);

  // Gap.
  bad = set.manifest;
  bad.shards[1].vertex_begin += 1;
  ASSERT_TRUE(WriteShardManifest(set.manifest_path, bad).ok());
  EXPECT_FALSE(QueryEngine::OpenManifest(set.manifest_path).ok());

  // Truncated coverage.
  bad = set.manifest;
  bad.num_vertices_total += 5;
  ASSERT_TRUE(WriteShardManifest(set.manifest_path, bad).ok());
  auto uncovered = QueryEngine::OpenManifest(set.manifest_path);
  ASSERT_FALSE(uncovered.ok());
  EXPECT_NE(uncovered.status().message().find("cover"), std::string::npos);
  RemoveShardSet(set);
}

TEST(ShardManifestServe, RejectsWrongFingerprint) {
  WrittenShardSet set =
      WriteFigure3ShardSet(testing::TempDir() + "/fig3_fp");
  ShardManifest bad = set.manifest;
  bad.fingerprint ^= 1;
  ASSERT_TRUE(WriteShardManifest(set.manifest_path, bad).ok());
  // The fingerprint is only recomputed under verify_checksums (it must
  // read every payload page); the cheap path still opens.
  EXPECT_TRUE(QueryEngine::OpenManifest(set.manifest_path).ok());
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  auto checked =
      QueryEngine::OpenManifest(set.manifest_path, {}, verify);
  ASSERT_FALSE(checked.ok());
  EXPECT_NE(checked.status().message().find("fingerprint"),
            std::string::npos);
  RemoveShardSet(set);
}

TEST(ShardManifestServe, RejectsMissingShardFile) {
  WrittenShardSet set =
      WriteFigure3ShardSet(testing::TempDir() + "/fig3_missing");
  std::remove(set.shard_paths[1].c_str());
  auto missing = QueryEngine::OpenManifest(set.manifest_path);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("shard 1"), std::string::npos);
  EXPECT_NE(missing.status().message().find(set.shard_paths[1]),
            std::string::npos);
  RemoveShardSet(set);
}

TEST(ShardManifestServe, RejectsSwappedShardFile) {
  // A shard file regenerated from a different index (same vertex range)
  // fails the recorded snapshot-header CRC before any payload is trusted.
  WrittenShardSet set =
      WriteFigure3ShardSet(testing::TempDir() + "/fig3_swap");
  GraphBuilder b(6);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 1);
  b.AddEdge(2, 3, 1);
  b.AddEdge(3, 4, 1);
  b.AddEdge(4, 5, 1);
  WcIndex other = WcIndex::Build(b.Build(), WcIndexOptions::Plus());
  const ShardManifestEntry& entry = set.manifest.shards[0];
  ASSERT_TRUE(WriteSnapshotShard(set.shard_paths[0], other.flat_labels(),
                                 entry.vertex_begin, entry.vertex_end,
                                 set.manifest.num_vertices_total)
                  .ok());
  auto swapped = QueryEngine::OpenManifest(set.manifest_path);
  ASSERT_FALSE(swapped.ok());
  EXPECT_NE(swapped.status().message().find("shard 0"), std::string::npos);
  EXPECT_NE(swapped.status().message().find("not the file"),
            std::string::npos);
  RemoveShardSet(set);
}

TEST(ShardManifestServe, RejectsCorruptShardPayload) {
  WrittenShardSet set =
      WriteFigure3ShardSet(testing::TempDir() + "/fig3_corrupt");
  // Flip one payload byte past the (self-checked) header page.
  std::string bytes = ReadFileBytes(set.shard_paths[0]);
  ASSERT_GT(bytes.size(), 4097u);
  bytes[4100] = static_cast<char>(bytes[4100] ^ 0x40);
  WriteFileBytes(set.shard_paths[0], bytes);
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  auto corrupt =
      QueryEngine::OpenManifest(set.manifest_path, {}, verify);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find("shard 0"), std::string::npos);
  EXPECT_NE(corrupt.status().message().find("checksum"), std::string::npos);
  RemoveShardSet(set);
}

TEST(ShardManifestFormat, RejectsCorruptOrTruncatedManifest) {
  WrittenShardSet set =
      WriteFigure3ShardSet(testing::TempDir() + "/fig3_mfbad");
  std::string bytes = ReadFileBytes(set.manifest_path);

  // Any body flip breaks the trailing CRC.
  std::string flipped = bytes;
  flipped[20] = static_cast<char>(flipped[20] ^ 0x01);
  std::string path = testing::TempDir() + "/bad.manifest";
  WriteFileBytes(path, flipped);
  auto corrupt = ReadShardManifest(path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find("checksum"), std::string::npos);

  // Truncation.
  WriteFileBytes(path, bytes.substr(0, 10));
  auto truncated = ReadShardManifest(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("truncated"),
            std::string::npos);

  // Bad magic / version, with the trailing CRC re-fixed so the check under
  // test is the one that fires.
  auto refix = [&](std::string mutated) {
    uint32_t crc =
        Crc32c(mutated.data(), mutated.size() - sizeof(uint32_t));
    std::memcpy(mutated.data() + mutated.size() - sizeof(uint32_t), &crc,
                sizeof(crc));
    return mutated;
  };
  std::string bad_magic = bytes;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xff);
  WriteFileBytes(path, refix(bad_magic));
  auto magic = ReadShardManifest(path);
  ASSERT_FALSE(magic.ok());
  EXPECT_NE(magic.status().message().find("magic"), std::string::npos);

  std::string bad_version = bytes;
  bad_version[8] = 99;
  WriteFileBytes(path, refix(bad_version));
  auto version = ReadShardManifest(path);
  ASSERT_FALSE(version.ok());
  EXPECT_NE(version.status().message().find("version"), std::string::npos);

  std::remove(path.c_str());
  RemoveShardSet(set);
}

// ------------------------------------------------------------- golden pins

bool RegenRequested() {
  const char* regen = std::getenv("WCSD_REGEN_SHARD_GOLDEN");
  return regen != nullptr && regen[0] == '1';
}

// The checked-in fig3_golden.manifest + fig3_golden.shard{0,1} pin the
// manifest encoding and the shard writer, like the snapshot and wire
// goldens: the fixture index (Figure 3, identity order) is fully
// deterministic, so a byte difference means the format changed.
TEST(ShardGolden, WriterIsByteStable) {
  WrittenShardSet set =
      WriteFigure3ShardSet(testing::TempDir() + "/fig3_golden");
  if (RegenRequested()) {
    WriteFileBytes(GoldenPath("fig3_golden.manifest"),
                   ReadFileBytes(set.manifest_path));
    for (size_t k = 0; k < set.shard_paths.size(); ++k) {
      WriteFileBytes(GoldenPath("fig3_golden.shard" + std::to_string(k)),
                     ReadFileBytes(set.shard_paths[k]));
    }
  }
  EXPECT_EQ(ReadFileBytes(set.manifest_path),
            ReadFileBytes(GoldenPath("fig3_golden.manifest")))
      << "the manifest writer no longer produces the golden bytes — if the "
         "format changed deliberately, bump kShardManifestVersion and "
         "regenerate with WCSD_REGEN_SHARD_GOLDEN=1";
  for (size_t k = 0; k < set.shard_paths.size(); ++k) {
    EXPECT_EQ(ReadFileBytes(set.shard_paths[k]),
              ReadFileBytes(GoldenPath("fig3_golden.shard" +
                                       std::to_string(k))))
        << "shard " << k << " bytes changed — regenerate with "
           "WCSD_REGEN_SHARD_GOLDEN=1 after a deliberate format change";
  }
  RemoveShardSet(set);
}

TEST(ShardGolden, GoldenSetLoadsAndAnswers) {
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  QueryEngineOptions options;
  options.num_threads = 1;
  auto engine = QueryEngine::OpenManifest(
      GoldenPath("fig3_golden.manifest"), options, verify);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  WcIndex index = BuildFigure3Index();
  ASSERT_EQ(engine.value().NumVertices(), index.NumVertices());
  EXPECT_EQ(engine.value().Query(2, 5, 2.0f), 2u);  // the paper spot check
  for (Vertex s = 0; s < index.NumVertices(); ++s) {
    for (Vertex t = 0; t < index.NumVertices(); ++t) {
      for (Quality w : {1.0f, 2.0f, 4.0f}) {
        EXPECT_EQ(engine.value().Query(s, t, w), index.Query(s, t, w));
      }
    }
  }
}

}  // namespace
}  // namespace wcsd

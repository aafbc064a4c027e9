// Compressed flat backend tests: exact round trips through FromFlat /
// Decompress, per-vertex streaming decode, the streaming merge's
// (MergeStores over compressed stores) bit-identity to the flat kernels,
// validation tiers, the v3 snapshot
// format (including its corruption corpus), compressed shard sets, and
// the cold-tier decoded-label cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/compressed_flat.h"
#include "labeling/label_store.h"
#include "labeling/query.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "labeling/snapshot.h"
#include "paper_fixtures.h"
#include "serve/decode_cache.h"
#include "serve/query_engine.h"
#include "util/random.h"

namespace wcsd {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

WcIndex BuildFinalizedIndex(size_t n = 150, size_t m = 400,
                            uint64_t seed = 11) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(n, m, quality, seed);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  index.Finalize();
  return index;
}

TEST(CompressedFlat, RoundTripIsExact) {
  for (uint64_t seed : {3u, 7u, 23u}) {
    WcIndex index = BuildFinalizedIndex(120, 300, seed);
    const FlatLabelSet& flat = index.flat_labels();
    CompressedFlatLabelSet compressed = CompressedFlatLabelSet::FromFlat(flat);
    EXPECT_EQ(compressed.NumVertices(), flat.NumVertices());
    EXPECT_EQ(compressed.TotalEntries(), flat.raw_entries().size());
    EXPECT_EQ(compressed.TotalGroups(), flat.raw_groups().size());
    auto decompressed = compressed.Decompress();
    ASSERT_TRUE(decompressed.ok()) << decompressed.status().ToString();
    EXPECT_EQ(decompressed.value(), flat) << "seed " << seed;
  }
}

TEST(CompressedFlat, DecodeVertexMatchesFlatSlices) {
  WcIndex index = BuildFinalizedIndex();
  const FlatLabelSet& flat = index.flat_labels();
  CompressedFlatLabelSet compressed = CompressedFlatLabelSet::FromFlat(flat);
  DecodedLabel scratch;
  for (Vertex v = 0; v < flat.NumVertices(); ++v) {
    ASSERT_TRUE(compressed.DecodeVertex(v, &scratch).ok()) << "vertex " << v;
    FlatLabelView expected = flat.View(v);
    FlatLabelView got = scratch.View();
    ASSERT_EQ(got.entries.size(), expected.entries.size()) << "vertex " << v;
    ASSERT_EQ(got.groups.size(), expected.groups.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(got.entries.begin(), got.entries.end(),
                           expected.entries.begin()));
    EXPECT_TRUE(std::equal(got.groups.begin(), got.groups.end(),
                           expected.groups.begin()));
    EXPECT_EQ(compressed.EntryCount(v), expected.entries.size());
    EXPECT_EQ(compressed.GroupCount(v), expected.groups.size());
  }
}

TEST(CompressedFlat, StreamingMergeIsBitIdenticalToFlatKernels) {
  WcIndex index = BuildFinalizedIndex();
  const FlatLabelSet& flat = index.flat_labels();
  size_t n = flat.NumVertices();
  const LabelStore compressed(CompressedFlatLabelSet::FromFlat(flat), n);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    Distance expected =
        QueryLabels(flat.View(s), flat.View(t), w, QueryImpl::kMerge);
    ASSERT_EQ(MergeStores(compressed, s, compressed, t, w), expected)
        << "s=" << s << " t=" << t << " w=" << w;
  }

  // Across shards: a compressed shard set served without a decode cache
  // streams L(s) and L(t) from their own shards, each decoded through its
  // own quality dictionary. Forty quality levels and single-vertex shards
  // make those dictionaries differ.
  QualityModel fine;
  fine.num_levels = 40;
  WcIndex wide =
      WcIndex::Build(GenerateRandomConnected(60, 150, fine, 13),
                     WcIndexOptions::Plus());
  wide.Finalize();
  const FlatLabelSet& wflat = wide.flat_labels();
  const uint64_t wn = wflat.NumVertices();
  const std::vector<uint64_t> fences = {0, 1, 2, 3, wn / 2, wn};
  SnapshotWriteOptions compress;
  compress.compress = true;
  std::vector<std::string> shard_paths;
  std::set<std::vector<Quality>> dictionaries;
  for (size_t k = 0; k + 1 < fences.size(); ++k) {
    shard_paths.push_back(TempPath("cf_merge.shard" + std::to_string(k)));
    ASSERT_TRUE(WriteSnapshotShard(shard_paths.back(), wflat, fences[k],
                                   fences[k + 1], wn, {}, compress)
                    .ok());
    auto mapped = LoadSnapshotMmap(shard_paths.back());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    auto dictionary = mapped.value().compressed.raw_dictionary();
    dictionaries.emplace(dictionary.begin(), dictionary.end());
  }
  ASSERT_GT(dictionaries.size(), 1u);
  const std::string manifest = TempPath("cf_merge.manifest");
  ASSERT_TRUE(
      RecordShardManifest(manifest, shard_paths, IndexContentFingerprint(wflat))
          .ok());
  QueryEngineOptions options;
  options.num_threads = 1;
  auto sharded = QueryEngine::OpenManifest(manifest, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ(sharded.value().decode_cache(), nullptr);
  for (Vertex s = 0; s < 3; ++s) {
    for (Vertex t = 0; t < wn; ++t) {
      for (Quality w : {1.0f, 8.0f, 16.0f, 24.0f, 32.0f, 40.0f}) {
        ASSERT_EQ(sharded.value().Query(s, t, w),
                  QueryLabels(wflat.View(s), wflat.View(t), w,
                              QueryImpl::kMerge))
            << "s=" << s << " t=" << t << " w=" << w;
      }
    }
  }
  for (const std::string& p : shard_paths) std::remove(p.c_str());
  std::remove(manifest.c_str());

  // Mixed varint widths: 200 quality levels push dictionary codes past
  // 127, and a 2 x 160 grid under a random vertex order pushes hub-rank
  // deltas and first-entry distances past it too, so groups mix one- and
  // two-byte varints in every field the kernel reads or skips. (The first
  // group's absolute hub is rank 0 in every label of a connected graph.)
  RoadOptions thin;
  thin.rows = 2;
  thin.cols = 160;
  thin.extra_edge_keep_prob = 1.0;
  thin.diagonal_prob = 0.0;
  thin.quality.num_levels = 200;
  WcIndexOptions random_order = WcIndexOptions::Plus();
  random_order.ordering = WcIndexOptions::Ordering::kRandom;
  WcIndex grid =
      WcIndex::Build(GenerateRoadNetwork(thin, 17), random_order);
  grid.Finalize();
  const FlatLabelSet& gflat = grid.flat_labels();
  const LabelStore gcomp(CompressedFlatLabelSet::FromFlat(gflat),
                         gflat.NumVertices());
  ASSERT_GT(gcomp.compressed_labels().raw_dictionary().size(), 127u);
  bool wide_hub_delta = false, wide_dist = false;
  for (Vertex v = 0; v < gflat.NumVertices(); ++v) {
    const FlatLabelView view = gflat.View(v);
    for (size_t g = 0; g < view.groups.size(); ++g) {
      if (g > 0 && view.groups[g].hub - view.groups[g - 1].hub > 127) {
        wide_hub_delta = true;
      }
      if (view.entries[view.groups[g].begin].dist > 127) wide_dist = true;
    }
  }
  ASSERT_TRUE(wide_hub_delta && wide_dist);
  const size_t gn = gflat.NumVertices();
  for (int i = 0; i < 20000; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(gn));
    Vertex t = static_cast<Vertex>(rng.NextBounded(gn));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 200));
    ASSERT_EQ(MergeStores(gcomp, s, gcomp, t, w),
              QueryLabels(gflat.View(s), gflat.View(t), w))
        << "s=" << s << " t=" << t << " w=" << w;
  }
}

TEST(CompressedFlat, MeaningfulCompressionRatio) {
  WcIndex index = BuildFinalizedIndex(400, 1100, 29);
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  ASSERT_GT(compressed.UncompressedBytes(), 0u);
  double ratio = static_cast<double>(compressed.UncompressedBytes()) /
                 static_cast<double>(compressed.MemoryBytes());
  EXPECT_GE(ratio, 2.5) << "compression ratio regressed";
}

TEST(CompressedFlat, FingerprintMatchesFlatBackend) {
  WcIndex index = BuildFinalizedIndex();
  const FlatLabelSet& flat = index.flat_labels();
  CompressedFlatLabelSet compressed = CompressedFlatLabelSet::FromFlat(flat);
  EXPECT_EQ(compressed.ContentFingerprint(), IndexContentFingerprint(flat));
}

TEST(CompressedFlat, ValidationAcceptsWellFormedSets) {
  WcIndex index = BuildFinalizedIndex();
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  for (ValidateLevel level :
       {ValidateLevel::kShape, ValidateLevel::kDirectory,
        ValidateLevel::kDeep}) {
    EXPECT_TRUE(compressed.Validate(level).ok())
        << "level " << static_cast<int>(level);
  }
}

// Corrupt blob bytes must never escape the vertex's byte slice: every
// single-byte flip either still decodes (to possibly different labels) or
// fails cleanly — and the full-parse validation tier reports the latter
// class as Corruption. This is the compressed analogue of the flat
// backend's directory-bounds tier.
TEST(CompressedFlat, BlobCorruptionIsBoundsCheckedAndValidatable) {
  WcIndex index = BuildFinalizedIndex(60, 150, 13);
  const FlatLabelSet& flat = index.flat_labels();
  CompressedFlatLabelSet good = CompressedFlatLabelSet::FromFlat(flat);

  std::vector<uint64_t> offsets(good.raw_offsets().begin(),
                                good.raw_offsets().end());
  std::vector<uint64_t> group_offsets(good.raw_group_offsets().begin(),
                                      good.raw_group_offsets().end());
  std::vector<uint64_t> comp_offsets(good.raw_comp_offsets().begin(),
                                     good.raw_comp_offsets().end());
  std::vector<Quality> dictionary(good.raw_dictionary().begin(),
                                  good.raw_dictionary().end());
  std::vector<uint8_t> blob(good.raw_blob().begin(), good.raw_blob().end());

  Rng rng(99);
  DecodedLabel scratch;
  ASSERT_GE(blob.size(), 8u);
  // 200 flips anywhere, then 32 in the blob's last 8 bytes: the last
  // vertex's slice ends at the end of the allocation, so an 8-byte load
  // that crossed a slice end would show up under ASan there.
  for (int trial = 0; trial < 232; ++trial) {
    size_t at = trial < 200 ? rng.NextBounded(blob.size())
                            : blob.size() - 8 + rng.NextBounded(8);
    uint8_t old = blob[at];
    blob[at] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    CompressedFlatLabelSet corrupt = CompressedFlatLabelSet::FromExternal(
        offsets, group_offsets, comp_offsets, blob, dictionary, nullptr);
    // Shape still holds (offset arrays untouched)...
    EXPECT_TRUE(corrupt.Validate(ValidateLevel::kShape).ok());
    // ...and every decode answers or fails cleanly, in bounds (ASan/TSan
    // runs give this test its teeth).
    bool any_decode_failed = false;
    for (Vertex v = 0; v < corrupt.NumVertices(); ++v) {
      if (!corrupt.DecodeVertex(v, &scratch).ok()) {
        any_decode_failed = true;
        EXPECT_TRUE(scratch.entries.empty());
      }
    }
    Status deep = corrupt.Validate(ValidateLevel::kDirectory);
    if (any_decode_failed) {
      EXPECT_FALSE(deep.ok()) << "trial " << trial;
      EXPECT_EQ(deep.code(), StatusCode::kCorruption);
    }
    // The streaming kernel walks the same bytes; it must stay in bounds
    // whatever it answers, on either side of the merge.
    const Vertex hit = static_cast<Vertex>(
        std::upper_bound(comp_offsets.begin(), comp_offsets.end(), at) -
        comp_offsets.begin() - 1);
    const LabelStore store(corrupt, corrupt.NumVertices());
    for (Vertex u = 0; u < corrupt.NumVertices(); ++u) {
      for (Quality w : {1.0f, 3.0f}) {
        (void)MergeStores(store, hit, store, u, w);
        (void)MergeStores(store, u, store, hit, w);
      }
    }
    blob[at] = old;
  }
}

TEST(CompressedFlat, EmptySet) {
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(FlatLabelSet());
  EXPECT_EQ(compressed.NumVertices(), 0u);
  EXPECT_EQ(compressed.TotalEntries(), 0u);
  EXPECT_TRUE(compressed.Validate(ValidateLevel::kDeep).ok());
}

// ---- v3 snapshot format ----

TEST(CompressedFlat, CompressedSnapshotRoundTripsAndServesIdentically) {
  WcIndex index = BuildFinalizedIndex();
  std::string flat_path = TempPath("cf_flat.wcsnap");
  std::string comp_path = TempPath("cf_comp.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(flat_path).ok());
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(comp_path, compress).ok());

  auto flat_info = ReadSnapshotInfo(flat_path);
  auto comp_info = ReadSnapshotInfo(comp_path);
  ASSERT_TRUE(flat_info.ok() && comp_info.ok());
  // Smallest-capable-version rule: no parents, no compression -> v1
  // byte-layout; compression forces v3.
  EXPECT_FALSE(flat_info.value().compressed);
  EXPECT_TRUE(comp_info.value().compressed);
  EXPECT_EQ(comp_info.value().version, 3u);
  EXPECT_LT(ReadFileBytes(comp_path).size(),
            ReadFileBytes(flat_path).size() / 2);

  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto loaded = WcIndex::LoadMmap(comp_path, verify);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const WcIndex& mm = loaded.value();
  EXPECT_TRUE(mm.compressed());
  EXPECT_TRUE(mm.compressed_labels().external());
  EXPECT_EQ(mm.NumVertices(), index.NumVertices());
  EXPECT_EQ(mm.TotalEntries(), index.TotalEntries());
  EXPECT_EQ(mm.ContentFingerprint(), index.ContentFingerprint());

  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(index.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(index.NumVertices()));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    for (QueryImpl impl : {QueryImpl::kScan, QueryImpl::kHubGrouped,
                           QueryImpl::kBinary, QueryImpl::kMerge}) {
      ASSERT_EQ(mm.Query(s, t, w, impl), index.Query(s, t, w, impl))
          << "impl=" << static_cast<int>(impl) << " s=" << s << " t=" << t
          << " w=" << w;
    }
    HubQueryResult a = mm.QueryWithHub(s, t, w);
    HubQueryResult b = index.QueryWithHub(s, t, w);
    ASSERT_EQ(a.dist, b.dist);
    ASSERT_EQ(a.via_hub, b.via_hub);
    IntervalQueryResult ia = mm.QueryWithInterval(s, t, w);
    IntervalQueryResult ib = index.QueryWithInterval(s, t, w);
    ASSERT_EQ(ia.dist, ib.dist);
    ASSERT_EQ(ia.w_lo, ib.w_lo);
    ASSERT_EQ(ia.w_hi, ib.w_hi);
  }
  std::remove(flat_path.c_str());
  std::remove(comp_path.c_str());
}

// Migration both ways: a compressed-backend index can SaveSnapshot back to
// the flat layout, landing bit-identical to the original.
TEST(CompressedFlat, DecompressionMigrationRoundTrips) {
  WcIndex index = BuildFinalizedIndex();
  std::string comp_path = TempPath("cf_migrate.wcsnap");
  std::string back_path = TempPath("cf_migrate_back.wcsnap");
  std::string flat_path = TempPath("cf_migrate_flat.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(comp_path, compress).ok());
  ASSERT_TRUE(index.SaveSnapshot(flat_path).ok());

  auto mm = WcIndex::LoadMmap(comp_path);
  ASSERT_TRUE(mm.ok());
  ASSERT_TRUE(mm.value().compressed());
  ASSERT_TRUE(mm.value().SaveSnapshot(back_path).ok());
  EXPECT_EQ(ReadFileBytes(back_path), ReadFileBytes(flat_path));
  std::remove(comp_path.c_str());
  std::remove(back_path.c_str());
  std::remove(flat_path.c_str());
}

TEST(CompressedFlat, CompressRefusesParents) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(120, 320, quality, 17);
  WcIndexOptions options = WcIndexOptions::Plus();
  options.record_parents = true;
  WcIndex index = WcIndex::Build(g, options);
  index.Finalize();
  std::string path = TempPath("cf_parents.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  Status st = index.SaveSnapshot(path, compress);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// Corruption corpus for the three v3 sections. Byte flips anywhere in the
// compressed payload must be caught by checksums, and blob corruption that
// breaks stream structure by the deep tiers even without checksums.
TEST(CompressedFlat, CompressedSectionCorruptionCaught) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("cf_corrupt.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(path, compress).ok());
  const std::string good = ReadFileBytes(path);

  // The header page is [0, 4096); sections follow, page-aligned. Flip
  // bytes across the whole section span — comp offsets, blob, and
  // dictionary all live there, as do the logical offset arrays. A flip
  // landing in inter-section zero padding is outside every CRC and must
  // instead be harmless: the file still loads and serves identically.
  Rng rng(41);
  int caught = 0;
  for (int trial = 0; trial < 32; ++trial) {
    std::string bytes = good;
    size_t at = 4096 + rng.NextBounded(bytes.size() - 4096);
    bytes[at] ^= static_cast<char>(1 + rng.NextBounded(255));
    WriteFileBytes(path, bytes);
    SnapshotLoadOptions verify;
    verify.verify_checksums = true;
    verify.verify_level = SnapshotVerifyLevel::kDeep;
    auto checked = WcIndex::LoadMmap(path, verify);
    if (checked.ok()) {
      ASSERT_EQ(checked.value().ContentFingerprint(),
                index.ContentFingerprint())
          << "flip at " << at << " loaded clean but changed the labels";
    } else {
      ++caught;
      EXPECT_EQ(checked.status().code(), StatusCode::kCorruption);
    }
  }
  // Page-aligned sections mean a fair share of flips land in padding; the
  // checksummed-payload share must still be substantial.
  EXPECT_GE(caught, 8) << "too few flips caught by section checksums";

  // Structural (checksum-free) tier: zero the whole blob section's first
  // 64 bytes — streams truncate, kDirectory must catch it.
  {
    std::string bytes = good;
    // The blob is the only section whose size is neither 4/8/12-aligned
    // to counts; locate it by searching for the compressed set's bytes.
    CompressedFlatLabelSet compressed =
        CompressedFlatLabelSet::FromFlat(index.flat_labels());
    auto blob = compressed.raw_blob();
    ASSERT_GE(blob.size(), 64u);
    auto it = std::search(bytes.begin(), bytes.end(),
                          reinterpret_cast<const char*>(blob.data()),
                          reinterpret_cast<const char*>(blob.data()) + 64);
    ASSERT_NE(it, bytes.end());
    std::fill(it, it + 64, '\xFF');
    WriteFileBytes(path, bytes);
    auto trusting = WcIndex::LoadMmap(path);
    // Default load maps it (offset arrays are fine)...
    ASSERT_TRUE(trusting.ok()) << trusting.status().ToString();
    // ...but the full-parse tier reports corruption.
    SnapshotLoadOptions directory;
    directory.verify_level = SnapshotVerifyLevel::kDirectory;
    auto checked = WcIndex::LoadMmap(path, directory);
    ASSERT_FALSE(checked.ok());
    EXPECT_EQ(checked.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

TEST(CompressedFlat, TruncatedCompressedSnapshotRejected) {
  WcIndex index = BuildFinalizedIndex(60, 150, 5);
  std::string path = TempPath("cf_trunc.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(path, compress).ok());
  std::string good = ReadFileBytes(path);
  for (size_t keep : {size_t{100}, size_t{4096}, good.size() - 1}) {
    WriteFileBytes(path, good.substr(0, keep));
    EXPECT_FALSE(WcIndex::LoadMmap(path).ok()) << "kept " << keep;
  }
  std::remove(path.c_str());
}

// ---- compressed shard sets ----

TEST(CompressedFlat, CompressedShardSetServesIdentically) {
  WcIndex index = BuildFinalizedIndex(200, 520, 31);
  const FlatLabelSet& flat = index.flat_labels();

  ShardPlanOptions plan_options;
  plan_options.num_shards = 3;
  auto plan = PlanShards(flat, plan_options);
  ASSERT_TRUE(plan.ok());
  std::string stem = TempPath("cf_shards");
  SnapshotWriteOptions compress;
  compress.compress = true;
  auto written = WriteShardSet(stem, flat, plan.value(), compress);
  ASSERT_TRUE(written.ok()) << written.status().ToString();

  // Full checksum + fingerprint verification must hold on compressed
  // shards (the fingerprint chains per-vertex decodes).
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto engine = QueryEngine::OpenManifest(
      written.value().manifest_path, {}, verify);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(engine.value().compressed());
  EXPECT_EQ(engine.value().NumVertices(), index.NumVertices());

  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(index.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(index.NumVertices()));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    ASSERT_EQ(engine.value().Query(s, t, w), index.Query(s, t, w))
        << "s=" << s << " t=" << t << " w=" << w;
  }
  for (const std::string& p : written.value().shard_paths) {
    std::remove(p.c_str());
  }
  std::remove(written.value().manifest_path.c_str());
}

// Mixed sets: compressed and flat shard files recorded in one manifest
// must agree with the unsharded index (each shard serves from whatever
// backend its file carries). Distance queries stream every pair of
// backends: a compressed side is merged straight from its mmap'd varint
// bytes — one cold page-in per such side — and the decode cache, present
// for the requests that need decoded views, is never consulted.
TEST(CompressedFlat, MixedBackendShardsServeIdentically) {
  WcIndex index = BuildFinalizedIndex(160, 420, 37);
  const FlatLabelSet& flat = index.flat_labels();
  uint64_t n = index.NumVertices();
  uint64_t mid = n / 2;
  std::string a = TempPath("cf_mixed.shard0");
  std::string b = TempPath("cf_mixed.shard1");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(WriteSnapshotShard(a, flat, 0, mid, n, {}, compress).ok());
  ASSERT_TRUE(WriteSnapshotShard(b, flat, mid, n, n).ok());
  const std::string manifest = TempPath("cf_mixed.manifest");
  ASSERT_TRUE(
      RecordShardManifest(manifest, {a, b}, IndexContentFingerprint(flat))
          .ok());

  QueryEngineOptions options;
  options.num_threads = 1;
  options.decode_cache_bytes = 4 << 20;
  // Checksummed: the mixed set's chained content CRCs (the compressed
  // shard decodes for its share) reproduce the flat fingerprint.
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  auto engine = QueryEngine::OpenManifest(manifest, options, verify);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(engine.value().compressed());
  ASSERT_NE(engine.value().decode_cache(), nullptr);

  Rng rng(12);
  std::vector<BatchQueryInput> batch;
  std::vector<Distance> expected;
  uint64_t mixed_pairs = 0;
  uint64_t compressed_sides = 0;
  for (int i = 0; i < 1000; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    expected.push_back(index.Query(s, t, w));
    ASSERT_EQ(engine.value().Query(s, t, w), expected.back())
        << "s=" << s << " t=" << t << " w=" << w;
    batch.push_back({s, t, w});
    if (s == t) continue;
    if ((s < mid) != (t < mid)) ++mixed_pairs;
    compressed_sides += (s < mid ? 1 : 0) + (t < mid ? 1 : 0);
  }
  ASSERT_GT(mixed_pairs, 0u);
  EXPECT_EQ(engine.value().Batch(batch), expected);
  const QueryEngineStats stats = engine.value().Stats();
  EXPECT_EQ(stats.decode_hits + stats.decode_misses, 0u);
  // Query and Batch each walked every compressed side once.
  EXPECT_EQ(stats.cold_pageins, 2 * compressed_sides);

  // Top-k needs decoded views, so it still goes through the cache.
  const std::vector<Vertex> candidates = {1, 2, static_cast<Vertex>(n - 1)};
  std::vector<RankedCandidate> ranked;
  ASSERT_EQ(engine.value().TopKEx(0, candidates, 2.0f, 2, &ranked),
            ServeOutcome::kOk);
  EXPECT_GT(engine.value().Stats().decode_misses, 0u);
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(manifest.c_str());
}

// ---- decoded-label cache ----

TEST(DecodedLabelCache, HitsAfterFirstDecode) {
  WcIndex index = BuildFinalizedIndex(60, 150, 3);
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  DecodedLabelCache cache(4 << 20);
  DecodedLabel out;
  ASSERT_TRUE(cache.GetOrDecode(compressed, 5, 5, &out));
  ASSERT_TRUE(cache.GetOrDecode(compressed, 5, 5, &out));
  DecodeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  // Heap-backed set: no cold page-ins.
  EXPECT_EQ(stats.cold_pageins, 0u);
  // The cached copy matches a direct decode.
  DecodedLabel direct;
  ASSERT_TRUE(compressed.DecodeVertex(5, &direct).ok());
  EXPECT_EQ(out.entries.size(), direct.entries.size());
  EXPECT_TRUE(std::equal(out.entries.begin(), out.entries.end(),
                         direct.entries.begin()));
}

TEST(DecodedLabelCache, ColdPageinsCountExternalDecodes) {
  WcIndex index = BuildFinalizedIndex(60, 150, 3);
  std::string path = TempPath("cf_cold.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(path, compress).ok());
  auto mm = WcIndex::LoadMmap(path);
  ASSERT_TRUE(mm.ok());
  ASSERT_TRUE(mm.value().compressed_labels().external());
  DecodedLabelCache cache(4 << 20);
  DecodedLabel out;
  ASSERT_TRUE(cache.GetOrDecode(mm.value().compressed_labels(), 3, 3, &out));
  ASSERT_TRUE(cache.GetOrDecode(mm.value().compressed_labels(), 3, 3, &out));
  EXPECT_EQ(cache.stats().cold_pageins, 1u);  // miss paged in; hit did not
  std::remove(path.c_str());
}

// The cache must respect its byte budget: stream many distinct vertices
// through a tiny cache and check the resident mass never exceeds the
// budget (second-chance eviction keeps it bounded, admission tags keep
// one-touch scans from churning it).
TEST(DecodedLabelCache, BudgetBounded) {
  WcIndex index = BuildFinalizedIndex(300, 800, 19);
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  const size_t budget = 64 << 10;
  DecodedLabelCache cache(budget);
  DecodedLabel out;
  for (int round = 0; round < 3; ++round) {
    for (Vertex v = 0; v < compressed.NumVertices(); ++v) {
      ASSERT_TRUE(cache.GetOrDecode(compressed, v, v, &out));
      ASSERT_LE(cache.MemoryBytes(), budget);
    }
  }
  DecodeCacheStats stats = cache.stats();
  // The scan's one-touch keys must have been refused admission at least
  // once (the cache is far smaller than the label mass).
  EXPECT_GT(stats.admission_rejects, 0u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

TEST(DecodedLabelCache, ConcurrentReadersStayCoherent) {
  WcIndex index = BuildFinalizedIndex(120, 320, 23);
  CompressedFlatLabelSet compressed =
      CompressedFlatLabelSet::FromFlat(index.flat_labels());
  const FlatLabelSet& flat = index.flat_labels();
  DecodedLabelCache cache(1 << 20);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(100 + static_cast<uint64_t>(t));
      DecodedLabel out;
      for (int i = 0; i < 4000; ++i) {
        Vertex v =
            static_cast<Vertex>(rng.NextBounded(compressed.NumVertices()));
        if (!cache.GetOrDecode(compressed, v, v, &out)) {
          failed = true;
          return;
        }
        auto expected = flat.View(v);
        if (out.entries.size() != expected.entries.size() ||
            !std::equal(out.entries.begin(), out.entries.end(),
                        expected.entries.begin())) {
          failed = true;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
}

// ---- engine integration ----

TEST(CompressedFlat, QueryEngineServesCompressedWithAndWithoutCache) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("cf_engine.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(path, compress).ok());

  for (size_t cache_bytes : {size_t{0}, size_t{8} << 20}) {
    QueryEngineOptions options;
    options.num_threads = 1;
    options.decode_cache_bytes = cache_bytes;
    auto engine = QueryEngine::Open(path, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(engine.value().decode_cache() != nullptr, cache_bytes > 0);

    // Distance queries stream both varint labels with or without a decode
    // cache: answers match the flat index, the cache is never consulted,
    // and each non-degenerate query walks two mmap-backed labels.
    Rng rng(6);
    std::vector<BatchQueryInput> batch;
    uint64_t streamed = 0;
    for (int i = 0; i < 800; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(index.NumVertices()));
      Vertex t = static_cast<Vertex>(rng.NextBounded(index.NumVertices()));
      Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
      ASSERT_EQ(engine.value().Query(s, t, w), index.Query(s, t, w))
          << "cache=" << cache_bytes << " s=" << s << " t=" << t;
      batch.push_back({s, t, w});
      if (s != t) ++streamed;
    }
    ASSERT_GT(streamed, 0u);
    const std::vector<Distance> answers = engine.value().Batch(batch);
    ASSERT_EQ(answers.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(answers[i], index.Query(batch[i].s, batch[i].t, batch[i].w))
          << "cache=" << cache_bytes << " batch query " << i;
    }
    QueryEngineStats stats = engine.value().Stats();
    EXPECT_TRUE(stats.compressed);
    EXPECT_GT(stats.uncompressed_label_bytes, stats.label_bytes);
    EXPECT_EQ(stats.decode_hits + stats.decode_misses, 0u)
        << "cache=" << cache_bytes;
    // Query and Batch each streamed every non-degenerate pair once.
    EXPECT_EQ(stats.cold_pageins, 2 * 2 * streamed) << "cache=" << cache_bytes;

    // Top-k and profiles need decoded views: they go through the cache
    // when one is configured, and every decode that walks the mapping
    // (a cache miss, or any decode without a cache) is a cold page-in.
    const std::vector<Vertex> candidates = {1, 2, 3, 5, 8, 13, 21, 34};
    const std::vector<Quality> thresholds = {1.0f, 3.0f, 5.0f};
    std::vector<RankedCandidate> ranked;
    std::vector<ProfilePoint> profile;
    for (int round = 0; round < 2; ++round) {
      ASSERT_EQ(engine.value().TopKEx(0, candidates, 2.0f, 3, &ranked),
                ServeOutcome::kOk);
      ASSERT_EQ(engine.value().ProfileEx(4, 9, thresholds, &profile),
                ServeOutcome::kOk);
    }
    const QueryEngineStats after = engine.value().Stats();
    EXPECT_GT(after.cold_pageins, stats.cold_pageins);
    if (cache_bytes > 0) {
      EXPECT_GT(after.decode_hits, 0u);  // the second round hits
      EXPECT_GT(after.decode_misses, 0u);
      EXPECT_EQ(after.cold_pageins - stats.cold_pageins, after.decode_misses);
    } else {
      EXPECT_EQ(after.decode_hits + after.decode_misses, 0u);
    }
  }
  std::remove(path.c_str());
}

TEST(CompressedFlat, TopKAndProfileMatchAcrossBackends) {
  WcIndex index = BuildFinalizedIndex();
  std::string flat_path = TempPath("cf_tk_flat.wcsnap");
  std::string comp_path = TempPath("cf_tk_comp.wcsnap");
  SnapshotWriteOptions compress;
  compress.compress = true;
  ASSERT_TRUE(index.SaveSnapshot(flat_path).ok());
  ASSERT_TRUE(index.SaveSnapshot(comp_path, compress).ok());

  QueryEngineOptions options;
  options.num_threads = 1;
  options.decode_cache_bytes = 4 << 20;
  auto flat_engine = QueryEngine::Open(flat_path);
  auto comp_engine = QueryEngine::Open(comp_path, options);
  ASSERT_TRUE(flat_engine.ok() && comp_engine.ok());

  Rng rng(44);
  size_t n = index.NumVertices();
  for (int i = 0; i < 50; ++i) {
    Vertex source = static_cast<Vertex>(rng.NextBounded(n));
    std::vector<Vertex> candidates;
    for (int c = 0; c < 20; ++c) {
      candidates.push_back(static_cast<Vertex>(rng.NextBounded(n)));
    }
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    std::vector<RankedCandidate> a, b;
    ASSERT_EQ(flat_engine.value().TopKEx(source, candidates, w, 5, &a),
              ServeOutcome::kOk);
    ASSERT_EQ(comp_engine.value().TopKEx(source, candidates, w, 5, &b),
              ServeOutcome::kOk);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j].vertex, b[j].vertex);
      ASSERT_EQ(a[j].dist, b[j].dist);
    }
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    std::vector<Quality> thresholds = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
    std::vector<ProfilePoint> pa, pb;
    ASSERT_EQ(flat_engine.value().ProfileEx(s, t, thresholds, &pa),
              ServeOutcome::kOk);
    ASSERT_EQ(comp_engine.value().ProfileEx(s, t, thresholds, &pb),
              ServeOutcome::kOk);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t j = 0; j < pa.size(); ++j) {
      ASSERT_EQ(pa[j].dist, pb[j].dist);
      ASSERT_EQ(pa[j].quality, pb[j].quality);
    }
  }
  std::remove(flat_path.c_str());
  std::remove(comp_path.c_str());
}

}  // namespace
}  // namespace wcsd

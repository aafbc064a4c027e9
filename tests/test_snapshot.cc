// Snapshot format tests: mmap round trips, shard slicing, and the negative
// paths — truncation, bad magic, wrong version, header and section
// corruption must all fail with a clean Status, never a crash or a silent
// wrong answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/batch.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/query.h"
#include "labeling/snapshot.h"
#include "paper_fixtures.h"
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

WcIndex BuildFinalizedIndex() {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(150, 400, quality, 11);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  index.Finalize();
  return index;
}

TEST(Snapshot, MmapRoundTripIsBitIdentical) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("round.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());

  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto loaded = WcIndex::LoadMmap(path, verify);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const WcIndex& mm = loaded.value();

  EXPECT_TRUE(mm.finalized());
  EXPECT_TRUE(mm.flat_labels().external());
  EXPECT_EQ(mm.NumVertices(), index.NumVertices());
  EXPECT_EQ(mm.TotalEntries(), index.TotalEntries());
  EXPECT_EQ(mm.flat_labels(), index.flat_labels());
  EXPECT_EQ(mm.order().by_rank(), index.order().by_rank());

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
  }
  std::remove(path.c_str());
}

TEST(Snapshot, SurvivesSourceIndexDestruction) {
  std::string path = TempPath("lifetime.wcsnap");
  {
    WcIndex index = BuildFinalizedIndex();
    ASSERT_TRUE(index.SaveSnapshot(path).ok());
  }
  auto loaded = WcIndex::LoadMmap(path);
  ASSERT_TRUE(loaded.ok());
  // Copy the index; the copy must keep the mapping alive on its own.
  WcIndex copy = loaded.value();
  EXPECT_GT(copy.TotalEntries(), 0u);
  EXPECT_NE(copy.Query(0, 1, 1.0f), kInfDistance + 1);  // exercises a read
  std::remove(path.c_str());
}

TEST(Snapshot, SaveRequiresFinalize) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  Status st = index.SaveSnapshot(TempPath("unfinalized.wcsnap"));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(Snapshot, LabelOnlySnapshotLoadsButNotAsWcIndex) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("label_only.wcsnap");
  ASSERT_TRUE(WriteSnapshot(path, index.flat_labels(), nullptr).ok());

  auto snapshot = LoadSnapshotMmap(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_FALSE(snapshot.value().info.has_order);
  EXPECT_EQ(snapshot.value().labels, index.flat_labels());

  auto as_index = WcIndex::LoadMmap(path);
  EXPECT_FALSE(as_index.ok());
  EXPECT_EQ(as_index.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Snapshot, EmptyIndexRoundTrips) {
  WcIndex index = WcIndex::Build(QualityGraph());
  index.Finalize();
  std::string path = TempPath("empty.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  auto loaded = WcIndex::LoadMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().NumVertices(), 0u);
  EXPECT_EQ(loaded.value().Query(0, 1, 1.0f), kInfDistance);
  std::remove(path.c_str());
}

TEST(Snapshot, MissingFileIsIoError) {
  auto loaded = WcIndex::LoadMmap("/does/not/exist.wcsnap");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(Snapshot, TruncationRejectedAtEveryLevel) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("trunc.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 8192u);

  // Mid-header, just past the header page, and mid-section.
  for (size_t keep : {size_t{100}, size_t{4096}, bytes.size() / 2}) {
    std::string t = TempPath("trunc_cut.wcsnap");
    WriteFileBytes(t, bytes.substr(0, keep));
    auto loaded = WcIndex::LoadMmap(t);
    EXPECT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    std::remove(t.c_str());
  }
  std::remove(path.c_str());
}

TEST(Snapshot, BadMagicRejected) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("magic.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[0] ^= 0x5A;
  WriteFileBytes(path, bytes);
  auto loaded = WcIndex::LoadMmap(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Snapshot, WrongVersionRejected) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("version.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  // The u32 version sits right after the u64 magic.
  bytes[8] = 99;
  WriteFileBytes(path, bytes);
  auto loaded = WcIndex::LoadMmap(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Snapshot, HeaderCorruptionCaughtByChecksum) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("header_corrupt.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[40] ^= 0xFF;  // inside the vertex-range fields / section table
  WriteFileBytes(path, bytes);
  auto loaded = WcIndex::LoadMmap(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Snapshot, SectionCorruptionCaughtUnderVerify) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("section_corrupt.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  // Flip one byte deep inside the section payloads (past the header page
  // and the order/offsets sections).
  bytes[bytes.size() - 64] ^= 0x01;
  WriteFileBytes(path, bytes);

  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  auto checked = WcIndex::LoadMmap(path, verify);
  EXPECT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kCorruption);
  EXPECT_NE(checked.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

// The middle validation tier: a corrupted hub-directory `begin` — the
// field query kernels index entry slices with — must be caught by
// verify_level = kDirectory (and kDeep), while the default O(vertices)
// load, which never reads group pages, still maps the file. This is the
// crash window the tier exists to close.
TEST(Snapshot, GroupCorruptionCaughtAtDirectoryLevel) {
  WcIndex index = BuildFinalizedIndex();
  ASSERT_GT(index.flat_labels().raw_groups().size(), 0u);
  std::string path = TempPath("group_corrupt.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  // The groups section is written last, so the file's final 8 bytes are
  // the last HubGroup and its trailing u32 is that group's `begin`. Point
  // it far outside any entry slice.
  for (size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(0xFF);
  }
  WriteFileBytes(path, bytes);

  // Default load trusts group payloads and succeeds.
  auto trusting = WcIndex::LoadMmap(path);
  EXPECT_TRUE(trusting.ok()) << trusting.status().ToString();

  SnapshotLoadOptions directory;
  directory.verify_level = SnapshotVerifyLevel::kDirectory;
  auto checked = WcIndex::LoadMmap(path, directory);
  EXPECT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kCorruption);
  EXPECT_NE(checked.status().message().find("hub directory"),
            std::string::npos);

  SnapshotLoadOptions deep;
  deep.verify_level = SnapshotVerifyLevel::kDeep;
  EXPECT_FALSE(WcIndex::LoadMmap(path, deep).ok());
  std::remove(path.c_str());
}

// No load tier bounds hub ranks, so the serving kernels must: a rank at or
// beyond num_vertices_total matches nothing and is never used as a
// hub-table index. Four vertices get one in their last hub group,
// directory and entries alike, which keeps the directory ascending: two
// share the rank n itself and two a rank far past it, so a kernel without
// the bound would match each pair (or read past the table). Every query
// must answer as if those groups were absent.
TEST(Snapshot, OutOfRangeHubRankMatchesNothing) {
  WcIndex index = BuildFinalizedIndex();
  const uint64_t n = index.NumVertices();
  const Vertex picked[] = {3, 17, 42, 99};
  const Rank bad_ranks[] = {static_cast<Rank>(n), static_cast<Rank>(n),
                            0xFFFFFFF0u, 0xFFFFFFF0u};
  LabelSet corrupt = index.labels();
  LabelSet stripped = index.labels();
  for (size_t i = 0; i < 4; ++i) {
    std::vector<LabelEntry>* entries = corrupt.Mutable(picked[i]);
    const Rank last = entries->back().hub;
    for (LabelEntry& e : *entries) {
      if (e.hub == last) e.hub = bad_ranks[i];
    }
    std::vector<LabelEntry>* kept = stripped.Mutable(picked[i]);
    kept->erase(std::remove_if(kept->begin(), kept->end(),
                               [last](const LabelEntry& e) {
                                 return e.hub == last;
                               }),
                kept->end());
  }
  std::string path = TempPath("rank_corrupt.wcsnap");
  ASSERT_TRUE(WriteSnapshot(path, FlatLabelSet::FromLabelSet(corrupt),
                            &index.order())
                  .ok());

  const Vertex endpoints[] = {3, 17, 42, 99, 0, 64, 149};
  const std::vector<Vertex> candidates(std::begin(endpoints),
                                       std::end(endpoints));
  const std::vector<Quality> thresholds{1.0f, 3.0f, 5.0f};
  for (SnapshotVerifyLevel level :
       {SnapshotVerifyLevel::kOffsets, SnapshotVerifyLevel::kDirectory,
        SnapshotVerifyLevel::kDeep}) {
    SnapshotLoadOptions load;
    load.verify_level = level;
    auto loaded = WcIndex::LoadMmap(path, load);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const WcIndex& served = loaded.value();
    QueryEngineOptions cached;
    cached.num_threads = 1;
    cached.cache_bytes = 16 << 10;  // misses go through the interval kernel
    auto engine = QueryEngine::Open(path, cached, load);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    for (Quality w : thresholds) {
      for (Vertex s : endpoints) {
        std::vector<RankedCandidate> ranked;
        for (Vertex t : endpoints) {
          SCOPED_TRACE(testing::Message()
                       << "level=" << static_cast<int>(level) << " s=" << s
                       << " t=" << t << " w=" << w);
          const Distance want =
              s == t ? 0 : QueryLabels(stripped.For(s), stripped.For(t), w);
          if (want != kInfDistance) ranked.push_back({t, want});
          if (s == t) continue;
          EXPECT_EQ(served.Query(s, t, w), want);
          EXPECT_EQ(engine.value().Query(s, t, w), want);
          const HubQueryResult hub = served.QueryWithHub(s, t, w);
          const HubQueryResult want_hub =
              QueryLabelsWithHub(stripped.For(s), stripped.For(t), w);
          EXPECT_EQ(hub.dist, want_hub.dist);
          EXPECT_EQ(hub.via_hub, want_hub.via_hub);
          EXPECT_EQ(hub.dist_from_s, want_hub.dist_from_s);
          EXPECT_EQ(hub.dist_to_t, want_hub.dist_to_t);
          EXPECT_EQ(served.QueryWithInterval(s, t, w),
                    QueryLabelsWithInterval(stripped.For(s),
                                            stripped.For(t), w));
          std::vector<ProfilePoint> profile;
          ASSERT_EQ(engine.value().ProfileEx(s, t, thresholds, &profile),
                    ServeOutcome::kOk);
          for (const ProfilePoint& p : profile) {
            EXPECT_EQ(p.dist, QueryLabels(stripped.For(s), stripped.For(t),
                                          p.quality));
          }
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const RankedCandidate& a, const RankedCandidate& b) {
                    return a.dist != b.dist ? a.dist < b.dist
                                            : a.vertex < b.vertex;
                  });
        std::vector<RankedCandidate> engine_ranked;
        ASSERT_EQ(engine.value().TopKEx(s, candidates, w, candidates.size(),
                                        &engine_ranked),
                  ServeOutcome::kOk);
        for (const std::vector<RankedCandidate>& got :
             {TopKClosest(served, s, candidates, w, candidates.size()),
              engine_ranked}) {
          ASSERT_EQ(got.size(), ranked.size()) << "s=" << s << " w=" << w;
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].vertex, ranked[i].vertex) << "rank " << i;
            EXPECT_EQ(got[i].dist, ranked[i].dist) << "rank " << i;
          }
        }
      }
    }
  }
  std::remove(path.c_str());
}

// An uncorrupted snapshot must pass every verification tier (the middle
// tier cannot produce false positives on writer output).
TEST(Snapshot, AllVerifyLevelsAcceptAWellFormedSnapshot) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("levels_ok.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  for (SnapshotVerifyLevel level :
       {SnapshotVerifyLevel::kOffsets, SnapshotVerifyLevel::kDirectory,
        SnapshotVerifyLevel::kDeep}) {
    SnapshotLoadOptions options;
    options.verify_level = level;
    auto loaded = WcIndex::LoadMmap(path, options);
    ASSERT_TRUE(loaded.ok())
        << "level " << static_cast<int>(level) << ": "
        << loaded.status().ToString();
    EXPECT_EQ(loaded.value().TotalEntries(), index.TotalEntries());
  }
  std::remove(path.c_str());
}

// Unsorted hub ranks inside one vertex's directory are also a
// directory-tier catch (the kernels binary-search groups by rank).
TEST(Snapshot, UnsortedHubDirectoryCaughtAtDirectoryLevel) {
  WcIndex index = BuildFinalizedIndex();
  // Find a vertex with >= 2 hub groups and swap its first two directory
  // records in the file image (the groups section is the file's tail).
  const FlatLabelSet& flat = index.flat_labels();
  auto group_offsets = flat.raw_group_offsets();
  size_t vertex_group_begin = 0;
  bool found = false;
  for (Vertex v = 0; v < flat.NumVertices(); ++v) {
    if (group_offsets[v + 1] - group_offsets[v] >= 2) {
      vertex_group_begin = group_offsets[v];
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "fixture has no multi-group vertex";
  std::string path = TempPath("group_unsorted.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  const size_t groups_bytes = flat.raw_groups().size() * sizeof(HubGroup);
  const size_t section_start = bytes.size() - groups_bytes;
  const size_t at = section_start + vertex_group_begin * sizeof(HubGroup);
  // Swap the two 4-byte hub ranks (fields 0 of records 0 and 1), keeping
  // the begins intact: ranks now descend.
  std::swap_ranges(bytes.begin() + static_cast<ptrdiff_t>(at),
                   bytes.begin() + static_cast<ptrdiff_t>(at + 4),
                   bytes.begin() + static_cast<ptrdiff_t>(at + 8));
  WriteFileBytes(path, bytes);

  SnapshotLoadOptions directory;
  directory.verify_level = SnapshotVerifyLevel::kDirectory;
  auto checked = WcIndex::LoadMmap(path, directory);
  EXPECT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(Snapshot, ReadInfoReportsHeaderFields) {
  WcIndex index = BuildFinalizedIndex();
  std::string path = TempPath("info.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // Writers emit the smallest version that can carry the payload: a
  // parent-less index stays on v1 so pre-v6 readers keep loading it.
  EXPECT_EQ(info.value().version, 1u);
  EXPECT_FALSE(info.value().has_parents);
  EXPECT_EQ(info.value().num_vertices_total, index.NumVertices());
  EXPECT_TRUE(info.value().IsFullRange());
  EXPECT_TRUE(info.value().has_order);
  std::remove(path.c_str());
}

TEST(Snapshot, ShardFilesSliceTheIndex) {
  WcIndex index = BuildFinalizedIndex();
  const uint64_t n = index.NumVertices();
  std::string path = TempPath("one_shard.wcsnap");
  ASSERT_TRUE(
      WriteSnapshotShard(path, index.flat_labels(), 40, 110, n).ok());
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto shard = LoadSnapshotMmap(path, verify);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  EXPECT_EQ(shard.value().info.vertex_begin, 40u);
  EXPECT_EQ(shard.value().info.vertex_end, 110u);
  EXPECT_EQ(shard.value().info.num_vertices_total, n);
  EXPECT_FALSE(shard.value().info.IsFullRange());
  EXPECT_EQ(shard.value().labels.NumVertices(), 70u);
  for (Vertex v = 40; v < 110; ++v) {
    auto expected = index.flat_labels().For(v);
    auto got = shard.value().labels.For(v - 40);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), got.begin(),
                           got.end()))
        << "vertex " << v;
  }
  std::remove(path.c_str());
}

TEST(Snapshot, ShardWriterRejectsBadRanges) {
  WcIndex index = BuildFinalizedIndex();
  const uint64_t n = index.NumVertices();
  std::string path = TempPath("bad_shard.wcsnap");
  EXPECT_FALSE(
      WriteSnapshotShard(path, index.flat_labels(), 10, 5, n).ok());
  EXPECT_FALSE(
      WriteSnapshotShard(path, index.flat_labels(), 0, n + 1, n).ok());
  EXPECT_FALSE(
      WriteSnapshotShard(path, index.flat_labels(), 0, n, n + 7).ok());
}

// ------------------------------------------ v2 parents section (§V quads)

WcIndex BuildFinalizedIndexWithParents() {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(120, 320, quality, 17);
  WcIndexOptions options = WcIndexOptions::Plus();
  options.record_parents = true;
  WcIndex index = WcIndex::Build(g, options);
  index.Finalize();
  return index;
}

// The §V parent quads used to be silently dropped by SaveSnapshot; they
// must now survive the round trip entry-for-entry, as a CRC'd v2 section.
TEST(Snapshot, ParentsRoundTripThroughSnapshot) {
  WcIndex index = BuildFinalizedIndexWithParents();
  ASSERT_TRUE(index.has_parents());
  std::string path = TempPath("parents.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());

  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, 2u);
  EXPECT_TRUE(info.value().has_parents);

  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto loaded = WcIndex::LoadMmap(path, verify);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const WcIndex& mm = loaded.value();
  ASSERT_TRUE(mm.has_parents());
  for (Vertex v = 0; v < index.NumVertices(); ++v) {
    std::span<const Vertex> a = index.Parents(v);
    std::span<const Vertex> b = mm.Parents(v);
    ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "vertex " << v << " entry " << i;
    }
  }
  std::remove(path.c_str());
}

// A parent-less index writes a v1 file (smallest-version rule: old readers
// and checked-in goldens stay byte-compatible), and loading one reports
// the degraded parent-less mode explicitly instead of pretending.
TEST(Snapshot, ParentLessSnapshotIsV1AndReportsDegradedMode) {
  WcIndex index = BuildFinalizedIndex();  // record_parents off
  ASSERT_FALSE(index.has_parents());
  std::string path = TempPath("no_parents.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, 1u);
  EXPECT_FALSE(info.value().has_parents);
  auto loaded = WcIndex::LoadMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().has_parents());
  EXPECT_TRUE(loaded.value().Parents(0).empty());
  std::remove(path.c_str());
}

// Negative test against a real pre-v2 artifact: the checked-in Figure 3
// golden predates the parents section, and must load as explicit degraded
// mode — never an error, never phantom quads.
TEST(Snapshot, OldGoldenSnapshotLoadsWithoutParents) {
  std::string path =
      std::string(WCSD_TEST_DATA_DIR) + "/fig3_golden.wcsnap";
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, 1u);
  EXPECT_FALSE(info.value().has_parents);
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  auto loaded = WcIndex::LoadMmap(path, verify);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().has_parents());
}

// The parents section is checksummed like every other section: bit rot in
// the quads must fail a verify_checksums load, not corrupt routes.
TEST(Snapshot, ParentsCorruptionCaughtUnderVerify) {
  WcIndex index = BuildFinalizedIndexWithParents();
  std::string path = TempPath("parents_corrupt.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  // The parents section is written last in a v2 file, so the final bytes
  // are the last entries' parent vertices.
  bytes[bytes.size() - 2] ^= 0x01;
  WriteFileBytes(path, bytes);

  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  auto checked = WcIndex::LoadMmap(path, verify);
  EXPECT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wcsd

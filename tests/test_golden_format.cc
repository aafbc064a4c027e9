// Golden-file regression for the on-disk formats.
//
// tests/data holds a checked-in .wcsnap snapshot of the paper's Figure 3
// graph built with the identity order — a fully deterministic fixture.
// Loading it pins semantic compatibility (old files must keep producing
// the paper's answers), re-serializing and byte-comparing pins the writer
// (any accidental format change — field width, endianness, ordering,
// padding — fails here before it can corrupt anyone's saved indexes), and
// comparing it with a fresh build pins the Figure 3 labels themselves.
// Deliberate format changes must bump the version and regenerate the
// goldens (see tests/data/README.md).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/wc_index.h"
#include "labeling/snapshot.h"
#include "paper_fixtures.h"

namespace wcsd {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(WCSD_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void ExpectPaperAnswers(const WcIndex& index) {
  // Spot checks from the paper's Figure 3 worked example.
  EXPECT_EQ(index.TotalEntries(), 32u);
  EXPECT_EQ(index.Query(2, 5, 2.0f), 2u);
  QualityGraph g = MakeFigure3Graph();
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      EXPECT_EQ(index.Query(s, t, 1.0f), index.Query(t, s, 1.0f));
    }
  }
}

TEST(GoldenFormat, SnapshotLoadsAndAnswers) {
  SnapshotLoadOptions verify;
  verify.verify_checksums = true;
  verify.verify_level = SnapshotVerifyLevel::kDeep;
  auto loaded = WcIndex::LoadMmap(GoldenPath("fig3_golden.wcsnap"), verify);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectPaperAnswers(loaded.value());
}

TEST(GoldenFormat, SnapshotWriterIsByteStable) {
  std::string golden = GoldenPath("fig3_golden.wcsnap");
  auto loaded = WcIndex::LoadMmap(golden);
  ASSERT_TRUE(loaded.ok());
  std::string resaved = testing::TempDir() + "/fig3_resave.wcsnap";
  ASSERT_TRUE(loaded.value().SaveSnapshot(resaved).ok());
  EXPECT_EQ(ReadFileBytes(resaved), ReadFileBytes(golden))
      << "the snapshot writer no longer produces the golden bytes — if the "
         "format changed deliberately, bump kSnapshotVersion and regenerate "
         "tests/data";
  std::remove(resaved.c_str());
}

TEST(GoldenFormat, GoldenMatchesFreshBuild) {
  QualityGraph g = MakeFigure3Graph();
  WcIndexOptions options;
  options.ordering = WcIndexOptions::Ordering::kIdentity;
  WcIndex fresh = WcIndex::Build(g, options);
  auto golden = WcIndex::LoadMmap(GoldenPath("fig3_golden.wcsnap"));
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  EXPECT_EQ(golden.value().flat_labels(), fresh.flat_labels());
  EXPECT_EQ(golden.value().order().by_rank(), fresh.order().by_rank());
}

}  // namespace
}  // namespace wcsd

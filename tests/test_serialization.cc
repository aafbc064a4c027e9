// Serialization tests: WcIndex (.wcx) round trips plus corruption
// handling.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/label_set.h"
#include "paper_fixtures.h"
#include "util/random.h"

namespace wcsd {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(WcIndexSerialization, RoundTripPreservesQueries) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(100, 260, quality, 3);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  std::string path = TempPath("index.bin");
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = WcIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value().TotalEntries(), index.TotalEntries());
  EXPECT_EQ(loaded.value().order().by_rank(), index.order().by_rank());
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(100));
    Vertex t = static_cast<Vertex>(rng.NextBounded(100));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    ASSERT_EQ(loaded.value().Query(s, t, w), index.Query(s, t, w));
  }
  std::remove(path.c_str());
}

TEST(WcIndexSerialization, PaperExampleRoundTrip) {
  QualityGraph g = MakeFigure3Graph();
  WcIndexOptions options;
  options.ordering = WcIndexOptions::Ordering::kIdentity;
  WcIndex index = WcIndex::Build(g, options);
  std::string path = TempPath("fig3_index.bin");
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = WcIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().Query(2, 5, 2.0f), 2u);
  EXPECT_EQ(loaded.value().TotalEntries(), 32u);
  std::remove(path.c_str());
}

TEST(WcIndexSerialization, TruncatedFileRejected) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  std::string path = TempPath("trunc_index.bin");
  ASSERT_TRUE(index.Save(path).ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size() - 8));
  }
  auto loaded = WcIndex::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(WcIndexSerialization, MissingFileIsIoError) {
  auto loaded = WcIndex::Load("/does/not/exist.bin");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// A corrupted count field must fail with Corruption before any allocation
// is attempted — not crash with std::bad_alloc.
TEST(WcIndexSerialization, AbsurdVertexCountRejectedCleanly) {
  std::string path = TempPath("huge_n.bin");
  {
    std::ofstream out(path, std::ios::binary);
    uint64_t magic = 0x57435344'494e4458ULL;  // kIndexMagic
    uint64_t n = uint64_t{1} << 60;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  }
  auto loaded = WcIndex::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(WcIndexSerialization, AbsurdLabelCountRejectedCleanly) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  std::string path = TempPath("huge_count.bin");
  ASSERT_TRUE(index.Save(path).ok());
  {
    // Overwrite vertex 0's entry count (right after the header and the
    // n * u32 order block) with an absurd value.
    std::fstream patch(path,
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(static_cast<std::streamoff>(
        sizeof(uint64_t) * 2 + index.NumVertices() * sizeof(Vertex)));
    uint64_t count = uint64_t{1} << 59;
    patch.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  auto loaded = WcIndex::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wcsd

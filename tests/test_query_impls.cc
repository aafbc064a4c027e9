// Query-implementation tests (§IV.A, §IV.C): the four algorithms must
// return identical answers, FirstWithQuality must honor Theorem 3, and the
// hub-reporting variant must be consistent with the plain query.

#include <gtest/gtest.h>

#include <tuple>

#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/query.h"
#include "paper_fixtures.h"
#include "util/random.h"

namespace wcsd {
namespace {

TEST(FirstWithQualityTest, BinarySearchSemantics) {
  std::vector<LabelEntry> entries{
      {7, 1, 1.0f}, {7, 2, 3.0f}, {7, 4, 5.0f}, {7, 9, 9.0f}};
  std::span<const LabelEntry> span{entries.data(), entries.size()};
  EXPECT_EQ(FirstWithQuality(span, 0, 4, 0.5f), 0u);
  EXPECT_EQ(FirstWithQuality(span, 0, 4, 1.0f), 0u);
  EXPECT_EQ(FirstWithQuality(span, 0, 4, 2.0f), 1u);
  EXPECT_EQ(FirstWithQuality(span, 0, 4, 5.0f), 2u);
  EXPECT_EQ(FirstWithQuality(span, 0, 4, 9.5f), 4u);  // none
  // Sub-range variant.
  EXPECT_EQ(FirstWithQuality(span, 1, 3, 4.0f), 2u);
}

TEST(QueryImplsTest, EmptyLabelsAreInf) {
  std::vector<LabelEntry> empty;
  std::vector<LabelEntry> some{{0, 1, 2.0f}};
  std::span<const LabelEntry> e{empty.data(), empty.size()};
  std::span<const LabelEntry> s{some.data(), some.size()};
  for (QueryImpl impl : {QueryImpl::kScan, QueryImpl::kHubGrouped,
                         QueryImpl::kBinary, QueryImpl::kMerge}) {
    EXPECT_EQ(QueryLabels(e, s, 1.0f, impl), kInfDistance);
    EXPECT_EQ(QueryLabels(s, e, 1.0f, impl), kInfDistance);
    EXPECT_EQ(QueryLabels(e, e, 1.0f, impl), kInfDistance);
  }
}

TEST(QueryImplsTest, HandConstructedLabels) {
  // L(s): hub 0 at (2, q3); hub 2 at (1, q1), (3, q4).
  std::vector<LabelEntry> ls{{0, 2, 3.0f}, {2, 1, 1.0f}, {2, 3, 4.0f}};
  // L(t): hub 0 at (1, q2); hub 2 at (2, q4); hub 5 at (1, q9).
  std::vector<LabelEntry> lt{{0, 1, 2.0f}, {2, 2, 4.0f}, {5, 1, 9.0f}};
  std::span<const LabelEntry> s{ls.data(), ls.size()};
  std::span<const LabelEntry> t{lt.data(), lt.size()};
  for (QueryImpl impl : {QueryImpl::kScan, QueryImpl::kHubGrouped,
                         QueryImpl::kBinary, QueryImpl::kMerge}) {
    EXPECT_EQ(QueryLabels(s, t, 1.0f, impl), 3u);  // hub 0: 2+1 or hub 2: 1+2
    EXPECT_EQ(QueryLabels(s, t, 2.0f, impl), 3u);  // hub 0 still valid
    EXPECT_EQ(QueryLabels(s, t, 4.0f, impl), 5u);  // only hub 2: 3+2
    EXPECT_EQ(QueryLabels(s, t, 5.0f, impl), kInfDistance);
  }
}

TEST(QueryImplsTest, HubGroupedPrunesHighHubs) {
  // Hub 9 appears only in L(t); L(s)'s max hub is 3, so the group must be
  // skipped without affecting the result.
  std::vector<LabelEntry> ls{{3, 0, kInfQuality}};
  std::vector<LabelEntry> lt{{3, 2, 5.0f}, {9, 1, 9.0f}};
  std::span<const LabelEntry> s{ls.data(), ls.size()};
  std::span<const LabelEntry> t{lt.data(), lt.size()};
  EXPECT_EQ(QueryLabels(s, t, 1.0f, QueryImpl::kHubGrouped), 2u);
}

class QueryImplAgreementTest
    : public testing::TestWithParam<std::tuple<size_t, size_t, int, uint64_t>> {
};

TEST_P(QueryImplAgreementTest, AllFourAgreeOnRandomIndex) {
  auto [n, m, levels, seed] = GetParam();
  QualityModel quality;
  quality.num_levels = levels;
  QualityGraph g = GenerateRandomConnected(n, m, quality, seed);
  WcIndex index = WcIndex::Build(g);
  Rng rng(seed + 1);
  for (int i = 0; i < 300; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Quality w = static_cast<Quality>(rng.NextInRange(1, levels + 1));
    Distance merge = index.Query(s, t, w, QueryImpl::kMerge);
    EXPECT_EQ(index.Query(s, t, w, QueryImpl::kScan), merge);
    EXPECT_EQ(index.Query(s, t, w, QueryImpl::kHubGrouped), merge);
    EXPECT_EQ(index.Query(s, t, w, QueryImpl::kBinary), merge);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomIndexes, QueryImplAgreementTest,
    testing::Values(std::make_tuple(30, 60, 3, 1),
                    std::make_tuple(50, 100, 5, 2),
                    std::make_tuple(80, 240, 8, 3),
                    std::make_tuple(120, 300, 2, 4),
                    std::make_tuple(60, 400, 12, 5)));

TEST(QueryWithHubTest, ConsistentWithPlainQuery) {
  QualityModel quality;
  quality.num_levels = 5;
  QualityGraph g = GenerateRandomConnected(70, 180, quality, 7);
  WcIndex index = WcIndex::Build(g);
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(70));
    Vertex t = static_cast<Vertex>(rng.NextBounded(70));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 6));
    HubQueryResult r = index.QueryWithHub(s, t, w);
    EXPECT_EQ(r.dist, index.Query(s, t, w));
    if (r.dist != kInfDistance && s != t) {
      EXPECT_EQ(r.dist_from_s + r.dist_to_t, r.dist);
      // The hub is a real vertex rank.
      EXPECT_LT(r.via_hub, g.NumVertices());
    }
  }
}

TEST(QueryWithHubTest, SelfQuery) {
  QualityGraph g = MakeFigure3Graph();
  WcIndex index = WcIndex::Build(g);
  HubQueryResult r = index.QueryWithHub(4, 4, 99.0f);
  EXPECT_EQ(r.dist, 0u);
  EXPECT_EQ(r.dist_from_s, 0u);
  EXPECT_EQ(r.dist_to_t, 0u);
}

}  // namespace
}  // namespace wcsd

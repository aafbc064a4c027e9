// Verifier self-tests: it must pass genuine indexes and flag planted
// violations of soundness, Theorem 3, and minimality.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/verifier.h"
#include "core/wc_index.h"
#include "graph/generators.h"
#include "labeling/label_set.h"
#include "labeling/snapshot.h"
#include "paper_fixtures.h"

namespace wcsd {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

QualityGraph SocialGraph() {
  QualityModel quality;
  quality.num_levels = 4;
  return GenerateBarabasiAlbert(120, 3, quality, 7);
}

TEST(VerifierTest, PassesGenuineIndex) {
  QualityModel quality;
  quality.num_levels = 4;
  QualityGraph g = GenerateRandomConnected(40, 90, quality, 3);
  WcIndex index = WcIndex::Build(g);
  VerificationReport report = VerifyAll(index, g);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.entries_checked, 0u);
  EXPECT_GT(report.pairs_checked, 0u);
}

TEST(VerifierTest, DetectsUnsoundEntry) {
  QualityGraph g = MakeFigure3Graph();
  // Claim dist^5(v0, v5) = 1 — no such path exists.
  LabelSet labels(6);
  labels.Append(5, {0, 1, 5.0f});
  VerificationReport report =
      VerifySoundness(labels, IdentityOrder(6), g, /*require_tight=*/false);
  EXPECT_EQ(report.soundness_violations, 1u);
}

TEST(VerifierTest, DetectsLooseEntryOnlyWhenTight) {
  QualityGraph g = MakeFigure3Graph();
  // dist^1(v0, v3) = 1, but the entry claims 2: sound yet not tight.
  LabelSet labels(6);
  labels.Append(3, {0, 2, 1.0f});
  VerificationReport loose =
      VerifySoundness(labels, IdentityOrder(6), g, /*require_tight=*/false);
  EXPECT_EQ(loose.soundness_violations, 0u);
  VerificationReport tight =
      VerifySoundness(labels, IdentityOrder(6), g, /*require_tight=*/true);
  EXPECT_EQ(tight.tightness_violations, 1u);
}

TEST(VerifierTest, DetectsBogusSelfEntry) {
  QualityGraph g = MakeFigure3Graph();
  LabelSet labels(6);
  labels.Append(2, {1, 3, kInfQuality});  // inf-quality non-self entry.
  VerificationReport report =
      VerifySoundness(labels, IdentityOrder(6), g, /*require_tight=*/false);
  EXPECT_EQ(report.soundness_violations, 1u);
}

TEST(VerifierTest, DetectsMonotonicityViolation) {
  LabelSet labels(2);
  // Same hub: rising distance with non-rising quality = dominated.
  labels.Append(1, {0, 1, 3.0f});
  labels.Append(1, {0, 2, 3.0f});
  VerificationReport report = VerifyMonotonicity(labels);
  EXPECT_EQ(report.monotonicity_violations, 1u);
  EXPECT_EQ(report.dominated_entries, 1u);
}

TEST(VerifierTest, AcceptsMonotoneGroups) {
  LabelSet labels(2);
  labels.Append(1, {0, 1, 1.0f});
  labels.Append(1, {0, 2, 2.0f});
  labels.Append(1, {3, 1, 5.0f});  // New hub group resets the chain.
  labels.Append(1, {3, 9, 9.0f});
  VerificationReport report = VerifyMonotonicity(labels);
  EXPECT_EQ(report.monotonicity_violations, 0u);
}

TEST(VerifierTest, DetectsUnnecessaryEntry) {
  // Build a correct index, then duplicate one entry through a synthetic
  // "slightly worse" twin that other hubs already cover.
  QualityGraph g = MakeFigure3Graph();
  WcIndexOptions options;
  options.ordering = WcIndexOptions::Ordering::kIdentity;
  WcIndex index = WcIndex::Build(g, options);
  VerificationReport clean = VerifyMinimality(index);
  EXPECT_EQ(clean.unnecessary_entries, 0u) << clean.Summary();
}

TEST(VerifierTest, CompletenessCatchesMissingCoverage) {
  // An index with only self entries cannot answer any s != t query.
  QualityGraph g = MakeFigure3Graph();
  WcIndexOptions options;
  options.ordering = WcIndexOptions::Ordering::kIdentity;
  WcIndex good = WcIndex::Build(g, options);
  VerificationReport report = VerifyCompleteness(good, g);
  EXPECT_EQ(report.completeness_violations, 0u);
}

// A mapped snapshot, flat or compressed, is checked through the labels it
// serves, as thoroughly as the index it was written from.
TEST(VerifierTest, ChecksTheEntriesASnapshotServes) {
  QualityGraph g = SocialGraph();
  WcIndex built = WcIndex::Build(g);
  VerificationReport expected = VerifyAll(built, g);
  ASSERT_TRUE(expected.ok()) << expected.Summary();
  ASSERT_GT(expected.entries_checked, 0u);
  for (bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "compressed" : "flat");
    const std::string path = TempPath("verifier_served.wcsnap");
    SnapshotWriteOptions write;
    write.compress = compress;
    ASSERT_TRUE(built.SaveSnapshot(path, write).ok());
    auto served = WcIndex::LoadMmap(path);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    VerificationReport report = VerifyAll(served.value(), g);
    EXPECT_TRUE(report.ok()) << report.Summary();
    EXPECT_EQ(report.entries_checked, expected.entries_checked);
    EXPECT_EQ(report.pairs_checked, expected.pairs_checked);
    std::remove(path.c_str());
  }
}

// VerifyAll reads every entry in more than one check but counts it once,
// on a built index and on its flat and compressed snapshots alike;
// VerifyMonotonicity alone still counts the entries it reads.
TEST(VerifierTest, CountsEachEntryOnce) {
  QualityGraph g = SocialGraph();
  WcIndex built = WcIndex::Build(g);
  EXPECT_EQ(VerifyAll(built, g).entries_checked, built.TotalEntries());
  EXPECT_EQ(VerifyMonotonicity(built.labels()).entries_checked,
            built.TotalEntries());
  for (bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "compressed" : "flat");
    const std::string path = TempPath("verifier_count.wcsnap");
    SnapshotWriteOptions write;
    write.compress = compress;
    ASSERT_TRUE(built.SaveSnapshot(path, write).ok());
    auto served = WcIndex::LoadMmap(path);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(VerifyAll(served.value(), g).entries_checked,
              served.value().TotalEntries());
    std::remove(path.c_str());
  }
}

TEST(VerifierTest, FlagsADominatedEntryInASnapshot) {
  QualityGraph g = SocialGraph();
  WcIndex built = WcIndex::Build(g);
  // Plant a twin one step longer behind some vertex's first entry: same
  // hub and quality, so the label stays sorted, but the twin is dominated.
  LabelSet labels = built.labels();
  Vertex v = 0;
  while (labels.For(v).size() < 2) ++v;
  std::vector<LabelEntry>* lv = labels.Mutable(v);
  LabelEntry twin = lv->front();
  ++twin.dist;
  lv->insert(lv->begin() + 1, twin);
  ASSERT_TRUE(FlatLabelSet::FromLabelSet(labels)
                  .Validate(ValidateLevel::kDeep)
                  .ok());
  const std::string path = TempPath("verifier_dominated.wcsnap");
  ASSERT_TRUE(WriteSnapshot(path, FlatLabelSet::FromLabelSet(labels),
                            &built.order())
                  .ok());
  auto served = WcIndex::LoadMmap(path);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  VerificationReport report = VerifyAll(served.value(), g);
  EXPECT_FALSE(report.ok()) << report.Summary();
  EXPECT_GE(report.dominated_entries, 1u) << report.Summary();
  std::remove(path.c_str());
}

TEST(VerifierTest, SummaryMentionsVerdict) {
  VerificationReport report;
  EXPECT_NE(report.Summary().find("[OK]"), std::string::npos);
  report.soundness_violations = 2;
  EXPECT_NE(report.Summary().find("[FAIL]"), std::string::npos);
}

}  // namespace
}  // namespace wcsd

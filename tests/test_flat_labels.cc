// FlatLabelSet: CSR packing round-trips, query-kernel equivalence with the
// vector backend, and a built WcIndex serving from its packed store.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/batch.h"
#include "core/wc_index.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "labeling/flat_label_set.h"
#include "labeling/label_store.h"
#include "labeling/query.h"
#include "search/constrained_dijkstra.h"
#include "serve/query_engine.h"
#include "util/random.h"

namespace wcsd {
namespace {

QualityGraph TestGraph(uint64_t seed) {
  QualityModel quality;
  quality.num_levels = 6;
  return GenerateRandomConnected(140, 420, quality, seed);
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(FlatLabelSet, RoundTripsThroughLabelSet) {
  WcIndex index = WcIndex::Build(TestGraph(7), WcIndexOptions::Plus());
  const LabelSet labels = index.labels();
  FlatLabelSet flat = FlatLabelSet::FromLabelSet(labels);
  EXPECT_EQ(flat.TotalEntries(), labels.TotalEntries());
  EXPECT_EQ(flat.NumVertices(), labels.NumVertices());
  EXPECT_EQ(flat.ToLabelSet(), labels);
  for (Vertex v = 0; v < flat.NumVertices(); ++v) {
    auto dense = labels.For(v);
    auto packed = flat.For(v);
    ASSERT_EQ(dense.size(), packed.size());
    for (size_t i = 0; i < dense.size(); ++i) EXPECT_EQ(dense[i], packed[i]);
  }
}

TEST(FlatLabelSet, HubDirectoryMatchesGroupStructure) {
  WcIndex index = WcIndex::Build(TestGraph(9), WcIndexOptions::Plus());
  FlatLabelSet flat = FlatLabelSet::FromLabelSet(index.labels());
  for (Vertex v = 0; v < flat.NumVertices(); ++v) {
    FlatLabelView view = flat.View(v);
    size_t entry = 0;
    for (size_t g = 0; g < view.groups.size(); ++g) {
      ASSERT_EQ(view.groups[g].begin, entry);
      size_t ge = view.GroupEnd(g);
      ASSERT_GT(ge, entry);
      for (size_t i = entry; i < ge; ++i) {
        EXPECT_EQ(view.entries[i].hub, view.groups[g].hub);
      }
      if (g > 0) {
        EXPECT_LT(view.groups[g - 1].hub, view.groups[g].hub);
      }
      entry = ge;
    }
    EXPECT_EQ(entry, view.entries.size());
  }
}

TEST(FlatLabelSet, EmptyAndSingleVertex) {
  FlatLabelSet empty = FlatLabelSet::FromLabelSet(LabelSet(0));
  EXPECT_EQ(empty.NumVertices(), 0u);
  EXPECT_EQ(empty.TotalEntries(), 0u);

  GraphBuilder b(1);
  WcIndex one = WcIndex::Build(b.Build());
  FlatLabelSet flat = FlatLabelSet::FromLabelSet(one.labels());
  EXPECT_EQ(flat.TotalEntries(), 1u);
  EXPECT_EQ(flat.View(0).groups.size(), 1u);
}

// Every flat kernel on (s, t, w) against Algorithm 5 over the same labels
// as entry spans: the four impls, the hub-table join behind QueryStores,
// QueryStoresWithHub and the flat interval, and MergeStores.
void ExpectKernelsAgree(const LabelSet& labels, const FlatLabelSet& flat,
                        const LabelStore& store, Vertex s, Vertex t,
                        Quality w) {
  SCOPED_TRACE(testing::Message() << "s=" << s << " t=" << t << " w=" << w
                                  << " n=" << flat.NumVertices());
  auto ls = labels.For(s);
  auto lt = labels.For(t);
  FlatLabelView fs = flat.View(s);
  FlatLabelView ft = flat.View(t);
  Distance expected = QueryLabels(ls, lt, w);
  EXPECT_EQ(QueryLabels(fs, ft, w, QueryImpl::kMerge), expected);
  EXPECT_EQ(QueryLabels(fs, ft, w, QueryImpl::kBinary), expected);
  EXPECT_EQ(QueryLabels(fs, ft, w, QueryImpl::kHubGrouped), expected);
  EXPECT_EQ(QueryLabels(fs, ft, w, QueryImpl::kScan), expected);
  EXPECT_EQ(QueryStores(store, s, store, t, w), expected);
  EXPECT_EQ(MergeStores(store, s, store, t, w), expected);
  HubQueryResult dense_hub = QueryLabelsWithHub(ls, lt, w);
  HubQueryResult flat_hub = QueryStoresWithHub(store, s, store, t, w);
  EXPECT_EQ(flat_hub.dist, dense_hub.dist);
  EXPECT_EQ(flat_hub.via_hub, dense_hub.via_hub);
  EXPECT_EQ(flat_hub.dist_from_s, dense_hub.dist_from_s);
  EXPECT_EQ(flat_hub.dist_to_t, dense_hub.dist_to_t);
  EXPECT_EQ(QueryLabelsWithInterval(fs, ft, w, flat.NumVertices()),
            QueryLabelsWithInterval(ls, lt, w));
}

TEST(FlatQueryKernels, AgreeWithVectorKernelsOnAllImpls) {
  QualityGraph g = TestGraph(13);
  const LabelSet labels = WcIndex::Build(g, WcIndexOptions::Plus()).labels();
  FlatLabelSet flat = FlatLabelSet::FromLabelSet(labels);
  const LabelStore store(flat, flat.NumVertices());
  Rng rng(29);
  const size_t n = g.NumVertices();
  for (int i = 0; i < 400; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Quality w = static_cast<Quality>(rng.NextInRange(0, 8)) +
                (rng.NextBool(0.3) ? 0.5f : 0.0f);
    ExpectKernelsAgree(labels, flat, store, s, t, w);
  }

  // One thread serving indexes of different vertex counts in turn: its hub
  // table grows to 2,000 ranks, then serves 40 again. Half the constraints
  // sit exactly at an entry quality of L(s) or L(t); constrained Dijkstra
  // pins the answers too.
  QualityModel quality;
  quality.num_levels = 6;
  for (size_t size : {size_t{40}, size_t{2000}, size_t{40}}) {
    QualityGraph sized = GenerateRandomConnected(size, 3 * size, quality,
                                                 size + 5);
    const LabelSet sized_labels =
        WcIndex::Build(sized, WcIndexOptions::Plus()).labels();
    FlatLabelSet sized_flat = FlatLabelSet::FromLabelSet(sized_labels);
    const LabelStore sized_store(sized_flat, size);
    for (int i = 0; i < 300; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(size));
      Vertex t = static_cast<Vertex>(rng.NextBounded(size));
      auto side = sized_labels.For(rng.NextBool(0.5) ? s : t);
      Quality w = rng.NextBool(0.5)
                      ? side[rng.NextBounded(side.size())].quality
                      : static_cast<Quality>(rng.NextInRange(0, 7));
      ExpectKernelsAgree(sized_labels, sized_flat, sized_store, s, t, w);
      EXPECT_EQ(QueryStores(sized_store, s, sized_store, t, w),
                s == t ? 0 : ConstrainedDijkstraUnit(sized, s, t, w))
          << "s=" << s << " t=" << t << " w=" << w << " n=" << size;
    }
  }

  // Hand-made labels: multi-entry hub groups, an empty label (vertex 2), a
  // pair with no common hub (0 and 3), and every constraint at, between and
  // beyond the entry qualities.
  LabelSet hand(5);
  for (const LabelEntry& e : {LabelEntry{0, 1, 1.0f}, LabelEntry{0, 3, 4.0f},
                              LabelEntry{2, 2, 2.0f}, LabelEntry{2, 5, 7.0f}}) {
    hand.Append(0, e);
  }
  for (const LabelEntry& e : {LabelEntry{0, 2, 2.0f}, LabelEntry{0, 4, 5.0f},
                              LabelEntry{2, 1, 7.0f},
                              LabelEntry{3, 0, kInfQuality}}) {
    hand.Append(1, e);
  }
  for (const LabelEntry& e : {LabelEntry{1, 1, 9.0f},
                              LabelEntry{4, 0, kInfQuality}}) {
    hand.Append(3, e);
  }
  for (const LabelEntry& e : {LabelEntry{1, 2, 3.0f}, LabelEntry{1, 6, 8.0f},
                              LabelEntry{4, 1, 6.0f}}) {
    hand.Append(4, e);
  }
  FlatLabelSet hand_flat = FlatLabelSet::FromLabelSet(hand);
  const LabelStore hand_store(hand_flat, 5);
  std::vector<Quality> constraints{-kInfQuality, kInfQuality};
  for (Vertex v = 0; v < 5; ++v) {
    for (const LabelEntry& e : hand.For(v)) {
      constraints.insert(constraints.end(),
                         {e.quality, e.quality - 0.5f, e.quality + 0.5f});
    }
  }
  for (Vertex s = 0; s < 5; ++s) {
    for (Vertex t = 0; t < 5; ++t) {
      for (Quality w : constraints) {
        ExpectKernelsAgree(hand, hand_flat, hand_store, s, t, w);
      }
    }
  }
  EXPECT_EQ(QueryStores(hand_store, 0, hand_store, 1, 2.0f), 3u);
  EXPECT_EQ(QueryStores(hand_store, 0, hand_store, 1, 4.0f), 6u);
  EXPECT_EQ(QueryStores(hand_store, 0, hand_store, 3, 1.0f), kInfDistance);
  EXPECT_EQ(QueryStores(hand_store, 2, hand_store, 1, 1.0f), kInfDistance);
}

TEST(WcIndexStore, FullPipelineBuildSaveLoadQuery) {
  // Build -> snapshot -> map -> query, with answers identical at every
  // stage.
  QualityGraph g = TestGraph(17);
  WcIndexOptions options = WcIndexOptions::Plus();
  options.num_threads = 4;
  WcIndex index = WcIndex::Build(g, options);
  WcIndex reference = WcIndex::Build(g, WcIndexOptions::Plus());

  EXPECT_EQ(index.flat_labels().ToLabelSet(), reference.labels());

  std::string path = TempPath("built_index.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  auto loaded = WcIndex::LoadMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().flat_labels(), index.flat_labels());

  Rng rng(31);
  const size_t n = g.NumVertices();
  for (int i = 0; i < 300; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Quality w = static_cast<Quality>(rng.NextInRange(1, 7));
    Distance expected = reference.Query(s, t, w);
    EXPECT_EQ(index.Query(s, t, w), expected);
    EXPECT_EQ(loaded.value().Query(s, t, w), expected);
    for (QueryImpl impl : {QueryImpl::kScan, QueryImpl::kHubGrouped,
                           QueryImpl::kBinary, QueryImpl::kMerge}) {
      EXPECT_EQ(index.Query(s, t, w, impl), expected);
    }
  }
  std::remove(path.c_str());
}

TEST(WcIndexStore, BatchQueryRunsOnFlatBackend) {
  QualityGraph g = TestGraph(19);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  auto shared = std::make_shared<const WcIndex>(index);
  Rng rng(37);
  std::vector<BatchQueryInput> queries;
  std::vector<Distance> expected;
  for (int i = 0; i < 500; ++i) {
    queries.push_back({static_cast<Vertex>(rng.NextBounded(g.NumVertices())),
                       static_cast<Vertex>(rng.NextBounded(g.NumVertices())),
                       static_cast<Quality>(rng.NextInRange(1, 7))});
    expected.push_back(
        index.Query(queries.back().s, queries.back().t, queries.back().w));
  }
  for (size_t threads : {1u, 4u}) {
    QueryEngineOptions options;
    options.num_threads = threads;
    EXPECT_EQ(QueryEngine(shared, options).Batch(queries), expected)
        << threads << " threads";
  }
}

TEST(WcIndexStore, MemoryBytesReportsFlatBackend) {
  WcIndex index = WcIndex::Build(TestGraph(23), WcIndexOptions::Plus());
  const size_t dense_bytes = index.labels().MemoryBytes();
  const size_t flat_bytes = index.MemoryBytes();
  EXPECT_GT(flat_bytes, 0u);
  // CSR drops the per-vertex vector header overhead; the hub directory is
  // smaller than that on every generated graph.
  EXPECT_LE(flat_bytes,
            dense_bytes + index.flat_labels().TotalEntries() * sizeof(HubGroup));
  EXPECT_EQ(index.flat_labels().MemoryBytes(), flat_bytes);
}

TEST(WcIndexGuards, OutOfRangeVerticesReturnInf) {
  QualityGraph g = TestGraph(41);
  WcIndex index = WcIndex::Build(g, WcIndexOptions::Plus());
  const Vertex n = static_cast<Vertex>(index.NumVertices());
  EXPECT_EQ(index.Query(n, 0, 1.0f), kInfDistance);
  EXPECT_EQ(index.Query(0, n + 5, 1.0f), kInfDistance);
  EXPECT_EQ(index.Query(kNullVertex, kNullVertex, 1.0f), kInfDistance);
  EXPECT_EQ(index.Query(n, 0, 1.0f, QueryImpl::kScan), kInfDistance);
  EXPECT_EQ(index.QueryWithHub(n, 0, 1.0f).dist, kInfDistance);
  EXPECT_FALSE(index.Reachable(n, 0, 1.0f));
  EXPECT_EQ(index.Query(n, 0, 1.0f), kInfDistance);
  EXPECT_EQ(index.Query(0, n, 1.0f, QueryImpl::kBinary), kInfDistance);

  // Empty index: any query is out of range.
  GraphBuilder b0(0);
  WcIndex empty = WcIndex::Build(b0.Build());
  EXPECT_EQ(empty.Query(0, 0, 1.0f), kInfDistance);
}

}  // namespace
}  // namespace wcsd

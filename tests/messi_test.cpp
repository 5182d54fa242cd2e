// Tests for MESSI: build equivalence across worker counts and buffer
// strategies (footnote-2 ablation), query correctness under varied queue
// counts, pruning statistics, and the iSAX buffer set.
#include "messi/messi_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "index/ads_index.h"
#include "io/generator.h"
#include "messi/isax_buffers.h"
#include "scan/ucr_scan.h"

namespace parisax {
namespace {

Dataset MakeData(size_t count = 4000, size_t length = 64,
                 uint64_t seed = 21) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = length;
  gen.seed = seed;
  return GenerateDataset(gen);
}

std::unique_ptr<InMemorySource> Mem(const Dataset& data) {
  return std::make_unique<InMemorySource>(&data);
}

MessiBuildOptions SmallBuild(int workers, bool locked = false) {
  MessiBuildOptions o;
  o.num_workers = workers;
  o.chunk_series = 256;
  o.locked_buffers = locked;
  o.tree.segments = 8;
  o.tree.leaf_capacity = 32;
  o.tree.series_length = 64;
  return o;
}

std::vector<SeriesId> AllIndexedIds(const SaxTree& tree) {
  std::vector<SeriesId> ids;
  tree.VisitLeaves(nullptr, [&](Node* leaf) {
    for (const LeafEntry& e : leaf->entries()) ids.push_back(e.id);
  });
  std::sort(ids.begin(), ids.end());
  return ids;
}

class MessiBuildConfigs
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(MessiBuildConfigs, IndexesEverySeriesExactlyOnce) {
  const auto [workers, locked] = GetParam();
  const Dataset data = MakeData();
  ThreadPool pool(workers);
  auto index = MessiIndex::Build(Mem(data), SmallBuild(workers, locked), &pool);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  EXPECT_TRUE((*index)->tree().CheckInvariants().ok());
  EXPECT_EQ((*index)->build_stats().tree.total_entries, data.count());
  const auto ids = AllIndexedIds((*index)->tree());
  ASSERT_EQ(ids.size(), data.count());
  for (SeriesId i = 0; i < data.count(); ++i) ASSERT_EQ(ids[i], i);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndBuffers, MessiBuildConfigs,
    ::testing::Combine(::testing::Values(1, 2, 4, 7),
                       ::testing::Bool()),
    [](const auto& info) {
      return "w" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_locked" : "_partitioned");
    });

TEST(MessiTest, LockedAndPartitionedBuffersBuildSameRootPopulation) {
  // Footnote 2: both buffer strategies must index identically (the
  // difference is only performance).
  const Dataset data = MakeData(3000);
  ThreadPool pool(4);
  auto partitioned = MessiIndex::Build(Mem(data), SmallBuild(4, false), &pool);
  auto locked = MessiIndex::Build(Mem(data), SmallBuild(4, true), &pool);
  ASSERT_TRUE(partitioned.ok());
  ASSERT_TRUE(locked.ok());
  EXPECT_EQ((*partitioned)->tree().PresentRoots(),
            (*locked)->tree().PresentRoots());
  EXPECT_EQ(AllIndexedIds((*partitioned)->tree()),
            AllIndexedIds((*locked)->tree()));
}

TEST(MessiTest, BuildStatsCoverBothStages) {
  const Dataset data = MakeData(3000);
  ThreadPool pool(2);
  auto index = MessiIndex::Build(Mem(data), SmallBuild(2), &pool);
  ASSERT_TRUE(index.ok());
  const MessiBuildStats& stats = (*index)->build_stats();
  EXPECT_GT(stats.summarize_wall_seconds, 0.0);
  EXPECT_GT(stats.tree_wall_seconds, 0.0);
  EXPECT_GE(stats.wall_seconds,
            stats.summarize_wall_seconds + stats.tree_wall_seconds - 1e-3);
}

TEST(MessiTest, ExactSearchMatchesBruteForceAcrossQueueCounts) {
  const Dataset data = MakeData(3000);
  ThreadPool pool(4);
  auto index = MessiIndex::Build(Mem(data), SmallBuild(4), &pool);
  ASSERT_TRUE(index.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 5, 64, 21);

  for (const int queues : {1, 2, 4, 9}) {
    MessiQueryOptions qopts;
    qopts.num_workers = 4;
    qopts.num_queues = queues;
    for (size_t q = 0; q < queries.count(); ++q) {
      const Neighbor oracle =
          BruteForceNn(InMemorySource(&data), queries.series(q),
                       KernelPolicy::kScalar);
      auto got = (*index)->SearchExact(queries.series(q), qopts, &pool);
      ASSERT_TRUE(got.ok());
      EXPECT_NEAR(got->distance_sq, oracle.distance_sq,
                  1e-3f * std::max(1.0f, oracle.distance_sq))
          << "queues=" << queues << " q=" << q;
    }
  }
}

TEST(MessiTest, QueryStatsShowTreePruning) {
  const Dataset data = MakeData(6000);
  ThreadPool pool(2);
  auto index = MessiIndex::Build(Mem(data), SmallBuild(2), &pool);
  ASSERT_TRUE(index.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 4, 64, 21);

  const TreeStats tree_stats = (*index)->tree().Collect();
  const auto check_phases = [](const QueryStats& stats, const char* what,
                               size_t q) {
    // The approximate seed, Stage 3a (pruning the leaf directory) and
    // Stage 3b (consuming the queues) report their own wall times inside
    // the query's total.
    EXPECT_GT(stats.approx_phase_seconds, 0.0) << what << " q=" << q;
    EXPECT_GT(stats.filter_phase_seconds, 0.0) << what << " q=" << q;
    EXPECT_GT(stats.refine_phase_seconds, 0.0) << what << " q=" << q;
    EXPECT_LE(stats.filter_phase_seconds, stats.total_seconds)
        << what << " q=" << q;
    EXPECT_LE(stats.refine_phase_seconds, stats.total_seconds)
        << what << " q=" << q;
    EXPECT_LE(stats.approx_phase_seconds + stats.filter_phase_seconds +
                  stats.refine_phase_seconds,
              stats.total_seconds)
        << what << " q=" << q;
  };
  for (size_t q = 0; q < queries.count(); ++q) {
    QueryStats stats;
    ASSERT_TRUE(
        (*index)->SearchExact(queries.series(q), {}, &pool, &stats).ok());
    // The tree-based search must not touch every entry: lower-bound
    // checks well below the collection size indicate subtree pruning.
    EXPECT_LT(stats.lb_checks, data.count()) << "q=" << q;
    EXPECT_LT(stats.real_dist_calcs, data.count() / 2) << "q=" << q;
    // Stage 3a bounds each leaf of the directory once.
    EXPECT_EQ(stats.nodes_visited, tree_stats.leaves);
    EXPECT_LE(stats.leaves_inspected, tree_stats.leaves);
    check_phases(stats, "exact", q);

    const SeriesView query = queries.series(q);
    QueryStats knn_stats;
    ASSERT_TRUE((*index)
                    ->Search(query, 5, DistanceModel::kEuclidean, {}, &pool,
                             &knn_stats)
                    .ok());
    check_phases(knn_stats, "knn", q);

    QueryStats dtw_stats;
    ASSERT_TRUE(
        (*index)
            ->Search(query, 1, DistanceModel::kDtw, {}, &pool, &dtw_stats)
            .ok());
    check_phases(dtw_stats, "dtw", q);
  }
}

TEST(MessiTest, SearchesMatchBruteForceWithLiveSegments) {
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 4, 64, 33);
  ThreadPool pool(3);
  auto source = std::make_unique<InMemorySource>(MakeData(2000));
  auto index = MessiIndex::Build(std::move(source), SmallBuild(3), &pool);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  // Three live segments; the second carries copies of the first two
  // queries, so some answers live in a segment rather than the base.
  const size_t batches[] = {300, 450, 120};
  for (size_t b = 0; b < 3; ++b) {
    Dataset batch = MakeData(batches[b], 64, 400 + b);
    if (b == 1) {
      for (size_t q = 0; q < 2; ++q) {
        std::copy(queries.series(q).begin(), queries.series(q).end(),
                  batch.mutable_series(7 + 50 * q).begin());
      }
    }
    ASSERT_TRUE((*index)->Append(batch.raw(), batch.count(), &pool).ok());
  }
  ASSERT_EQ((*index)->serving()->segments.size(), 3u);
  const RawSeriesSource& all = (*index)->source();
  ASSERT_EQ(all.count(), 2000u + 300 + 450 + 120);

  for (const int queues : {1, 3}) {
    MessiQueryOptions qopts;
    qopts.num_workers = 3;
    qopts.num_queues = queues;
    qopts.dtw_band = 6;
    for (size_t q = 0; q < queries.count(); ++q) {
      const SeriesView query = queries.series(q);
      const Neighbor oracle = BruteForceNn(all, query, KernelPolicy::kScalar);
      auto exact = (*index)->SearchExact(query, qopts, &pool);
      ASSERT_TRUE(exact.ok());
      EXPECT_NEAR(exact->distance_sq, oracle.distance_sq,
                  1e-3f * std::max(1.0f, oracle.distance_sq))
          << "queues=" << queues << " q=" << q;
      if (q < 2) {
        EXPECT_EQ(exact->distance_sq, 0.0f) << "q=" << q;
      }

      const std::vector<Neighbor> knn_oracle =
          BruteForceKnn(all, query, 7, KernelPolicy::kScalar);
      auto knn =
          (*index)->Search(query, 7, DistanceModel::kEuclidean, qopts, &pool);
      ASSERT_TRUE(knn.ok());
      ASSERT_EQ(knn->size(), knn_oracle.size());
      for (size_t i = 0; i < knn->size(); ++i) {
        EXPECT_NEAR((*knn)[i].distance_sq, knn_oracle[i].distance_sq,
                    1e-3f * std::max(1.0f, knn_oracle[i].distance_sq))
            << "queues=" << queues << " q=" << q << " rank=" << i;
      }

      const Neighbor dtw_oracle = BruteForceDtwNn(all, query, qopts.dtw_band);
      auto dtw = (*index)->Search(query, 1, DistanceModel::kDtw, qopts, &pool);
      ASSERT_TRUE(dtw.ok());
      EXPECT_NEAR(dtw->front().distance_sq, dtw_oracle.distance_sq,
                  1e-3f * std::max(1.0f, dtw_oracle.distance_sq))
          << "queues=" << queues << " q=" << q;
    }
  }
}

TEST(MessiTest, MessiPrunesMoreRealDistancesThanParisFilter) {
  // The paper: "MESSI applies pruning when performing the lower bound
  // distance calculations ... As a side effect, MESSI also performs less
  // real distance calculations than ParIS."  ParIS's refinement computes
  // a real distance for every candidate surviving the flat filter; MESSI
  // re-checks entries against the evolving BSF.
  const Dataset data = MakeData(6000);
  ThreadPool pool(2);
  auto messi = MessiIndex::Build(Mem(data), SmallBuild(2), &pool);
  ASSERT_TRUE(messi.ok());

  AdsBuildOptions ads_options;
  ads_options.tree = SmallBuild(1).tree;
  auto ads = AdsIndex::Build(Mem(data), ads_options);
  ASSERT_TRUE(ads.ok());

  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 6, 64, 21);
  uint64_t messi_real = 0, sims_real = 0;
  for (size_t q = 0; q < queries.count(); ++q) {
    QueryStats ms, as;
    ASSERT_TRUE((*messi)->SearchExact(queries.series(q), {}, &pool, &ms)
                    .ok());
    ASSERT_TRUE((*ads)->SearchExact(queries.series(q), {}, &as).ok());
    messi_real += ms.real_dist_calcs;
    sims_real += as.real_dist_calcs;
  }
  EXPECT_LE(messi_real, sims_real);
}

TEST(MessiTest, WorksWithTinyCollections) {
  for (const size_t count : {1u, 2u, 5u}) {
    const Dataset data = MakeData(count);
    ThreadPool pool(3);
    auto index = MessiIndex::Build(Mem(data), SmallBuild(3), &pool);
    ASSERT_TRUE(index.ok());
    const Dataset queries =
        GenerateQueries(DatasetKind::kRandomWalk, 2, 64, 21);
    for (size_t q = 0; q < queries.count(); ++q) {
      const Neighbor oracle =
          BruteForceNn(InMemorySource(&data), queries.series(q),
                       KernelPolicy::kScalar);
      auto got = (*index)->SearchExact(queries.series(q), {}, &pool);
      ASSERT_TRUE(got.ok());
      EXPECT_NEAR(got->distance_sq, oracle.distance_sq,
                  1e-3f * std::max(1.0f, oracle.distance_sq));
    }
  }
}

TEST(MessiTest, RejectsMismatchedOptions) {
  const Dataset data = MakeData(100);
  ThreadPool pool(2);
  MessiBuildOptions bad = SmallBuild(2);
  bad.tree.series_length = 32;  // dataset has 64
  EXPECT_EQ(MessiIndex::Build(Mem(data), bad, &pool).status().code(),
            StatusCode::kInvalidArgument);

  MessiBuildOptions too_many_workers = SmallBuild(8);
  EXPECT_EQ(
      MessiIndex::Build(Mem(data), too_many_workers, &pool).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(MessiTest, KnnDegeneratesGracefully) {
  const Dataset data = MakeData(50);
  ThreadPool pool(2);
  auto index = MessiIndex::Build(Mem(data), SmallBuild(2), &pool);
  ASSERT_TRUE(index.ok());
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk, 1, 64, 21);
  // k larger than the collection returns everything, sorted.
  auto result = (*index)->Search(queries.series(0), 100,
                                 DistanceModel::kEuclidean, {}, &pool);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 50u);
  for (size_t i = 1; i < result->size(); ++i) {
    EXPECT_LE((*result)[i - 1].distance_sq, (*result)[i].distance_sq);
  }
  // No duplicate ids.
  std::vector<SeriesId> ids;
  for (const Neighbor& n : *result) ids.push_back(n.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

// --- IsaxBufferSet -----------------------------------------------------------

class BufferModes : public ::testing::TestWithParam<bool> {};

TEST_P(BufferModes, GatherReturnsAllAppendedEntries) {
  const bool locked = GetParam();
  IsaxBufferSet buffers(6, 3, locked);
  for (int worker = 0; worker < 3; ++worker) {
    for (int i = 0; i < 100; ++i) {
      LeafEntry e;
      e.id = static_cast<uint64_t>(worker) * 1000 + i;
      buffers.Append(worker, static_cast<uint32_t>(i % 8), e);
    }
  }
  const auto keys = buffers.CollectKeys();
  EXPECT_EQ(keys.size(), 8u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));

  size_t total = 0;
  for (const uint32_t key : keys) {
    std::vector<LeafEntry> out;
    buffers.Gather(key, &out);
    total += out.size();
    for (const LeafEntry& e : out) {
      EXPECT_EQ(e.id % 1000 % 8, key);
    }
  }
  EXPECT_EQ(total, 300u);
}

TEST_P(BufferModes, ConcurrentAppendsSurvive) {
  const bool locked = GetParam();
  constexpr int kThreads = 4, kPerThread = 3000;
  IsaxBufferSet buffers(8, kThreads, locked);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LeafEntry e;
        e.id = static_cast<uint64_t>(t) * kPerThread + i;
        buffers.Append(t, static_cast<uint32_t>((t * 31 + i) % 200), e);
      }
    });
  }
  for (auto& t : threads) t.join();
  size_t total = 0;
  for (const uint32_t key : buffers.CollectKeys()) {
    std::vector<LeafEntry> out;
    buffers.Gather(key, &out);
    total += out.size();
  }
  EXPECT_EQ(total, static_cast<size_t>(kThreads) * kPerThread);
}

INSTANTIATE_TEST_SUITE_P(LockedAndPartitioned, BufferModes,
                         ::testing::Bool(), [](const auto& info) {
                           return info.param ? std::string("locked")
                                             : std::string("partitioned");
                         });

}  // namespace
}  // namespace parisax

// ShardedEngine tests: the router's answers must be byte-identical to
// a single Engine over the same data (ED, kNN and DTW, before and
// after appends), per-shard checkpoints must restore independently
// with typed errors for missing/corrupt pieces, and the serve layer
// must drive a sharded backend through SearchBackend under a
// query/append/compact storm without ever diverging from the oracle.
#include "shard/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "io/generator.h"
#include "persist/shard_manifest.h"
#include "serve/query_service.h"
#include "support/temp_dir.h"

namespace parisax {
namespace {

constexpr size_t kLength = 64;

std::string TempPath(const std::string& name) {
  static testsupport::ScopedTempDir dir("parisax_shard");
  return dir.Path(name);
}

Dataset MakeData(size_t count, uint64_t seed = 71) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = kLength;
  gen.seed = seed;
  return GenerateDataset(gen);
}

Dataset MakeQueries(size_t count, uint64_t seed = 9071) {
  return MakeData(count, seed);
}

EngineOptions BaseOptions(Algorithm algorithm) {
  EngineOptions o;
  o.algorithm = algorithm;
  o.num_threads = 2;
  o.tree.segments = 8;
  o.tree.leaf_capacity = 16;
  return o;
}

/// One single-shard engine and one `num_shards`-way sharded engine over
/// the same collection: the equivalence pair every oracle test uses.
struct BackendPair {
  std::unique_ptr<Engine> single;
  std::unique_ptr<ShardedEngine> sharded;
};

BackendPair MakePair(Algorithm algorithm, size_t count, size_t num_shards,
                     uint64_t seed = 71) {
  BackendPair pair;
  const EngineOptions options = BaseOptions(algorithm);
  auto single =
      Engine::Build(SourceSpec::InMemory(MakeData(count, seed)), options);
  EXPECT_TRUE(single.ok()) << single.status().ToString();
  if (single.ok()) pair.single = std::move(*single);
  auto sharded = ShardedEngine::Build(MakeData(count, seed), num_shards,
                                      options);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  if (sharded.ok()) pair.sharded = std::move(*sharded);
  return pair;
}

/// Byte-identical equivalence: same ids, bit-equal distances, same
/// order.
void ExpectSameAnswers(SearchBackend& single, SearchBackend& sharded,
                       const Dataset& queries, const SearchRequest& request) {
  for (size_t q = 0; q < queries.count(); ++q) {
    auto expect = single.Search(queries.series(q), request);
    auto got = sharded.Search(queries.series(q), request);
    ASSERT_TRUE(expect.ok()) << expect.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->neighbors.size(), expect->neighbors.size())
        << "query " << q;
    for (size_t i = 0; i < expect->neighbors.size(); ++i) {
      EXPECT_EQ(got->neighbors[i].id, expect->neighbors[i].id)
          << "query " << q << " rank " << i;
      EXPECT_EQ(got->neighbors[i].distance_sq,
                expect->neighbors[i].distance_sq)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(ShardedEngineTest, EdMatchesSingleEngineExactly) {
  for (Algorithm a : {Algorithm::kMessi, Algorithm::kParisPlus}) {
    for (size_t shards : {size_t{2}, size_t{4}}) {
      SCOPED_TRACE(std::string("algorithm ") + AlgorithmName(a) +
                   " shards " + std::to_string(shards));
      BackendPair pair = MakePair(a, 1200, shards);
      ASSERT_NE(pair.single, nullptr);
      ASSERT_NE(pair.sharded, nullptr);
      ExpectSameAnswers(*pair.single, *pair.sharded, MakeQueries(10), {});
    }
  }
}

TEST(ShardedEngineTest, KnnMatchesSingleEngineExactly) {
  BackendPair pair = MakePair(Algorithm::kMessi, 1500, 4);
  ASSERT_NE(pair.single, nullptr);
  ASSERT_NE(pair.sharded, nullptr);
  SearchRequest request;
  request.k = 7;
  ExpectSameAnswers(*pair.single, *pair.sharded, MakeQueries(8), request);
  // k larger than the collection answers every series, exactly once.
  request.k = 100000;
  auto all = pair.sharded->Search(MakeQueries(1).series(0), request);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->neighbors.size(), pair.sharded->series_count());
}

TEST(ShardedEngineTest, DtwMatchesSingleEngineExactly) {
  BackendPair pair = MakePair(Algorithm::kMessi, 900, 3);
  ASSERT_NE(pair.single, nullptr);
  ASSERT_NE(pair.sharded, nullptr);
  SearchRequest request;
  request.dtw = true;
  request.dtw_band = 6;
  ExpectSameAnswers(*pair.single, *pair.sharded, MakeQueries(6), request);
}

TEST(ShardedEngineTest, ExecutorPathMatchesParallelPath) {
  BackendPair pair = MakePair(Algorithm::kMessi, 1000, 4);
  ASSERT_NE(pair.sharded, nullptr);
  const Dataset queries = MakeQueries(6);
  for (size_t q = 0; q < queries.count(); ++q) {
    auto parallel = pair.sharded->Search(queries.series(q), {});
    InlineExecutor inline_exec;
    auto inline_r = pair.sharded->Search(queries.series(q), {}, &inline_exec);
    ASSERT_TRUE(parallel.ok());
    ASSERT_TRUE(inline_r.ok());
    ASSERT_EQ(inline_r->neighbors.size(), parallel->neighbors.size());
    EXPECT_EQ(inline_r->neighbors[0], parallel->neighbors[0]);
  }
}

TEST(ShardedEngineTest, ModuloPartitioningDealsIdsToShards) {
  const size_t count = 103;  // deliberately not a multiple of the shards
  auto sharded = ShardedEngine::Build(MakeData(count), 4,
                                      BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ((*sharded)->num_shards(), 4u);
  EXPECT_EQ((*sharded)->series_count(), count);
  size_t total = 0;
  for (size_t s = 0; s < 4; ++s) {
    const size_t expect = count / 4 + (s < count % 4 ? 1 : 0);
    EXPECT_EQ((*sharded)->shard(s).series_count(), expect) << "shard " << s;
    total += (*sharded)->shard(s).series_count();
  }
  EXPECT_EQ(total, count);
  // Searching with a member series must answer that series' global id
  // at distance zero — the router's id translation, end to end.
  const Dataset data = MakeData(count);
  for (SeriesId g : {SeriesId{0}, SeriesId{1}, SeriesId{57}, SeriesId{102}}) {
    auto response = (*sharded)->Search(data.series(g), {});
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->neighbors[0].id, g);
    EXPECT_EQ(response->neighbors[0].distance_sq, 0.0f);
  }
}

TEST(ShardedEngineTest, BuildRejectsDegenerateShapes) {
  EXPECT_EQ(ShardedEngine::Build(MakeData(64), 0,
                                 BaseOptions(Algorithm::kMessi))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ShardedEngine::Build(MakeData(3), 4,
                                 BaseOptions(Algorithm::kMessi))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedEngineTest, CapabilitiesAreTheShardIntersection) {
  auto sharded = ShardedEngine::Build(MakeData(400), 2,
                                      BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(sharded.ok());
  // Homogeneous shards over owned memory: the intersection equals one
  // shard's capability row.
  const EngineCapabilities caps = (*sharded)->capabilities();
  const EngineCapabilities shard_caps = (*sharded)->shard(0).capabilities();
  EXPECT_EQ(caps.max_k, shard_caps.max_k);
  EXPECT_EQ(caps.dtw, shard_caps.dtw);
  EXPECT_EQ(caps.append, shard_caps.append);
  EXPECT_EQ(caps.snapshot, shard_caps.snapshot);
  EXPECT_STREQ((*sharded)->algorithm_name(), "messi");
  EXPECT_EQ((*sharded)->algorithm(), Algorithm::kMessi);
}

TEST(ShardedEngineTest, AppendMatchesSingleEngineAfterGrowth) {
  for (Algorithm a : {Algorithm::kMessi, Algorithm::kParisPlus}) {
    BackendPair pair = MakePair(a, 800, 4);
    ASSERT_NE(pair.single, nullptr);
    ASSERT_NE(pair.sharded, nullptr);
    const Dataset extra = MakeData(130, 4444);
    auto single_report = pair.single->Append(extra);
    auto sharded_report = pair.sharded->Append(extra);
    ASSERT_TRUE(single_report.ok()) << single_report.status().ToString();
    ASSERT_TRUE(sharded_report.ok()) << sharded_report.status().ToString();
    EXPECT_EQ(sharded_report->appended, extra.count());
    EXPECT_EQ(sharded_report->total_series, 800 + extra.count());
    EXPECT_EQ(pair.sharded->series_count(), pair.single->series_count());
    EXPECT_EQ(pair.sharded->append_epoch(), 1u);
    ExpectSameAnswers(*pair.single, *pair.sharded, MakeQueries(8), {});
    // An appended series is findable under its new global id.
    auto hit = pair.sharded->Search(extra.series(7), {});
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(hit->neighbors[0].id, 800 + 7);
    EXPECT_EQ(hit->neighbors[0].distance_sq, 0.0f);
  }
}

TEST(ShardedEngineTest, AppendRejectsLengthMismatchTyped) {
  auto sharded = ShardedEngine::Build(MakeData(200), 2,
                                      BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(sharded.ok());
  GeneratorOptions gen;
  gen.count = 4;
  gen.length = kLength / 2;
  EXPECT_EQ((*sharded)->Append(GenerateDataset(gen)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedEngineTest, SaveOpenRoundtripServesIdentically) {
  for (Algorithm a : {Algorithm::kMessi, Algorithm::kParisPlus}) {
    const std::string manifest =
        TempPath(std::string("roundtrip_") + AlgorithmName(a) +
                 ".psaxshards");
    BackendPair pair = MakePair(a, 900, 3);
    ASSERT_NE(pair.single, nullptr);
    ASSERT_NE(pair.sharded, nullptr);
    ASSERT_TRUE(pair.sharded->Save(manifest).ok());

    auto restored = ShardedEngine::Open(manifest);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ((*restored)->num_shards(), 3u);
    EXPECT_EQ((*restored)->series_count(), 900u);
    EXPECT_EQ((*restored)->series_length(), kLength);
    EXPECT_STREQ((*restored)->algorithm_name(), AlgorithmName(a));
    ExpectSameAnswers(*pair.single, **restored, MakeQueries(6), {});

    // The explicit-options overload is binding on the algorithm.
    const Algorithm other = a == Algorithm::kMessi ? Algorithm::kParisPlus
                                                   : Algorithm::kMessi;
    EXPECT_FALSE(ShardedEngine::Open(manifest, BaseOptions(other)).ok());
    EXPECT_TRUE(ShardedEngine::Open(manifest, BaseOptions(a)).ok());
  }
}

TEST(ShardedEngineTest, AppendSaveCompactChainRoundtrip) {
  const std::string manifest = TempPath("chain.psaxshards");
  const std::string compacted = TempPath("chain_compacted.psaxshards");
  BackendPair pair = MakePair(Algorithm::kMessi, 600, 3);
  ASSERT_NE(pair.single, nullptr);
  ASSERT_NE(pair.sharded, nullptr);

  const Dataset extra = MakeData(90, 5555);
  ASSERT_TRUE(pair.sharded->Append(extra).ok());
  ASSERT_TRUE(pair.single->Append(extra).ok());
  ASSERT_TRUE(pair.sharded->Save(manifest).ok());

  auto restored = ShardedEngine::Open(manifest);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->series_count(), 690u);
  ExpectSameAnswers(*pair.single, **restored, MakeQueries(6), {});

  // Compacting the restored engine folds every shard and re-checkpoints.
  ASSERT_TRUE((*restored)->Compact(compacted).ok());
  auto recompacted = ShardedEngine::Open(compacted);
  ASSERT_TRUE(recompacted.ok()) << recompacted.status().ToString();
  EXPECT_EQ((*recompacted)->series_count(), 690u);
  ExpectSameAnswers(*pair.single, **recompacted, MakeQueries(6), {});
}

TEST(ShardedEngineTest, MissingShardSnapshotIsTypedNotFound) {
  const std::string manifest = TempPath("missing_piece.psaxshards");
  auto sharded = ShardedEngine::Build(MakeData(500), 3,
                                      BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE((*sharded)->Save(manifest).ok());
  ASSERT_EQ(std::remove((manifest + ".shard1").c_str()), 0);

  auto restored = ShardedEngine::Open(manifest);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kNotFound);
  EXPECT_NE(restored.status().message().find("shard 1"), std::string::npos)
      << restored.status().ToString();
}

TEST(ShardedEngineTest, CorruptManifestIsTypedCorruption) {
  const std::string manifest = TempPath("corrupt.psaxshards");
  auto sharded = ShardedEngine::Build(MakeData(300), 2,
                                      BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE((*sharded)->Save(manifest).ok());
  {
    // Flip one byte past the header: the CRC must catch it.
    std::fstream f(manifest, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(10);
    char b = 0;
    f.seekg(10);
    f.read(&b, 1);
    b ^= 0x40;
    f.seekp(10);
    f.write(&b, 1);
  }
  EXPECT_EQ(ShardedEngine::Open(manifest).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ReadShardManifest(manifest).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ShardedEngine::Open(TempPath("never_written.psaxshards"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ShardedEngineTest, QueryServiceStormOverShardedBackend) {
  auto sharded = ShardedEngine::Build(MakeData(1200), 4,
                                      BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(sharded.ok());
  ShardedEngine& backend = **sharded;
  QueryService* service = backend.query_service();
  ASSERT_NE(service, nullptr);

  const Dataset queries = MakeQueries(16);
  std::atomic<bool> stop{false};
  std::atomic<size_t> answered{0};

  // Query threads hammer the service while appends and a synchronous
  // compaction checkpoint run concurrently; every answer must stay
  // plausible (non-empty, id inside the live collection).
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      size_t q = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto future = backend.Submit(queries.series(q % queries.count()));
        auto response = future.get();
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        ASSERT_FALSE(response->neighbors.empty());
        EXPECT_LT(response->neighbors[0].id, backend.series_count());
        answered.fetch_add(1, std::memory_order_relaxed);
        ++q;
      }
    });
  }

  for (int round = 0; round < 5; ++round) {
    const Dataset extra = MakeData(40, 7000 + round);
    auto report = backend.Append(extra);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  const std::string manifest = TempPath("storm.psaxshards");
  ASSERT_TRUE(backend.Compact(manifest).ok());
  while (answered.load(std::memory_order_relaxed) < 60) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();

  EXPECT_EQ(backend.series_count(), 1200u + 5 * 40);
  EXPECT_EQ(backend.append_epoch(), 5u);
  const ServeStats stats = service->stats();
  EXPECT_EQ(stats.completed, stats.submitted);

  // The storm's checkpoint is a valid restore point.
  auto restored = ShardedEngine::Open(manifest);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->series_count(), backend.series_count());
}

// Regression: Append used to publish the shards' new rows before
// series_count() covered them, so a query racing the append could answer
// with an id the backend did not count yet. Every round appends a batch
// that carries an exact copy of the round's probe on each shard while
// clients keep searching for that probe, so the first shard to publish
// its rows holds the answer.
TEST(ShardedEngineTest, AnswersNeverNameUncountedIds) {
  constexpr size_t kShards = 4;
  constexpr int kRounds = 16;
  constexpr size_t kBatch = 4000;
  auto sharded = ShardedEngine::Build(MakeData(1200), kShards,
                                      BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ShardedEngine& backend = **sharded;
  const Dataset probes = MakeQueries(kRounds, 9400);

  std::atomic<int> round{0};
  std::atomic<bool> stop{false};
  std::atomic<size_t> uncounted{0};
  std::atomic<size_t> answered{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      SearchRequest request;
      request.approximate = t == 0;
      while (!stop.load(std::memory_order_acquire)) {
        const int r = round.load(std::memory_order_acquire);
        auto response = backend.Search(probes.series(r), request);
        if (!response.ok() || response->neighbors.empty()) continue;
        if (response->neighbors[0].id >= backend.series_count()) {
          uncounted.fetch_add(1, std::memory_order_relaxed);
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int r = 0; r < kRounds; ++r) {
    round.store(r, std::memory_order_release);
    Dataset batch = MakeData(kBatch, 9500 + r);
    // Rows 0..kShards-1 land on distinct shards.
    for (size_t row = 0; row < kShards; ++row) {
      std::copy(probes.series(r).begin(), probes.series(r).end(),
                batch.mutable_series(row).begin());
    }
    ASSERT_TRUE(backend.Append(batch).ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();

  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(uncounted.load(), 0u) << "a query named an id >= series_count()";
  EXPECT_EQ(backend.series_count(), 1200 + kRounds * kBatch);
}

}  // namespace
}  // namespace parisax

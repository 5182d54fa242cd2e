// Ablation D4 and kernel microbenchmarks (google-benchmark): the SIMD vs
// scalar distance kernels the paper credits for part of its speedup,
// plus the other per-series primitives (PAA, SAX conversion, the iSAX
// lower-bound table and its batched summary and node-word kernels, early
// abandoning, DTW, LB_Keogh).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "dist/dtw.h"
#include "dist/euclidean.h"
#include "dist/znorm.h"
#include "index/node.h"
#include "index/tree.h"
#include "io/generator.h"
#include "sax/mindist.h"
#include "sax/paa.h"
#include "sax/word.h"

namespace parisax {
namespace {

constexpr size_t kLength = 256;
constexpr int kSegments = 16;

struct KernelFixture {
  KernelFixture() {
    GeneratorOptions gen;
    gen.count = 1024;
    gen.length = kLength;
    gen.seed = 7;
    data = GenerateDataset(gen);
    query = GenerateQueries(DatasetKind::kRandomWalk, 1, kLength, 7);
    ComputePaa(query.series(0), kSegments, query_paa);
    sax_rows.resize(data.count());
    float paa[kMaxSegments];
    for (SeriesId i = 0; i < data.count(); ++i) {
      ComputePaa(data.series(i), kSegments, paa);
      SymbolsFromPaa(paa, kSegments, &sax_rows[i]);
    }
    ComputeEnvelope(query.series(0), 12, &env_lower, &env_upper);
  }

  Dataset data;
  Dataset query;
  float query_paa[kMaxSegments];
  std::vector<SaxSymbols> sax_rows;
  std::vector<Value> env_lower, env_upper;
};

KernelFixture& Fixture() {
  static KernelFixture fixture;
  return fixture;
}

void BM_EuclideanScalar(benchmark::State& state) {
  KernelFixture& f = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredEuclideanScalar(
        f.query.series(0).data(), f.data.series(i).data(), kLength));
    i = (i + 1) % f.data.count();
  }
  state.SetBytesProcessed(state.iterations() * kLength * sizeof(float));
}
BENCHMARK(BM_EuclideanScalar);

#ifdef PARISAX_HAVE_AVX2
void BM_EuclideanAvx2(benchmark::State& state) {
  KernelFixture& f = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredEuclideanAvx2(
        f.query.series(0).data(), f.data.series(i).data(), kLength));
    i = (i + 1) % f.data.count();
  }
  state.SetBytesProcessed(state.iterations() * kLength * sizeof(float));
}
BENCHMARK(BM_EuclideanAvx2);
#endif

void BM_EuclideanEarlyAbandonTightBound(benchmark::State& state) {
  KernelFixture& f = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    // A tight bound (32.0f over z-normalized 256-pt series) abandons
    // almost every candidate after the first blocks.
    benchmark::DoNotOptimize(SquaredEuclideanEarlyAbandon(
        f.query.series(0).data(), f.data.series(i).data(), kLength, 32.0f));
    i = (i + 1) % f.data.count();
  }
}
BENCHMARK(BM_EuclideanEarlyAbandonTightBound);

void BM_Paa(benchmark::State& state) {
  KernelFixture& f = Fixture();
  float paa[kMaxSegments];
  size_t i = 0;
  for (auto _ : state) {
    ComputePaa(f.data.series(i), kSegments, paa);
    benchmark::DoNotOptimize(paa[0]);
    i = (i + 1) % f.data.count();
  }
}
BENCHMARK(BM_Paa);

void BM_SymbolsFromPaa(benchmark::State& state) {
  KernelFixture& f = Fixture();
  SaxSymbols sax;
  for (auto _ : state) {
    SymbolsFromPaa(f.query_paa, kSegments, &sax);
    benchmark::DoNotOptimize(sax.symbols[0]);
  }
}
BENCHMARK(BM_SymbolsFromPaa);

// One full-cardinality bound through the per-query table (the name is
// kept from the per-series function it replaced, so the committed
// baseline key still tracks the bound's cost).
void BM_MinDistPaaToSymbols(benchmark::State& state) {
  KernelFixture& f = Fixture();
  SymbolBoundTable table;
  table.BuildEd(f.query_paa, kSegments, kLength);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Bound(f.sax_rows[i]));
    i = (i + 1) % f.sax_rows.size();
  }
}
BENCHMARK(BM_MinDistPaaToSymbols);

void BM_BoundTableBuildEd(benchmark::State& state) {
  KernelFixture& f = Fixture();
  SymbolBoundTable table;
  for (auto _ : state) {
    table.BuildEd(f.query_paa, kSegments, kLength);
    benchmark::DoNotOptimize(table.Row(0));
  }
}
BENCHMARK(BM_BoundTableBuildEd);

void BM_BoundTableBuildEnvelope(benchmark::State& state) {
  KernelFixture& f = Fixture();
  float lower_paa[kMaxSegments], upper_paa[kMaxSegments];
  ComputeEnvelopePaaMinMax(f.env_lower, f.env_upper, kSegments, lower_paa,
                           upper_paa);
  SymbolBoundTable table;
  for (auto _ : state) {
    table.BuildEnvelope(lower_paa, upper_paa, kSegments, kLength);
    benchmark::DoNotOptimize(table.Row(0));
  }
}
BENCHMARK(BM_BoundTableBuildEnvelope);

// Batched bounds over the fixture's 1024 summaries, as the ParIS/ADS+
// flat-array filter reads them (16-byte rows) and as MESSI reads a
// leaf (24-byte LeafEntry rows). items_per_second is bounds per second.
void BM_SymbolBoundsFlat(benchmark::State& state, KernelPolicy policy) {
  KernelFixture& f = Fixture();
  SymbolBoundTable table;
  table.BuildEd(f.query_paa, kSegments, kLength);
  std::vector<float> out(f.sax_rows.size());
  for (auto _ : state) {
    table.Bounds(f.sax_rows.data(), sizeof(SaxSymbols), f.sax_rows.size(),
                 out.data(), policy);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.sax_rows.size());
}
BENCHMARK_CAPTURE(BM_SymbolBoundsFlat, scalar, KernelPolicy::kScalar);

void BM_SymbolBoundsLeaf(benchmark::State& state, KernelPolicy policy) {
  KernelFixture& f = Fixture();
  SymbolBoundTable table;
  table.BuildEd(f.query_paa, kSegments, kLength);
  std::vector<LeafEntry> entries(f.sax_rows.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].sax = f.sax_rows[i];
    entries[i].id = i;
  }
  std::vector<float> out(entries.size());
  for (auto _ : state) {
    table.Bounds(entries.data(), sizeof(LeafEntry), entries.size(),
                 out.data(), policy);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * entries.size());
}
BENCHMARK_CAPTURE(BM_SymbolBoundsLeaf, scalar, KernelPolicy::kScalar);

// A real tree's leaf directory: random-walk summaries inserted into a
// SaxTree, so the words carry the mixed per-segment cardinalities that
// MESSI's Stage 3a bounds (unlike the full-cardinality sax_rows).
struct WordFixture {
  WordFixture() : tree(TreeOptions()) {
    constexpr size_t kSeries = 1 << 16;
    constexpr size_t kChunk = 4096;
    float paa[kMaxSegments];
    for (size_t first = 0; first < kSeries; first += kChunk) {
      GeneratorOptions gen;
      gen.count = kChunk;
      gen.length = kLength;
      gen.seed = 11 + first;
      const Dataset chunk = GenerateDataset(gen);
      for (SeriesId i = 0; i < chunk.count(); ++i) {
        LeafEntry entry;
        entry.id = first + i;
        ComputePaa(chunk.series(i), kSegments, paa);
        SymbolsFromPaa(paa, kSegments, &entry.sax);
        if (!tree.Insert(entry).ok()) std::abort();
      }
    }
    tree.SealRoots();
  }

  static SaxTreeOptions TreeOptions() {
    SaxTreeOptions options;
    options.segments = kSegments;
    options.leaf_capacity = 64;
    options.series_length = kLength;
    return options;
  }

  SaxTree tree;
};

WordFixture& Words() {
  static WordFixture fixture;
  return fixture;
}

// One node-word bound per call, on the directory's mixed-cardinality
// words: the per-node cost a top-down traversal pays.
void BM_MinDistPaaToWordSq(benchmark::State& state) {
  KernelFixture& f = Fixture();
  const std::vector<LeafDirEntry>& dir = Words().tree.LeafDirectory();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MinDistPaaToWordSq(f.query_paa, dir[i].word, kSegments, kLength));
    i = (i + 1) % dir.size();
  }
}
BENCHMARK(BM_MinDistPaaToWordSq);

// The same words bounded as MESSI's Stage 3a does: one batched table scan
// over the whole leaf directory. items_per_second is bounds per second.
void BM_WordBounds(benchmark::State& state, KernelPolicy policy) {
  KernelFixture& f = Fixture();
  const std::vector<LeafDirEntry>& dir = Words().tree.LeafDirectory();
  SymbolBoundTable table;
  table.BuildEd(f.query_paa, kSegments, kLength);
  std::vector<float> out(dir.size());
  for (auto _ : state) {
    table.WordBounds(dir.data(), sizeof(LeafDirEntry), dir.size(),
                     out.data(), policy);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * dir.size());
}
BENCHMARK_CAPTURE(BM_WordBounds, scalar, KernelPolicy::kScalar);

#ifdef PARISAX_HAVE_AVX2
BENCHMARK_CAPTURE(BM_SymbolBoundsFlat, avx2, KernelPolicy::kAvx2);
BENCHMARK_CAPTURE(BM_SymbolBoundsLeaf, avx2, KernelPolicy::kAvx2);
BENCHMARK_CAPTURE(BM_WordBounds, avx2, KernelPolicy::kAvx2);
#endif

void BM_ZNormalize(benchmark::State& state) {
  std::vector<float> buffer(kLength);
  KernelFixture& f = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    const SeriesView src = f.data.series(i);
    std::copy(src.begin(), src.end(), buffer.begin());
    ZNormalize(MutableSeriesView(buffer.data(), kLength));
    benchmark::DoNotOptimize(buffer[0]);
    i = (i + 1) % f.data.count();
  }
}
BENCHMARK(BM_ZNormalize);

void BM_DtwBand(benchmark::State& state) {
  KernelFixture& f = Fixture();
  const size_t band = static_cast<size_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DtwBand(f.query.series(0), f.data.series(i), band, 1e30f));
    i = (i + 1) % f.data.count();
  }
}
BENCHMARK(BM_DtwBand)->Arg(4)->Arg(12)->Arg(25);

void BM_LbKeogh(benchmark::State& state) {
  KernelFixture& f = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LbKeoghSq(f.env_lower, f.env_upper, f.data.series(i), 1e30f));
    i = (i + 1) % f.data.count();
  }
}
BENCHMARK(BM_LbKeogh);

void BM_ComputeEnvelope(benchmark::State& state) {
  KernelFixture& f = Fixture();
  std::vector<Value> lower, upper;
  for (auto _ : state) {
    ComputeEnvelope(f.query.series(0), 12, &lower, &upper);
    benchmark::DoNotOptimize(lower[0]);
  }
}
BENCHMARK(BM_ComputeEnvelope);

}  // namespace
}  // namespace parisax

// BENCHMARK_MAIN plus attribution context: the JSON "context" block then
// carries git_sha/build_type, which the CI bench-regression comparison
// requires of every baseline artifact.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("git_sha", parisax::bench::GitSha());
  benchmark::AddCustomContext("build_type", parisax::bench::BuildTypeName());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

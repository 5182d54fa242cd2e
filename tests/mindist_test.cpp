// Property tests for the mindist lower bounds -- the correctness
// foundation of all pruning in ADS+/ParIS/MESSI:
//   mindist(PAA(q), iSAX(s)) <= ED(q, s)          (any cardinality)
//   envelope-mindist(q, iSAX(s)) <= DTW(q, s)     (any cardinality)
// plus tightness monotonicity in cardinality, and the bit-identity
// contract of the per-query bound table and its kernels (full-cardinality
// summaries and node words) against a reference copy of the per-series
// formulas.
#include "sax/mindist.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <vector>

#include "dist/dtw.h"
#include "dist/euclidean.h"
#include "index/node.h"
#include "index/tree.h"
#include "io/generator.h"
#include "sax/breakpoints.h"
#include "sax/paa.h"
#include "util/rng.h"

namespace parisax {
namespace {

struct MindistCase {
  DatasetKind kind;
  int w;
  size_t n;
};

class MindistProperty : public ::testing::TestWithParam<MindistCase> {};

SaxWord WordAtBits(const SaxSymbols& full, int w, int bits) {
  SaxWord word;
  for (int s = 0; s < w; ++s) {
    word.bits[s] = static_cast<uint8_t>(bits);
    word.symbols[s] = TruncateSymbol(full.symbols[s], bits);
  }
  return word;
}

TEST_P(MindistProperty, LowerBoundsEuclidean) {
  const auto [kind, w, n] = GetParam();
  GeneratorOptions gen;
  gen.kind = kind;
  gen.count = 120;
  gen.length = n;
  gen.seed = 31;
  const Dataset data = GenerateDataset(gen);
  const Dataset queries = GenerateQueries(kind, 6, n, 31);

  float qpaa[kMaxSegments], spaa[kMaxSegments];
  SaxSymbols ssax;
  SymbolBoundTable table;
  for (size_t qi = 0; qi < queries.count(); ++qi) {
    const SeriesView q = queries.series(qi);
    ComputePaa(q, w, qpaa);
    table.BuildEd(qpaa, w, n);
    for (SeriesId i = 0; i < data.count(); ++i) {
      const SeriesView s = data.series(i);
      const float ed_sq = SquaredEuclideanScalar(q.data(), s.data(), n);
      ComputePaa(s, w, spaa);
      SymbolsFromPaa(spaa, w, &ssax);

      // Full-cardinality bound (the hot path).
      const float lb_full = table.Bound(ssax);
      EXPECT_LE(lb_full, ed_sq * (1.0f + 1e-4f) + 1e-4f)
          << "q=" << qi << " s=" << i;

      // Every cardinality lower-bounds ED, and coarser cardinalities are
      // never tighter than finer ones.
      float prev = -1.0f;
      for (int bits = 1; bits <= kMaxCardBits; ++bits) {
        const SaxWord word = WordAtBits(ssax, w, bits);
        const float lb = MinDistPaaToWordSq(qpaa, word, w, n);
        EXPECT_LE(lb, ed_sq * (1.0f + 1e-4f) + 1e-4f)
            << "bits=" << bits << " q=" << qi << " s=" << i;
        EXPECT_GE(lb, prev - 1e-5f) << "tightness must grow with bits";
        prev = lb;
      }
      // Word at 8 bits equals the symbols-based bound.
      const SaxWord full_word = WordAtBits(ssax, w, kMaxCardBits);
      EXPECT_FLOAT_EQ(MinDistPaaToWordSq(qpaa, full_word, w, n), lb_full);
    }
  }
}

TEST_P(MindistProperty, EnvelopeLowerBoundsDtw) {
  const auto [kind, w, n] = GetParam();
  GeneratorOptions gen;
  gen.kind = kind;
  gen.count = 60;
  gen.length = n;
  gen.seed = 37;
  const Dataset data = GenerateDataset(gen);
  const Dataset queries = GenerateQueries(kind, 3, n, 37);
  const size_t band = n / 10;

  float spaa[kMaxSegments];
  SaxSymbols ssax;
  SymbolBoundTable table;
  std::vector<Value> lower, upper;
  float env_lo_paa[kMaxSegments], env_hi_paa[kMaxSegments];
  for (size_t qi = 0; qi < queries.count(); ++qi) {
    const SeriesView q = queries.series(qi);
    ComputeEnvelope(q, band, &lower, &upper);
    ComputeEnvelopePaaMinMax(lower, upper, w, env_lo_paa, env_hi_paa);
    table.BuildEnvelope(env_lo_paa, env_hi_paa, w, n);
    for (SeriesId i = 0; i < data.count(); ++i) {
      const SeriesView s = data.series(i);
      const float dtw_sq = DtwBand(q, s, band, 1e30f);
      ComputePaa(s, w, spaa);
      SymbolsFromPaa(spaa, w, &ssax);

      const float lb_full = table.Bound(ssax);
      EXPECT_LE(lb_full, dtw_sq * (1.0f + 1e-4f) + 1e-4f)
          << "q=" << qi << " s=" << i;

      for (int bits = 1; bits <= kMaxCardBits; bits += 3) {
        const SaxWord word = WordAtBits(ssax, w, bits);
        const float lb =
            MinDistEnvelopePaaToWordSq(env_lo_paa, env_hi_paa, word, w, n);
        EXPECT_LE(lb, dtw_sq * (1.0f + 1e-4f) + 1e-4f)
            << "bits=" << bits << " q=" << qi << " s=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndShapes, MindistProperty,
    ::testing::Values(MindistCase{DatasetKind::kRandomWalk, 8, 64},
                      MindistCase{DatasetKind::kRandomWalk, 16, 256},
                      MindistCase{DatasetKind::kSaldEeg, 16, 128},
                      MindistCase{DatasetKind::kSeismicBurst, 8, 96},
                      MindistCase{DatasetKind::kRandomWalk, 4, 61}),
    [](const auto& info) {
      return std::string(DatasetKindName(info.param.kind)) + "_w" +
             std::to_string(info.param.w) + "_n" +
             std::to_string(info.param.n);
    });

TEST(MindistTest, ZeroWhenPaaInsideRegion) {
  // A query whose PAA equals the series PAA has mindist zero against that
  // series' symbols.
  GeneratorOptions gen;
  gen.count = 10;
  gen.length = 64;
  const Dataset data = GenerateDataset(gen);
  const int w = 8;
  float paa[kMaxSegments];
  SaxSymbols sax;
  SymbolBoundTable table;
  for (SeriesId i = 0; i < data.count(); ++i) {
    ComputePaa(data.series(i), w, paa);
    SymbolsFromPaa(paa, w, &sax);
    table.BuildEd(paa, w, 64);
    EXPECT_FLOAT_EQ(table.Bound(sax), 0.0f);
  }
}

TEST(MindistTest, ScalesWithSeriesLength) {
  // Same PAA gap, doubled n => doubled squared mindist (n/w scaling).
  SaxSymbols sax;
  sax.symbols[0] = 0;  // region (-inf, lowest breakpoint]
  const int w = 1;
  float paa[1] = {10.0f};  // far above region 0
  SymbolBoundTable table;
  table.BuildEd(paa, w, 64);
  const float d64 = table.Bound(sax);
  table.BuildEd(paa, w, 128);
  const float d128 = table.Bound(sax);
  EXPECT_GT(d64, 0.0f);
  EXPECT_NEAR(d128, 2.0f * d64, 1e-3f);
}

// --- Bit identity of the bound table --------------------------------------
//
// Reference copies of the per-series bounds the table replaced (and of
// the branchy gap formulas the word bounds used): the table, both of its
// kernels and the branch-free word bounds must reproduce them bit for
// bit, or a kernel change could flip a pruning decision.

float RefGapSq(float p, float lo, float hi) {
  if (p < lo) {
    const float d = lo - p;
    return d * d;
  }
  if (p > hi) {
    const float d = p - hi;
    return d * d;
  }
  return 0.0f;
}

float RefIntervalGapSq(float alo, float ahi, float blo, float bhi) {
  if (blo > ahi) {
    const float d = blo - ahi;
    return d * d;
  }
  if (bhi < alo) {
    const float d = alo - bhi;
    return d * d;
  }
  return 0.0f;
}

float RefMinDistPaaToSymbolsSq(const float* paa, const SaxSymbols& sax,
                               int w, size_t n) {
  const BreakpointTable& table = BreakpointTable::Get();
  float sum = 0.0f;
  for (int s = 0; s < w; ++s) {
    const uint32_t sym = sax.symbols[s];
    sum += RefGapSq(paa[s], table.RegionLow(kMaxCardBits, sym),
                    table.RegionHigh(kMaxCardBits, sym));
  }
  return sum * (static_cast<float>(n) / static_cast<float>(w));
}

float RefMinDistEnvelopePaaToSymbolsSq(const float* lo, const float* hi,
                                       const SaxSymbols& sax, int w, size_t n) {
  const BreakpointTable& table = BreakpointTable::Get();
  float sum = 0.0f;
  for (int s = 0; s < w; ++s) {
    const uint32_t sym = sax.symbols[s];
    sum += RefIntervalGapSq(lo[s], hi[s], table.RegionLow(kMaxCardBits, sym),
                            table.RegionHigh(kMaxCardBits, sym));
  }
  return sum * (static_cast<float>(n) / static_cast<float>(w));
}

float RefMinDistPaaToWordSq(const float* paa, const SaxWord& word, int w,
                            size_t n) {
  const BreakpointTable& table = BreakpointTable::Get();
  float sum = 0.0f;
  for (int s = 0; s < w; ++s) {
    sum += RefGapSq(paa[s], table.RegionLow(word.bits[s], word.symbols[s]),
                    table.RegionHigh(word.bits[s], word.symbols[s]));
  }
  return sum * (static_cast<float>(n) / static_cast<float>(w));
}

float RefMinDistEnvelopePaaToWordSq(const float* lo, const float* hi,
                                    const SaxWord& word, int w, size_t n) {
  const BreakpointTable& table = BreakpointTable::Get();
  float sum = 0.0f;
  for (int s = 0; s < w; ++s) {
    sum += RefIntervalGapSq(lo[s], hi[s],
                            table.RegionLow(word.bits[s], word.symbols[s]),
                            table.RegionHigh(word.bits[s], word.symbols[s]));
  }
  return sum * (static_cast<float>(n) / static_cast<float>(w));
}

uint32_t Bits(float f) { return std::bit_cast<uint32_t>(f); }

struct BitCase {
  int w;
  size_t n;
};

class BoundTableBits : public ::testing::TestWithParam<BitCase> {};

/// Query PAA values spread past the outermost breakpoints (so symbols 0
/// and 255, whose regions are unbounded, see both in-region and gap
/// cases) plus exact breakpoint hits.
void RandomQuery(Rng* rng, int w, float* paa, float* lo, float* hi) {
  const std::vector<double>& edges =
      BreakpointTable::Get().Breakpoints(kMaxCardBits);
  for (int s = 0; s < w; ++s) {
    float v = static_cast<float>(rng->NextDouble(-4.0, 4.0));
    if (rng->NextBelow(8) == 0) {
      v = static_cast<float>(edges[rng->NextBelow(edges.size())]);
    }
    const float spread = static_cast<float>(rng->NextDouble(0.0, 0.8));
    paa[s] = v;
    lo[s] = v - spread;
    hi[s] = v + spread;
  }
}

/// Symbols uniform over 0..255 with the extremes over-represented.
SaxSymbols RandomSymbols(Rng* rng) {
  SaxSymbols sax;
  for (int s = 0; s < kMaxSegments; ++s) {
    sax.symbols[s] = static_cast<uint8_t>(rng->NextBelow(256));
    const uint64_t pick = rng->NextBelow(6);
    if (pick == 0) sax.symbols[s] = 0;
    if (pick == 1) sax.symbols[s] = 255;
  }
  return sax;
}

std::vector<KernelPolicy> PoliciesUnderTest() {
  std::vector<KernelPolicy> policies = {KernelPolicy::kScalar,
                                        KernelPolicy::kAuto};
  if (SimdAvailable()) policies.push_back(KernelPolicy::kAvx2);
  return policies;
}

TEST_P(BoundTableBits, EdAndDtwTablesMatchReferenceBits) {
  const auto [w, n] = GetParam();
  Rng rng(1000 + 31 * w + static_cast<uint64_t>(n));
  float paa[kMaxSegments], lo[kMaxSegments], hi[kMaxSegments];
  SymbolBoundTable ed, dtw;
  // Counts straddle the 8-row vector step: tails of every length, and
  // an empty batch.
  for (const size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                             size_t{13}, size_t{64}, size_t{101}}) {
    RandomQuery(&rng, w, paa, lo, hi);
    ed.BuildEd(paa, w, n);
    dtw.BuildEnvelope(lo, hi, w, n);
    std::vector<SaxSymbols> flat(count);
    std::vector<LeafEntry> leaf(count);
    for (size_t r = 0; r < count; ++r) {
      flat[r] = RandomSymbols(&rng);
      leaf[r].sax = flat[r];
      leaf[r].id = r;
    }
    std::vector<uint32_t> want_ed(count), want_dtw(count);
    for (size_t r = 0; r < count; ++r) {
      want_ed[r] = Bits(RefMinDistPaaToSymbolsSq(paa, flat[r], w, n));
      want_dtw[r] =
          Bits(RefMinDistEnvelopePaaToSymbolsSq(lo, hi, flat[r], w, n));
      ASSERT_EQ(Bits(ed.Bound(flat[r])), want_ed[r]);
      ASSERT_EQ(Bits(dtw.Bound(flat[r])), want_dtw[r]);
    }
    for (const KernelPolicy policy : PoliciesUnderTest()) {
      std::vector<float> got(count);
      const auto check = [&](const std::vector<uint32_t>& want,
                             const char* what) {
        for (size_t r = 0; r < count; ++r) {
          ASSERT_EQ(Bits(got[r]), want[r])
              << what << " policy=" << static_cast<int>(policy)
              << " count=" << count << " row=" << r;
        }
      };
      ed.Bounds(flat.data(), sizeof(SaxSymbols), count, got.data(), policy);
      check(want_ed, "ed/flat");
      ed.Bounds(leaf.data(), sizeof(LeafEntry), count, got.data(), policy);
      check(want_ed, "ed/leaf");
      dtw.Bounds(flat.data(), sizeof(SaxSymbols), count, got.data(), policy);
      check(want_dtw, "dtw/flat");
      dtw.Bounds(leaf.data(), sizeof(LeafEntry), count, got.data(), policy);
      check(want_dtw, "dtw/leaf");
    }
  }
}

TEST_P(BoundTableBits, BranchFreeWordBoundsMatchReferenceBits) {
  const auto [w, n] = GetParam();
  Rng rng(2000 + 31 * w + static_cast<uint64_t>(n));
  float paa[kMaxSegments], lo[kMaxSegments], hi[kMaxSegments];
  for (int trial = 0; trial < 200; ++trial) {
    RandomQuery(&rng, w, paa, lo, hi);
    const SaxSymbols full = RandomSymbols(&rng);
    for (int bits = 1; bits <= kMaxCardBits; ++bits) {
      const SaxWord word = WordAtBits(full, w, bits);
      const float ed = MinDistPaaToWordSq(paa, word, w, n);
      const float dtw = MinDistEnvelopePaaToWordSq(lo, hi, word, w, n);
      ASSERT_EQ(Bits(ed), Bits(RefMinDistPaaToWordSq(paa, word, w, n)))
          << "bits=" << bits << " trial=" << trial;
      ASSERT_EQ(Bits(dtw),
                Bits(RefMinDistEnvelopePaaToWordSq(lo, hi, word, w, n)))
          << "bits=" << bits << " trial=" << trial;
    }
  }
}

// Node words through the table: every symbol at every cardinality (all
// segments at one bit count, segment s shifted by s so each segment sees
// each symbol), then words of mixed per-segment cardinality; rows read as
// bare SaxWords and as LeafDirEntry records.
TEST_P(BoundTableBits, TableWordBoundsMatchReferenceBits) {
  const auto [w, n] = GetParam();
  Rng rng(3000 + 31 * w + static_cast<uint64_t>(n));
  float paa[kMaxSegments], lo[kMaxSegments], hi[kMaxSegments];
  SymbolBoundTable ed, dtw;
  for (int trial = 0; trial < 12; ++trial) {
    RandomQuery(&rng, w, paa, lo, hi);
    ed.BuildEd(paa, w, n);
    dtw.BuildEnvelope(lo, hi, w, n);
    std::vector<SaxWord> words;
    for (int bits = 1; bits <= kMaxCardBits; ++bits) {
      for (int sym = 0; sym < (1 << bits); ++sym) {
        SaxWord word;
        for (int s = 0; s < w; ++s) {
          word.bits[s] = static_cast<uint8_t>(bits);
          word.symbols[s] = static_cast<uint8_t>((sym + s) % (1 << bits));
        }
        words.push_back(word);
      }
    }
    for (int r = 0; r < 101; ++r) {
      SaxWord word;
      for (int s = 0; s < w; ++s) {
        word.bits[s] = static_cast<uint8_t>(1 + rng.NextBelow(kMaxCardBits));
        word.symbols[s] =
            static_cast<uint8_t>(rng.NextBelow(1u << word.bits[s]));
      }
      words.push_back(word);
    }
    std::vector<LeafDirEntry> dir(words.size());
    std::vector<uint32_t> want_ed(words.size()), want_dtw(words.size());
    for (size_t r = 0; r < words.size(); ++r) {
      dir[r].word = words[r];
      want_ed[r] = Bits(RefMinDistPaaToWordSq(paa, words[r], w, n));
      want_dtw[r] =
          Bits(RefMinDistEnvelopePaaToWordSq(lo, hi, words[r], w, n));
    }
    for (const KernelPolicy policy : PoliciesUnderTest()) {
      std::vector<float> got(words.size());
      const auto check = [&](const std::vector<uint32_t>& want,
                             const char* what) {
        for (size_t r = 0; r < words.size(); ++r) {
          ASSERT_EQ(Bits(got[r]), want[r])
              << what << " policy=" << static_cast<int>(policy)
              << " word=" << words[r].ToString(w);
        }
      };
      // Every batch length up to 17 covers the 8-row step's tails.
      for (size_t count = 0; count <= 17; ++count) {
        ed.WordBounds(words.data(), sizeof(SaxWord), count, got.data(),
                      policy);
        for (size_t r = 0; r < count; ++r) {
          ASSERT_EQ(Bits(got[r]), want_ed[r]) << "count=" << count;
        }
      }
      ed.WordBounds(words.data(), sizeof(SaxWord), words.size(), got.data(),
                    policy);
      check(want_ed, "ed/word");
      ed.WordBounds(dir.data(), sizeof(LeafDirEntry), dir.size(), got.data(),
                    policy);
      check(want_ed, "ed/directory");
      dtw.WordBounds(words.data(), sizeof(SaxWord), words.size(), got.data(),
                     policy);
      check(want_dtw, "dtw/word");
      dtw.WordBounds(dir.data(), sizeof(LeafDirEntry), dir.size(),
                     got.data(), policy);
      check(want_dtw, "dtw/directory");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SegmentsAndLengths, BoundTableBits,
    ::testing::Values(BitCase{1, 64}, BitCase{1, 128}, BitCase{1, 256},
                      BitCase{4, 64}, BitCase{4, 128}, BitCase{4, 256},
                      BitCase{8, 64}, BitCase{8, 128}, BitCase{8, 256},
                      BitCase{16, 64}, BitCase{16, 128}, BitCase{16, 256}),
    [](const auto& info) {
      return "w" + std::to_string(info.param.w) + "_n" +
             std::to_string(info.param.n);
    });

}  // namespace
}  // namespace parisax

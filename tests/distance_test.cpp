// Tests for the distance kernels: scalar/AVX2 agreement, early
// abandoning semantics, z-normalization, DTW against a naive reference,
// envelopes and LB_Keogh.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dist/dtw.h"
#include "dist/euclidean.h"
#include "dist/znorm.h"
#include "io/generator.h"
#include "util/rng.h"

namespace parisax {
namespace {

std::vector<float> RandomSeries(Rng& rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

class EuclideanLengths : public ::testing::TestWithParam<size_t> {};

TEST_P(EuclideanLengths, ScalarAndSimdAgree) {
  const size_t n = GetParam();
  Rng rng(1000 + n);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = RandomSeries(rng, n);
    const auto b = RandomSeries(rng, n);
    const float scalar = SquaredEuclideanScalar(a.data(), b.data(), n);
    const float dispatched =
        SquaredEuclidean(a.data(), b.data(), n, KernelPolicy::kAuto);
    EXPECT_NEAR(dispatched, scalar, 1e-3f * std::max(1.0f, scalar));
#ifdef PARISAX_HAVE_AVX2
    ASSERT_TRUE(SimdAvailable());
    const float simd = SquaredEuclideanAvx2(a.data(), b.data(), n);
    EXPECT_NEAR(simd, scalar, 1e-3f * std::max(1.0f, scalar));
#endif
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, EuclideanLengths,
                         ::testing::Values(1, 3, 7, 8, 15, 16, 17, 31, 32,
                                           33, 64, 100, 128, 256, 1000));

// The AVX2 kernel processes 8 floats per lane-step; every length that is
// not a multiple of 8 exercises the scalar tail. Cover the boundary
// explicitly for all dispatch policies, including kAvx2 on builds (or
// CPUs) without AVX2, where it must fall back to scalar instead of
// faulting.
TEST(KernelBoundaryTest, TailLengthsAgreeAcrossAllPolicies) {
  Rng rng(900);
  for (const size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 16u, 25u,
                         128u, 256u}) {
    const auto a = RandomSeries(rng, n);
    const auto b = RandomSeries(rng, n);
    const float scalar = SquaredEuclideanScalar(a.data(), b.data(), n);
    for (const KernelPolicy policy :
         {KernelPolicy::kAuto, KernelPolicy::kScalar, KernelPolicy::kAvx2}) {
      const float d = SquaredEuclidean(a.data(), b.data(), n, policy);
      EXPECT_NEAR(d, scalar, 1e-3f * std::max(1.0f, scalar)) << "n=" << n;
      const float ea = SquaredEuclideanEarlyAbandon(a.data(), b.data(), n,
                                                    scalar * 2.0f + 1.0f,
                                                    policy);
      EXPECT_NEAR(ea, scalar, 1e-3f * std::max(1.0f, scalar)) << "n=" << n;
    }
  }
}

TEST(KernelBoundaryTest, ScalarPolicyIsExactlyTheScalarKernel) {
  Rng rng(901);
  const auto a = RandomSeries(rng, 100);
  const auto b = RandomSeries(rng, 100);
  EXPECT_FLOAT_EQ(
      SquaredEuclidean(a.data(), b.data(), 100, KernelPolicy::kScalar),
      SquaredEuclideanScalar(a.data(), b.data(), 100));
}

TEST(KernelBoundaryTest, DispatchIsConsistentWithSimdAvailability) {
#ifdef PARISAX_HAVE_AVX2
  // Compiled in: availability is the CPU's call, and kAuto must serve
  // answers either way (checked by TailLengthsAgreeAcrossAllPolicies).
  SUCCEED() << "AVX2 kernel compiled in, SimdAvailable()="
            << SimdAvailable();
#else
  // Not compiled in: kAuto/kAvx2 have nothing to dispatch to and must
  // report SIMD as unavailable (the scalar fallback path).
  EXPECT_FALSE(SimdAvailable());
#endif
}

TEST(EuclideanTest, ZeroForIdenticalSeries) {
  Rng rng(2);
  const auto a = RandomSeries(rng, 128);
  EXPECT_FLOAT_EQ(SquaredEuclidean(a.data(), a.data(), 128), 0.0f);
}

TEST(EuclideanTest, EarlyAbandonExactWhenUnderBound) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = RandomSeries(rng, 200);
    const auto b = RandomSeries(rng, 200);
    const float exact = SquaredEuclidean(a.data(), b.data(), 200);
    const float ea = SquaredEuclideanEarlyAbandon(a.data(), b.data(), 200,
                                                  exact * 2.0f + 1.0f);
    EXPECT_NEAR(ea, exact, 1e-3f * std::max(1.0f, exact));
  }
}

TEST(EuclideanTest, EarlyAbandonKeepsTheFullKernelsBitsUnderBound) {
  // Oracles recompute answers with the full kernel and compare bits, so
  // a distance that is not abandoned must equal it exactly under each
  // policy (the scalar kernel keeps one running sum across blocks).
  Rng rng(8);
  for (const size_t n : {1u, 15u, 16u, 17u, 61u, 100u, 256u}) {
    const auto a = RandomSeries(rng, n);
    const auto b = RandomSeries(rng, n);
    for (const KernelPolicy policy :
         {KernelPolicy::kAuto, KernelPolicy::kScalar, KernelPolicy::kAvx2}) {
      const float full = SquaredEuclidean(a.data(), b.data(), n, policy);
      const float bound = full * 2.0f + 1.0f;
      const float ea =
          SquaredEuclideanEarlyAbandon(a.data(), b.data(), n, bound, policy);
      EXPECT_EQ(ea, full) << "n=" << n
                          << " policy=" << static_cast<int>(policy);
    }
  }
}

TEST(EuclideanTest, EarlyAbandonReturnsAtLeastBoundWhenAbandoned) {
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = RandomSeries(rng, 200);
    const auto b = RandomSeries(rng, 200);
    const float exact = SquaredEuclidean(a.data(), b.data(), 200);
    const float bound = exact * 0.25f;
    const float ea =
        SquaredEuclideanEarlyAbandon(a.data(), b.data(), 200, bound);
    EXPECT_GE(ea, bound);
  }
}

TEST(EuclideanTest, EarlyAbandonZeroBoundAbandonsImmediately) {
  Rng rng(5);
  const auto a = RandomSeries(rng, 64);
  const auto b = RandomSeries(rng, 64);
  EXPECT_GE(SquaredEuclideanEarlyAbandon(a.data(), b.data(), 64, 0.0f),
            0.0f);
}

TEST(ZNormTest, NormalizesMoments) {
  Rng rng(6);
  std::vector<float> v(500);
  for (float& x : v) x = static_cast<float>(3.0 + 5.0 * rng.NextGaussian());
  ZNormalize(MutableSeriesView(v.data(), v.size()));
  EXPECT_TRUE(IsZNormalized(SeriesView(v.data(), v.size())));
  const SeriesMoments m = ComputeMoments(SeriesView(v.data(), v.size()));
  EXPECT_NEAR(m.mean, 0.0, 1e-4);
  EXPECT_NEAR(m.stddev, 1.0, 1e-4);
}

TEST(ZNormTest, ConstantSeriesBecomesZeros) {
  std::vector<float> v(64, 42.0f);
  ZNormalize(MutableSeriesView(v.data(), v.size()));
  for (const float x : v) EXPECT_EQ(x, 0.0f);
  EXPECT_TRUE(IsZNormalized(SeriesView(v.data(), v.size())));
}

TEST(ZNormTest, EmptySeriesIsHandled) {
  std::vector<float> v;
  ZNormalize(MutableSeriesView(v.data(), 0));  // must not crash
  const SeriesMoments m = ComputeMoments(SeriesView(v.data(), 0));
  EXPECT_EQ(m.mean, 0.0);
  EXPECT_EQ(m.stddev, 0.0);
}

// --- DTW ---------------------------------------------------------------

TEST(DtwTest, EqualsNaiveWithFullBand) {
  Rng rng(7);
  for (const size_t n : {1u, 2u, 5u, 16u, 50u}) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto a = RandomSeries(rng, n);
      const auto b = RandomSeries(rng, n);
      const SeriesView av(a.data(), n), bv(b.data(), n);
      const float naive = DtwNaive(av, bv);
      const float banded = DtwBand(av, bv, n, 1e30f);
      EXPECT_NEAR(banded, naive, 1e-3f * std::max(1.0f, naive))
          << "n=" << n;
    }
  }
}

TEST(DtwTest, ZeroForIdenticalSeries) {
  Rng rng(8);
  const auto a = RandomSeries(rng, 64);
  const SeriesView av(a.data(), a.size());
  EXPECT_FLOAT_EQ(DtwBand(av, av, 5, 1e30f), 0.0f);
}

TEST(DtwTest, NeverExceedsEuclidean) {
  // The diagonal alignment is always inside any band: DTW <= ED^2.
  Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = RandomSeries(rng, 80);
    const auto b = RandomSeries(rng, 80);
    const SeriesView av(a.data(), 80), bv(b.data(), 80);
    const float ed = SquaredEuclideanScalar(a.data(), b.data(), 80);
    for (const size_t band : {0u, 3u, 10u, 80u}) {
      EXPECT_LE(DtwBand(av, bv, band, 1e30f),
                ed * (1.0f + 1e-4f) + 1e-4f)
          << "band=" << band;
    }
  }
}

TEST(DtwTest, WiderBandNeverIncreasesCost) {
  Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = RandomSeries(rng, 60);
    const auto b = RandomSeries(rng, 60);
    const SeriesView av(a.data(), 60), bv(b.data(), 60);
    float prev = DtwBand(av, bv, 0, 1e30f);
    for (const size_t band : {1u, 2u, 4u, 8u, 16u, 60u}) {
      const float cur = DtwBand(av, bv, band, 1e30f);
      EXPECT_LE(cur, prev * (1.0f + 1e-4f) + 1e-4f) << "band=" << band;
      prev = cur;
    }
  }
}

TEST(DtwTest, BandZeroIsEuclidean) {
  Rng rng(11);
  const auto a = RandomSeries(rng, 70);
  const auto b = RandomSeries(rng, 70);
  const float ed = SquaredEuclideanScalar(a.data(), b.data(), 70);
  const float dtw0 =
      DtwBand(SeriesView(a.data(), 70), SeriesView(b.data(), 70), 0, 1e30f);
  EXPECT_NEAR(dtw0, ed, 1e-3f * std::max(1.0f, ed));
}

TEST(DtwTest, EarlyAbandonReturnsAtLeastBound) {
  Rng rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = RandomSeries(rng, 64);
    const auto b = RandomSeries(rng, 64);
    const SeriesView av(a.data(), 64), bv(b.data(), 64);
    const float exact = DtwBand(av, bv, 8, 1e30f);
    const float bound = exact * 0.3f;
    if (bound <= 0.0f) continue;
    EXPECT_GE(DtwBand(av, bv, 8, bound), bound);
  }
}

// --- Envelopes and LB_Keogh ---------------------------------------------

void NaiveEnvelope(SeriesView s, size_t band, std::vector<float>* lo,
                   std::vector<float>* hi) {
  const size_t n = s.size();
  lo->assign(n, 0.0f);
  hi->assign(n, 0.0f);
  for (size_t i = 0; i < n; ++i) {
    const size_t b = i >= band ? i - band : 0;
    const size_t e = std::min(n - 1, i + band);
    float mn = s[b], mx = s[b];
    for (size_t j = b; j <= e; ++j) {
      mn = std::min(mn, s[j]);
      mx = std::max(mx, s[j]);
    }
    (*lo)[i] = mn;
    (*hi)[i] = mx;
  }
}

TEST(EnvelopeTest, MatchesNaiveSlidingMinMax) {
  Rng rng(13);
  for (const size_t n : {1u, 5u, 32u, 100u}) {
    for (const size_t band : {0u, 1u, 3u, 10u, 99u}) {
      const auto s = RandomSeries(rng, n);
      const SeriesView sv(s.data(), n);
      std::vector<float> lo1, hi1, lo2, hi2;
      ComputeEnvelope(sv, band, &lo1, &hi1);
      NaiveEnvelope(sv, band, &lo2, &hi2);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(lo1[i], lo2[i]) << "n=" << n << " band=" << band
                                  << " i=" << i;
        EXPECT_EQ(hi1[i], hi2[i]) << "n=" << n << " band=" << band
                                  << " i=" << i;
      }
    }
  }
}

TEST(EnvelopeTest, ContainsTheSeries) {
  Rng rng(14);
  const auto s = RandomSeries(rng, 120);
  const SeriesView sv(s.data(), 120);
  std::vector<float> lo, hi;
  for (const size_t band : {0u, 5u, 20u}) {
    ComputeEnvelope(sv, band, &lo, &hi);
    for (size_t i = 0; i < 120; ++i) {
      EXPECT_LE(lo[i], s[i]);
      EXPECT_GE(hi[i], s[i]);
    }
  }
}

TEST(LbKeoghTest, LowerBoundsDtw) {
  Rng rng(15);
  const size_t n = 96, band = 9;
  for (int trial = 0; trial < 40; ++trial) {
    const auto q = RandomSeries(rng, n);
    const auto c = RandomSeries(rng, n);
    const SeriesView qv(q.data(), n), cv(c.data(), n);
    std::vector<float> lo, hi;
    ComputeEnvelope(qv, band, &lo, &hi);
    const float lb = LbKeoghSq(lo, hi, cv, 1e30f);
    const float dtw = DtwBand(qv, cv, band, 1e30f);
    EXPECT_LE(lb, dtw * (1.0f + 1e-4f) + 1e-4f) << "trial=" << trial;
  }
}

TEST(LbKeoghTest, ZeroWhenInsideEnvelope) {
  Rng rng(16);
  const auto q = RandomSeries(rng, 64);
  const SeriesView qv(q.data(), 64);
  std::vector<float> lo, hi;
  ComputeEnvelope(qv, 4, &lo, &hi);
  // The query itself lies inside its own envelope.
  EXPECT_FLOAT_EQ(LbKeoghSq(lo, hi, qv, 1e30f), 0.0f);
}

TEST(LbKeoghTest, EarlyAbandonReturnsAtLeastBound) {
  Rng rng(17);
  const auto q = RandomSeries(rng, 64);
  std::vector<float> lo, hi;
  ComputeEnvelope(SeriesView(q.data(), 64), 2, &lo, &hi);
  for (int trial = 0; trial < 20; ++trial) {
    const auto c = RandomSeries(rng, 64);
    const SeriesView cv(c.data(), 64);
    const float full = LbKeoghSq(lo, hi, cv, 1e30f);
    if (full <= 0.0f) continue;
    const float bound = full * 0.5f;
    EXPECT_GE(LbKeoghSq(lo, hi, cv, bound), bound);
  }
}

}  // namespace
}  // namespace parisax

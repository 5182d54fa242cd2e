// AVX2 squared-Euclidean kernel. This and sax/mindist_avx2.cpp are the
// only translation units in the library compiled with -mavx2 (see
// CMakeLists.txt), so AVX2 instructions cannot leak into code paths
// that run on non-AVX2 CPUs.
// We deliberately avoid FMA intrinsics: -mavx2 does not imply FMA, and
// the runtime dispatch in euclidean.cpp only checks for AVX2.
#include "dist/euclidean.h"

#if defined(PARISAX_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

namespace parisax {

namespace {

inline float HorizontalSum(__m256 acc) {
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_hadd_ps(s, s);
  s = _mm_hadd_ps(s, s);
  return _mm_cvtss_f32(s);
}

}  // namespace

float SquaredEuclideanAvx2(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    const __m256 d = _mm256_sub_ps(va, vb);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
  }
  float sum = HorizontalSum(acc);
  for (; i < n; ++i) {  // tail: n not a multiple of 8
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

float SquaredEuclideanEarlyAbandonAvx2(const float* a, const float* b,
                                       size_t n, float bound) {
  if (bound <= 0.0f) return 0.0f;  // every partial sum already >= bound
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  // Two vectors per abandon checkpoint; the accumulator stays in
  // registers and is only reduced horizontally for the bound comparison.
  static_assert(kEarlyAbandonBlock == 16,
                "the unrolled pair below assumes 16-point checkpoints");
  for (; i + kEarlyAbandonBlock <= n; i += kEarlyAbandonBlock) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                    _mm256_loadu_ps(b + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                                    _mm256_loadu_ps(b + i + 8));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(d0, d0));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(d1, d1));
    const float partial = HorizontalSum(acc);
    if (partial >= bound) return partial;  // abandoned: >= bound
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                   _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
  }
  float sum = HorizontalSum(acc);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

}  // namespace parisax

#endif  // PARISAX_HAVE_AVX2 && __AVX2__

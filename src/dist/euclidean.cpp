// Scalar kernel and policy dispatch. This translation unit is compiled
// WITHOUT -mavx2 so that scalar code never emits AVX2 instructions and
// the kAuto/kScalar paths stay safe on CPUs without AVX2; the AVX2
// kernel lives in euclidean_avx2.cpp.
#include "dist/euclidean.h"

#include <algorithm>

namespace parisax {

namespace {

inline bool UseAvx2(KernelPolicy policy) {
  switch (policy) {
    case KernelPolicy::kScalar:
      return false;
    case KernelPolicy::kAuto:
    case KernelPolicy::kAvx2:
      return SimdAvailable();
  }
  return false;
}

inline float KernelRun(const float* a, const float* b, size_t n,
                       bool use_avx2) {
#ifdef PARISAX_HAVE_AVX2
  if (use_avx2) return SquaredEuclideanAvx2(a, b, n);
#else
  (void)use_avx2;
#endif
  return SquaredEuclideanScalar(a, b, n);
}

}  // namespace

bool SimdAvailable() {
#ifdef PARISAX_HAVE_AVX2
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
#else
  return false;
#endif
}

float SquaredEuclideanScalar(const float* a, const float* b, size_t n) {
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

float SquaredEuclidean(const float* a, const float* b, size_t n,
                       KernelPolicy policy) {
  return KernelRun(a, b, n, UseAvx2(policy));
}

float SquaredEuclideanEarlyAbandon(const float* a, const float* b, size_t n,
                                   float bound, KernelPolicy policy) {
#ifdef PARISAX_HAVE_AVX2
  if (UseAvx2(policy)) {
    return SquaredEuclideanEarlyAbandonAvx2(a, b, n, bound);
  }
#else
  (void)policy;
#endif
  // One running sum in point order, checked every block: a distance
  // that is not abandoned has exactly SquaredEuclideanScalar's bits.
  float sum = 0.0f;
  size_t i = 0;
  while (i < n) {
    if (sum >= bound) return sum;  // abandoned: result is >= bound
    const size_t end = std::min(i + kEarlyAbandonBlock, n);
    for (; i < end; ++i) {
      const float d = a[i] - b[i];
      sum += d * d;
    }
  }
  return sum;
}

}  // namespace parisax

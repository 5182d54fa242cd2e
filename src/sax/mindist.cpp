// Node-word bounds, the per-query bound table, its scalar kernels and the
// kernel dispatch. This translation unit is compiled WITHOUT -mavx2 (the
// AVX2 kernel lives in mindist_avx2.cpp), so the kScalar path stays safe
// on CPUs without AVX2.
#include "sax/mindist.h"

#include <algorithm>
#include <cstddef>

#include "sax/breakpoints.h"

namespace parisax {

namespace {

/// Squared distance from point `p` to interval [lo, hi] (0 if inside).
/// Branch-free: at most one of lo - p and p - hi is positive.
inline float GapSq(float p, float lo, float hi) {
  const float d = std::max(std::max(lo - p, p - hi), 0.0f);
  return d * d;
}

/// Squared distance between interval [alo, ahi] and interval [blo, bhi].
inline float IntervalGapSq(float alo, float ahi, float blo, float bhi) {
  const float d = std::max(std::max(blo - ahi, alo - bhi), 0.0f);
  return d * d;
}

inline float Scale(int w, size_t n) {
  return static_cast<float>(n) / static_cast<float>(w);
}

}  // namespace

float MinDistPaaToWordSq(const float* query_paa, const SaxWord& word, int w,
                         size_t n) {
  const BreakpointTable& table = BreakpointTable::Get();
  float sum = 0.0f;
  for (int s = 0; s < w; ++s) {
    const int bits = word.bits[s];
    const uint32_t sym = word.symbols[s];
    sum += GapSq(query_paa[s], table.RegionLow(bits, sym),
                 table.RegionHigh(bits, sym));
  }
  return sum * Scale(w, n);
}

float MinDistEnvelopePaaToWordSq(const float* env_lower_paa,
                                 const float* env_upper_paa,
                                 const SaxWord& word, int w, size_t n) {
  const BreakpointTable& table = BreakpointTable::Get();
  float sum = 0.0f;
  for (int s = 0; s < w; ++s) {
    const int bits = word.bits[s];
    const uint32_t sym = word.symbols[s];
    sum += IntervalGapSq(env_lower_paa[s], env_upper_paa[s],
                         table.RegionLow(bits, sym),
                         table.RegionHigh(bits, sym));
  }
  return sum * Scale(w, n);
}

void SymbolBoundTable::BuildEd(const float* query_paa, int w, size_t n) {
  const BreakpointTable& table = BreakpointTable::Get();
  w_ = w;
  scale_ = Scale(w, n);
  for (int s = 0; s < w; ++s) {
    const float p = query_paa[s];
    for (int bits = 1; bits <= kMaxCardBits; ++bits) {
      float* row = lut_[s] + BoundSlot(bits, 0);
      for (int sym = 0; sym < (1 << bits); ++sym) {
        row[sym] =
            GapSq(p, table.RegionLow(bits, sym), table.RegionHigh(bits, sym));
      }
    }
  }
}

void SymbolBoundTable::BuildEnvelope(const float* env_lower_paa,
                                     const float* env_upper_paa, int w,
                                     size_t n) {
  const BreakpointTable& table = BreakpointTable::Get();
  w_ = w;
  scale_ = Scale(w, n);
  for (int s = 0; s < w; ++s) {
    const float lo = env_lower_paa[s];
    const float hi = env_upper_paa[s];
    for (int bits = 1; bits <= kMaxCardBits; ++bits) {
      float* row = lut_[s] + BoundSlot(bits, 0);
      for (int sym = 0; sym < (1 << bits); ++sym) {
        row[sym] = IntervalGapSq(lo, hi, table.RegionLow(bits, sym),
                                 table.RegionHigh(bits, sym));
      }
    }
  }
}

void SymbolBoundTable::Bounds(const void* first, size_t stride, size_t count,
                              float* out, KernelPolicy policy) const {
  const auto* rows = static_cast<const uint8_t*>(first);
#ifdef PARISAX_HAVE_AVX2
  if (policy != KernelPolicy::kScalar && SimdAvailable()) {
    SymbolBoundsAvx2(*this, rows, stride, count, out);
    return;
  }
#else
  (void)policy;
#endif
  SymbolBoundsScalar(*this, rows, stride, count, out);
}

void SymbolBoundTable::WordBounds(const void* first, size_t stride,
                                  size_t count, float* out,
                                  KernelPolicy policy) const {
  const auto* rows = static_cast<const uint8_t*>(first);
#ifdef PARISAX_HAVE_AVX2
  if (policy != KernelPolicy::kScalar && SimdAvailable()) {
    WordBoundsAvx2(*this, rows, stride, count, out);
    return;
  }
#else
  (void)policy;
#endif
  WordBoundsScalar(*this, rows, stride, count, out);
}

void SymbolBoundsScalar(const SymbolBoundTable& table, const uint8_t* first,
                        size_t stride, size_t count, float* out) {
  const int w = table.segments();
  const float scale = table.scale();
  for (size_t r = 0; r < count; ++r) {
    const uint8_t* sym = first + r * stride;
    float sum = 0.0f;
    for (int s = 0; s < w; ++s) sum += table.FullRow(s)[sym[s]];
    out[r] = sum * scale;
  }
}

void WordBoundsScalar(const SymbolBoundTable& table, const uint8_t* first,
                      size_t stride, size_t count, float* out) {
  static_assert(offsetof(SaxWord, bits) == kMaxSegments);
  const int w = table.segments();
  const float scale = table.scale();
  for (size_t r = 0; r < count; ++r) {
    const uint8_t* sym = first + r * stride;
    const uint8_t* bits = sym + kMaxSegments;
    float sum = 0.0f;
    for (int s = 0; s < w; ++s) sum += table.Row(s)[BoundSlot(bits[s], sym[s])];
    out[r] = sum * scale;
  }
}

}  // namespace parisax

// AVX2 kernel for SymbolBoundTable::Bounds. Like euclidean_avx2.cpp this
// is compiled with -mavx2 alone (see CMakeLists.txt), and deliberately
// uses no FMA: each lane adds its table entries in segment order with
// plain adds and applies the scale last, exactly as the scalar kernel
// does, so both produce the same bits.
#include "sax/mindist.h"

#if defined(PARISAX_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

namespace parisax {

namespace {

/// Adds lut[segment][symbol] per lane, where each lane's symbol is byte
/// `Byte` of its 32-bit word.
template <int Byte>
inline __m256 AddSegment(__m256 acc, const float* segment_lut,
                         __m256i words) {
  const __m256i symbols = _mm256_and_si256(
      _mm256_srli_epi32(words, 8 * Byte), _mm256_set1_epi32(0xFF));
  return _mm256_add_ps(acc, _mm256_i32gather_ps(segment_lut, symbols, 4));
}

}  // namespace

void SymbolBoundsAvx2(const SymbolBoundTable& table, const uint8_t* first,
                      size_t stride, size_t count, float* out) {
  const float* lut = table.data();
  const int w = table.segments();
  const __m256 scale = _mm256_set1_ps(table.scale());
  // Byte offsets of eight consecutive rows.
  const __m256i row_offsets = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int>(stride)));
  size_t r = 0;
  for (; r + 8 <= count; r += 8) {
    const uint8_t* rows = first + r * stride;
    __m256 acc = _mm256_setzero_ps();
    // One gather fetches symbols s..s+3 of all eight rows; the word stays
    // inside the row's kMaxSegments symbol bytes because s + 3 < 16.
    for (int s = 0; s < w; s += 4) {
      const __m256i words = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(rows + s), row_offsets, 1);
      const float* seg = lut + s * kMaxCardinality;
      acc = AddSegment<0>(acc, seg, words);
      if (s + 1 < w) acc = AddSegment<1>(acc, seg + kMaxCardinality, words);
      if (s + 2 < w) {
        acc = AddSegment<2>(acc, seg + 2 * kMaxCardinality, words);
      }
      if (s + 3 < w) {
        acc = AddSegment<3>(acc, seg + 3 * kMaxCardinality, words);
      }
    }
    _mm256_storeu_ps(out + r, _mm256_mul_ps(acc, scale));
  }
  if (r < count) {
    SymbolBoundsScalar(table, first + r * stride, stride, count - r,
                       out + r);
  }
}

}  // namespace parisax

#endif  // PARISAX_HAVE_AVX2 && __AVX2__

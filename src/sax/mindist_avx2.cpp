// AVX2 kernels for SymbolBoundTable::Bounds and WordBounds. Like
// euclidean_avx2.cpp this is compiled with -mavx2 alone (see
// CMakeLists.txt), and deliberately uses no FMA: each lane adds its table
// entries in segment order with plain adds and applies the scale last,
// exactly as the scalar kernels do, so both produce the same bits.
#include "sax/mindist.h"

#if defined(PARISAX_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

namespace parisax {

namespace {

/// Byte `Byte` of each lane's 32-bit word.
template <int Byte>
inline __m256i LaneByte(__m256i words) {
  return _mm256_and_si256(_mm256_srli_epi32(words, 8 * Byte),
                          _mm256_set1_epi32(0xFF));
}

/// Adds lut[segment][symbol] per lane, where each lane's symbol is byte
/// `Byte` of its 32-bit word.
template <int Byte>
inline __m256 AddSegment(__m256 acc, const float* segment_lut,
                         __m256i words) {
  return _mm256_add_ps(
      acc, _mm256_i32gather_ps(segment_lut, LaneByte<Byte>(words), 4));
}

/// Adds row[BoundSlot(bits, symbol)] per lane, where each lane's symbol
/// and bit count are byte `Byte` of its `symbols` and `bits` words.
template <int Byte>
inline __m256 AddWordSegment(__m256 acc, const float* row, __m256i symbols,
                             __m256i bits) {
  const __m256i slots = _mm256_add_epi32(
      _mm256_sllv_epi32(_mm256_set1_epi32(1), LaneByte<Byte>(bits)),
      _mm256_sub_epi32(LaneByte<Byte>(symbols), _mm256_set1_epi32(2)));
  return _mm256_add_ps(acc, _mm256_i32gather_ps(row, slots, 4));
}

/// Byte offsets of eight consecutive rows `stride` bytes apart.
inline __m256i RowOffsets(size_t stride) {
  return _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                            _mm256_set1_epi32(static_cast<int>(stride)));
}

}  // namespace

void SymbolBoundsAvx2(const SymbolBoundTable& table, const uint8_t* first,
                      size_t stride, size_t count, float* out) {
  const int w = table.segments();
  const __m256 scale = _mm256_set1_ps(table.scale());
  const __m256i row_offsets = RowOffsets(stride);
  size_t r = 0;
  for (; r + 8 <= count; r += 8) {
    const uint8_t* rows = first + r * stride;
    __m256 acc = _mm256_setzero_ps();
    // One gather fetches symbols s..s+3 of all eight rows; the word stays
    // inside the row's kMaxSegments symbol bytes because s + 3 < 16.
    for (int s = 0; s < w; s += 4) {
      const __m256i words = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(rows + s), row_offsets, 1);
      acc = AddSegment<0>(acc, table.FullRow(s), words);
      if (s + 1 < w) acc = AddSegment<1>(acc, table.FullRow(s + 1), words);
      if (s + 2 < w) acc = AddSegment<2>(acc, table.FullRow(s + 2), words);
      if (s + 3 < w) acc = AddSegment<3>(acc, table.FullRow(s + 3), words);
    }
    _mm256_storeu_ps(out + r, _mm256_mul_ps(acc, scale));
  }
  if (r < count) {
    SymbolBoundsScalar(table, first + r * stride, stride, count - r,
                       out + r);
  }
}

void WordBoundsAvx2(const SymbolBoundTable& table, const uint8_t* first,
                    size_t stride, size_t count, float* out) {
  const int w = table.segments();
  const __m256 scale = _mm256_set1_ps(table.scale());
  const __m256i row_offsets = RowOffsets(stride);
  size_t r = 0;
  for (; r + 8 <= count; r += 8) {
    const uint8_t* rows = first + r * stride;
    __m256 acc = _mm256_setzero_ps();
    // A SaxWord is kMaxSegments symbol bytes followed by kMaxSegments bit
    // counts: one gather each fetches segments s..s+3 of all eight rows.
    for (int s = 0; s < w; s += 4) {
      const __m256i symbols = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(rows + s), row_offsets, 1);
      const __m256i bits = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(rows + kMaxSegments + s), row_offsets,
          1);
      acc = AddWordSegment<0>(acc, table.Row(s), symbols, bits);
      if (s + 1 < w) {
        acc = AddWordSegment<1>(acc, table.Row(s + 1), symbols, bits);
      }
      if (s + 2 < w) {
        acc = AddWordSegment<2>(acc, table.Row(s + 2), symbols, bits);
      }
      if (s + 3 < w) {
        acc = AddWordSegment<3>(acc, table.Row(s + 3), symbols, bits);
      }
    }
    _mm256_storeu_ps(out + r, _mm256_mul_ps(acc, scale));
  }
  if (r < count) {
    WordBoundsScalar(table, first + r * stride, stride, count - r, out + r);
  }
}

}  // namespace parisax

#endif  // PARISAX_HAVE_AVX2 && __AVX2__

// Lower-bounding distances between a query and iSAX summaries.
//
// All bounds are *squared* distances (compare against squared ED /
// squared-cost DTW) and are guaranteed lower bounds of the corresponding
// true distance -- the correctness foundation of every pruning step in
// ADS+/ParIS/MESSI. The scaling factor n/w comes from the PAA
// lower-bounding lemma (Keogh et al.), carried through to iSAX regions.
//
// The hot paths bound through a per-query SymbolBoundTable. A segment has
// only 2 + 4 + ... + 256 = 510 possible (cardinality, symbol) regions, so
// the per-segment gap is looked up in a table built once per query
// (lut[s][(1 << bits) - 2 + sym]) instead of being recomputed per summary;
// a bound is then w table reads and w adds. Two shapes of bound read it:
//  - Full-cardinality summaries (the flat SAX array of ParIS/ADS+ and
//    MESSI leaf entries): Bound()/Bounds() read the 8-bit rows.
//  - Node words (variable cardinality; MESSI's per-tree leaf directory):
//    WordBounds() reads the row of each segment's cardinality (1..8 bits).
// MinDistPaaToWordSq and MinDistEnvelopePaaToWordSq remain the one-call
// forms for the cold paths (the approximate search's root fallback).
//
// Bit-identity contract: every table bound is exactly the float the
// per-summary formula
//   (sum over s = 0..w-1 of GapSq(paa[s], region(bits_s, sym_s))) * (n / w)
// produces -- the table stores the same per-segment gaps (computed from
// the same region edges), every lane adds them in segment order 0..w-1
// starting from 0, and the scale is applied last. The scalar and AVX2
// kernels therefore agree bit for bit with each other and with
// MinDistPaaToWordSq / MinDistEnvelopePaaToWordSq, so the kernel choice
// never changes a pruning decision.
#ifndef PARISAX_SAX_MINDIST_H_
#define PARISAX_SAX_MINDIST_H_

#include <cstddef>
#include <cstdint>

#include "dist/euclidean.h"
#include "sax/word.h"

namespace parisax {

/// mindist(PAA(query), iSAX word)^2: lower bound on ED(query, any series
/// whose summary lies in `word`'s region)^2. Used to prune tree nodes.
float MinDistPaaToWordSq(const float* query_paa, const SaxWord& word, int w,
                         size_t n);

/// DTW variant against an iSAX word: lower-bounds DTW(query, series)^2
/// for every series in the region, given the PAA of the query's
/// lower/upper Sakoe-Chiba envelopes (see dist/dtw.h). Analogue of
/// LB_PAA from Keogh's exact DTW indexing.
float MinDistEnvelopePaaToWordSq(const float* env_lower_paa,
                                 const float* env_upper_paa,
                                 const SaxWord& word, int w, size_t n);

/// Table slots per segment: one row per cardinality 2^1..2^8, the row of
/// b bits starting at slot (1 << b) - 2.
inline constexpr int kBoundSlots = 2 * kMaxCardinality - 2;

/// Slot of symbol `sym` at `bits` (1..8) bits of cardinality.
inline constexpr int BoundSlot(int bits, int sym) {
  return (1 << bits) - 2 + sym;
}

/// Per-query lower-bound table over every (cardinality, symbol) region:
/// the hot path that filters the flat SAX array (ParIS/ADS+), MESSI leaf
/// entries and MESSI's leaf directory. Build it once per query, then
/// share it read-only between any number of workers.
class SymbolBoundTable {
 public:
  /// ED bounds: entry [s][BoundSlot(b, sym)] is the squared gap between
  /// query PAA segment s and the region of symbol sym at b bits.
  void BuildEd(const float* query_paa, int w, size_t n);

  /// DTW bounds: entry [s][BoundSlot(b, sym)] is the squared gap between
  /// the query's envelope PAA interval [lower, upper] of segment s and
  /// the region of symbol sym at b bits.
  void BuildEnvelope(const float* env_lower_paa, const float* env_upper_paa,
                     int w, size_t n);

  /// The bound of one full-cardinality summary.
  float Bound(const SaxSymbols& sax) const {
    float sum = 0.0f;
    for (int s = 0; s < w_; ++s) sum += FullRow(s)[sax.symbols[s]];
    return sum * scale_;
  }

  /// Bounds of `count` rows: row r's symbols are the kMaxSegments bytes
  /// at `first + r * stride` (a SaxSymbols, or a record that starts with
  /// one such as LeafEntry). out[r] receives row r's bound, bit-equal to
  /// Bound() under every kernel policy.
  void Bounds(const void* first, size_t stride, size_t count, float* out,
              KernelPolicy policy = KernelPolicy::kAuto) const;

  /// Bounds of `count` node words (every segment at 1..8 bits): row r
  /// is the SaxWord at `first + r * stride` (a SaxWord, or a record that
  /// starts with one such as SaxTree's LeafDirEntry). out[r] receives
  /// row r's bound, bit-equal under every kernel policy.
  void WordBounds(const void* first, size_t stride, size_t count, float* out,
                  KernelPolicy policy = KernelPolicy::kAuto) const;

  int segments() const { return w_; }
  float scale() const { return scale_; }
  /// Segment s's kBoundSlots slots; row s + 1 follows kBoundSlots later.
  const float* Row(int s) const { return lut_[s]; }
  /// Segment s's full-cardinality (8-bit) row, indexed by symbol.
  const float* FullRow(int s) const {
    return lut_[s] + BoundSlot(kMaxCardBits, 0);
  }

 private:
  int w_ = 0;
  float scale_ = 0.0f;
  alignas(32) float lut_[kMaxSegments][kBoundSlots];
};

/// Portable kernels behind SymbolBoundTable::Bounds / WordBounds.
void SymbolBoundsScalar(const SymbolBoundTable& table, const uint8_t* first,
                        size_t stride, size_t count, float* out);
void WordBoundsScalar(const SymbolBoundTable& table, const uint8_t* first,
                      size_t stride, size_t count, float* out);

#ifdef PARISAX_HAVE_AVX2
/// AVX2 kernels: eight rows per step, symbols (and bit counts) and table
/// entries fetched with gathers. Caller must ensure SimdAvailable().
void SymbolBoundsAvx2(const SymbolBoundTable& table, const uint8_t* first,
                      size_t stride, size_t count, float* out);
void WordBoundsAvx2(const SymbolBoundTable& table, const uint8_t* first,
                    size_t stride, size_t count, float* out);
#endif

}  // namespace parisax

#endif  // PARISAX_SAX_MINDIST_H_

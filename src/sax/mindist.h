// Lower-bounding distances between a query and iSAX summaries.
//
// All bounds are *squared* distances (compare against squared ED /
// squared-cost DTW) and are guaranteed lower bounds of the corresponding
// true distance -- the correctness foundation of every pruning step in
// ADS+/ParIS/MESSI. The scaling factor n/w comes from the PAA
// lower-bounding lemma (Keogh et al.), carried through to iSAX regions.
//
// Two shapes of bound:
//  - Node words (variable cardinality): MinDistPaaToWordSq and
//    MinDistEnvelopePaaToWordSq, one call per visited tree node.
//  - Full-cardinality summaries (the flat SAX array of ParIS/ADS+ and
//    MESSI leaf entries): a per-query SymbolBoundTable. Every segment
//    has only 256 possible symbols, so the per-segment gap is looked up
//    in a table built once per query (lut[s][sym]) instead of being
//    recomputed per series; a bound is then w table reads and w adds.
//
// Bit-identity contract: SymbolBoundTable::Bound()/Bounds() return
// exactly the float the per-series formula
//   (sum over s = 0..w-1 of GapSq(paa[s], region(8, sym_s))) * (n / w)
// produces -- the table stores the same per-segment gaps, every lane
// adds them in segment order 0..w-1 starting from 0, and the scale is
// applied last. The scalar and AVX2 kernels therefore agree bit for bit
// with each other and with MinDistPaaToWordSq at 8 bits per segment, so
// the kernel choice never changes a pruning decision.
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

/// Per-query lower-bound table over full-cardinality (8-bit) symbols:
/// the hot path that filters the flat SAX array (ParIS/ADS+) and leaf
/// entries (MESSI). Build it once per query, then share it read-only
/// between any number of workers.
class SymbolBoundTable {
 public:
  /// ED bounds: entry [s][sym] is the squared gap between query PAA
  /// segment s and symbol sym's region.
  void BuildEd(const float* query_paa, int w, size_t n);

  /// DTW bounds: entry [s][sym] is the squared gap between the query's
  /// envelope PAA interval [lower, upper] of segment s and symbol sym's
  /// region.
  void BuildEnvelope(const float* env_lower_paa, const float* env_upper_paa,
                     int w, size_t n);

  /// The bound of one summary.
  float Bound(const SaxSymbols& sax) const {
    float sum = 0.0f;
    for (int s = 0; s < w_; ++s) sum += lut_[s][sax.symbols[s]];
    return sum * scale_;
  }

  /// Bounds of `count` rows: row r's symbols are the kMaxSegments bytes
  /// at `first + r * stride` (a SaxSymbols, or a record that starts with
  /// one such as LeafEntry). out[r] receives row r's bound, bit-equal to
  /// Bound() under every kernel policy.
  void Bounds(const void* first, size_t stride, size_t count, float* out,
              KernelPolicy policy = KernelPolicy::kAuto) const;

  int segments() const { return w_; }
  float scale() const { return scale_; }
  /// Row-major [kMaxSegments][kMaxCardinality] table (rows >= w unused).
  const float* data() const { return &lut_[0][0]; }

 private:
  int w_ = 0;
  float scale_ = 0.0f;
  alignas(32) float lut_[kMaxSegments][kMaxCardinality];
};

/// Portable kernel behind SymbolBoundTable::Bounds.
void SymbolBoundsScalar(const SymbolBoundTable& table, const uint8_t* first,
                        size_t stride, size_t count, float* out);

#ifdef PARISAX_HAVE_AVX2
/// AVX2 kernel: eight rows per step, symbols and table entries fetched
/// with gathers. Caller must ensure SimdAvailable().
void SymbolBoundsAvx2(const SymbolBoundTable& table, const uint8_t* first,
                      size_t stride, size_t count, float* out);
#endif

}  // namespace parisax

#endif  // PARISAX_SAX_MINDIST_H_

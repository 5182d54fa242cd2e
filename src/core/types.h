// Fundamental value and view types shared by every parisax module.
#ifndef PARISAX_CORE_TYPES_H_
#define PARISAX_CORE_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace parisax {

/// Data series element type. The systems reproduced here (ParIS/MESSI, and
/// the iSAX family before them) all operate on 32-bit floats.
using Value = float;

/// Read-only view of one data series (length = number of points).
using SeriesView = std::span<const Value>;

/// Mutable view of one data series.
using MutableSeriesView = std::span<Value>;

/// Index of a series within a dataset (supports collections > 4B series).
using SeriesId = uint64_t;

/// Result of a nearest-neighbor search: the matching series and its
/// distance to the query. Distances throughout parisax are *squared*
/// Euclidean (or squared-ED-equivalent DTW) unless a function says
/// otherwise; callers take sqrt at the API boundary.
struct Neighbor {
  SeriesId id = 0;
  float distance_sq = 0.0f;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// The one result order of every search: ascending distance, ties broken
/// by the smaller id. Exact answers are deterministic under it, so any
/// two engines (or shards, or executors) agree byte for byte.
inline bool Closer(const Neighbor& a, const Neighbor& b) {
  return a.distance_sq < b.distance_sq ||
         (a.distance_sq == b.distance_sq && a.id < b.id);
}

}  // namespace parisax

#endif  // PARISAX_CORE_TYPES_H_

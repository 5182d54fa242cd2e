#include "index/approx_search.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "sax/mindist.h"

namespace parisax {

namespace {

/// Shared core: `fetch(id, &view)` resolves a series id to its raw
/// values. `seek_bound` enables the probe-limit + position-order
/// treatment for seek-bound devices.
template <typename Fetch>
Result<Neighbor> LeafSearchImpl(const SaxTree& tree, LeafStorage* storage,
                                bool seek_bound, SeriesView query,
                                const float* paa, const SaxSymbols& sax,
                                KernelPolicy kernel, QueryStats* stats,
                                Fetch&& fetch) {
  Neighbor best{0, std::numeric_limits<float>::infinity()};
  Node* leaf = tree.ApproximateLeaf(sax, paa);
  if (leaf == nullptr) return best;

  std::vector<LeafEntry> entries;
  PARISAX_RETURN_IF_ERROR(CollectLeafEntries(*leaf, storage, &entries));
  // On a seek-bound device, probing every leaf member would cost a seek
  // each; probe only the members whose summaries are closest to the
  // query (the BSF seed just gets slightly looser, exactness is
  // unaffected).
  constexpr size_t kSeekBoundProbeLimit = 32;
  std::vector<SeriesId> ids(entries.size());
  if (seek_bound && entries.size() > kSeekBoundProbeLimit) {
    SymbolBoundTable table;
    table.BuildEd(paa, tree.options().segments, tree.options().series_length);
    std::vector<float> lbs(entries.size());
    table.Bounds(entries.data(), sizeof(LeafEntry), entries.size(),
                 lbs.data(), kernel);
    // (bound, id) is a total order, so the probed members do not depend
    // on the leaf's entry order.
    std::vector<std::pair<float, SeriesId>> ranked(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      ranked[i] = {lbs[i], entries[i].id};
    }
    std::partial_sort(ranked.begin(), ranked.begin() + kSeekBoundProbeLimit,
                      ranked.end());
    ids.resize(kSeekBoundProbeLimit);
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = ranked[i].second;
  } else {
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = entries[i].id;
  }
  // Fetch raw series in position order: on disk this turns the leaf's
  // scattered reads into a forward sweep.
  std::sort(ids.begin(), ids.end());
  for (const SeriesId id : ids) {
    SeriesView view;
    PARISAX_RETURN_IF_ERROR(fetch(id, &view));
    const float d =
        SquaredEuclideanEarlyAbandon(query, view, best.distance_sq, kernel);
    if (stats != nullptr) stats->real_dist_calcs++;
    if (Closer(Neighbor{id, d}, best)) best = Neighbor{id, d};
  }
  if (stats != nullptr) stats->leaves_inspected++;
  return best;
}

}  // namespace

Result<Neighbor> ApproximateLeafSearch(const SaxTree& tree,
                                       LeafStorage* storage,
                                       const RawSeriesSource& source,
                                       SeriesView query, const float* paa,
                                       const SaxSymbols& sax,
                                       KernelPolicy kernel,
                                       QueryStats* stats) {
  std::vector<Value> buffer(source.length());
  return LeafSearchImpl(
      tree, storage, source.PrefersSequentialAccess(), query, paa, sax,
      kernel, stats, [&](SeriesId id, SeriesView* view) -> Status {
        *view = source.TryView(id);
        if (view->empty()) {
          PARISAX_RETURN_IF_ERROR(source.GetSeries(id, buffer.data()));
          *view = SeriesView(buffer.data(), buffer.size());
        }
        return Status::OK();
      });
}

Result<Neighbor> ApproximateLeafSearch(const SaxTree& tree,
                                       LeafStorage* storage,
                                       const RawDataView& raw,
                                       SeriesView query, const float* paa,
                                       const SaxSymbols& sax,
                                       KernelPolicy kernel,
                                       QueryStats* stats) {
  return LeafSearchImpl(tree, storage, /*seek_bound=*/false, query, paa,
                        sax, kernel, stats,
                        [&](SeriesId id, SeriesView* view) -> Status {
                          *view = raw.series(id);
                          return Status::OK();
                        });
}

}  // namespace parisax

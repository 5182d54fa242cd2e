// The serving core shared by MESSI and ParIS/ParIS+: one iSAX index
// served as an immutable snapshot (a bulk-built base tree plus ordered
// delta segments, src/index/segment.h), and the one lifecycle that
// grows, compacts and probes it.
//
// Both indexes are the same structure queried the same way — an
// approximate seed from the query's own leaf, a lower-bound prune, then
// refinement (the paper's Figs. 2/3) — and differ only in how they build
// the base and in their exact searches (MESSI's tree-guided priority
// queues, ParIS's flat-SAX filter). Everything else lives here, once:
// appending a segment, folding segments into the base, merging a segment
// run, the base+segments approximate probe, and the serving accessors.
// Whether segments carry flat-SAX rows and whether a fold rebuilds the
// base's FlatSaxCache is read from the snapshot itself (ParIS snapshots
// have a cache, MESSI's do not).
#ifndef PARISAX_INDEX_SEGMENTED_INDEX_H_
#define PARISAX_INDEX_SEGMENTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/euclidean.h"
#include "index/leaf_storage.h"
#include "index/query_stats.h"
#include "index/raw_source.h"
#include "index/segment.h"
#include "index/tree.h"
#include "util/status.h"
#include "util/threading.h"

namespace parisax {

class SegmentedIndex {
 public:
  /// Incremental ingest: appends `count` series (count * length values,
  /// row-major, already z-normalized) to the owned source, then builds
  /// an immutable delta segment over just the new ids (with flat-SAX
  /// rows when the snapshot has a cache) and publishes it onto the
  /// serving snapshot. `touched_roots` (optional) receives the ascending
  /// root keys the segment populated. Queries over an addressable
  /// source proceed concurrently (they keep the snapshot they captured
  /// at entry); callers serialize appends with each other (the Engine
  /// append mutex does). Requires source().appendable().
  Status Append(const Value* values, size_t count, Executor* exec,
                std::vector<uint32_t>* touched_roots = nullptr);

  /// Folds the first `folded` segments of `snap` into a fresh base (and
  /// a fresh flat-SAX cache when `snap` has one) and splices it in. Runs
  /// entirely off the serving path; the splice is discarded (returns
  /// false) if the serving state's base or folded segments changed
  /// since `snap` was captured. Safe to run concurrently with queries
  /// and appends.
  Result<bool> FoldSegments(const std::shared_ptr<const ServingState>& snap,
                            size_t folded, Executor* exec);

  /// Minor compaction: merges the first `folded` segments of `snap` into
  /// one segment (same discard semantics as FoldSegments).
  Result<bool> MergeSegmentRun(
      const std::shared_ptr<const ServingState>& snap, size_t folded,
      Executor* exec);

  /// The segment covering ids [first, snap->count): an existing segment
  /// with exactly that range is reused; otherwise the covering entries
  /// are re-sectioned into a fresh one (merged segments may straddle
  /// `first`). Requires snap->base_count <= first <= snap->count.
  Result<std::shared_ptr<const Segment>> SegmentSince(
      const ServingState& snap, SeriesId first, Executor* exec) const;

  /// Approximate 1-NN: best real distance within the matching leaf of
  /// the base and of every segment.
  Result<Neighbor> SearchApproximate(SeriesView query,
                                     QueryStats* stats = nullptr) const;

  /// Current serving snapshot (base + segments). Cheap: copies one
  /// shared_ptr under a brief lock.
  std::shared_ptr<const ServingState> serving() const { return dock_.get(); }

  /// Base tree of the current snapshot. For quiescent callers (tests,
  /// invariant checks): the reference is only stable while nothing
  /// publishes a new snapshot.
  const SaxTree& tree() const { return *dock_.get()->base; }
  const SaxTreeOptions& tree_options() const { return tree_options_; }
  /// Series in the indexed collection (as of the current snapshot).
  size_t series_count() const { return dock_.get()->count; }
  /// The raw series the index answers queries against.
  const RawSeriesSource& source() const { return *source_; }
  /// Materialized leaves of a streamed ParIS+ build; null otherwise.
  LeafStorage* leaf_storage() const { return leaf_storage_.get(); }

 protected:
  /// `build_tree` is the owning index's TreeStats, whose total_entries
  /// Append keeps current (the other shape stats reflect the last full
  /// build).
  SegmentedIndex(const SaxTreeOptions& tree_options, TreeStats* build_tree)
      : tree_options_(tree_options), build_tree_(build_tree) {}
  /// Indexes are owned (and deleted) as MessiIndex / ParisIndex, never
  /// through this base.
  ~SegmentedIndex() = default;

  /// Takes ownership of `source` after checking its series length.
  Status AttachSource(std::unique_ptr<RawSeriesSource> source);

  /// Approximate probe merged across the snapshot's base and segments:
  /// the BSF seed of the exact searches. Addressable snapshots read
  /// through the pinned raw view (gate-free); streamed ones go through
  /// the source.
  Result<Neighbor> ProbeAllTrees(const ServingState& snap, SeriesView query,
                                 const float* paa, const SaxSymbols& sax,
                                 KernelPolicy kernel,
                                 QueryStats* stats) const;

  SaxTreeOptions tree_options_;
  std::unique_ptr<RawSeriesSource> source_;
  std::unique_ptr<LeafStorage> leaf_storage_;
  /// The serving snapshot publication point (see segment.h).
  ServingDock dock_;

 private:
  TreeStats* const build_tree_;
};

}  // namespace parisax

#endif  // PARISAX_INDEX_SEGMENTED_INDEX_H_

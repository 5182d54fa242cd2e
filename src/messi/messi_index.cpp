#include "messi/messi_index.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <queue>
#include <span>
#include <utility>

#include "dist/dtw.h"
#include "index/approx_search.h"
#include "index/knn_heap.h"
#include "messi/isax_buffers.h"
#include "sax/mindist.h"
#include "sax/paa.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace parisax {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

struct QueueItem {
  float lb = 0.0f;
  Node* leaf = nullptr;
};

struct QueueItemGreater {
  bool operator()(const QueueItem& a, const QueueItem& b) const {
    return a.lb > b.lb;
  }
};

/// One of the K shared minimum priority queues of Stage 3.
struct SharedQueue {
  Mutex mu{"SharedQueue::mu", LockRank::kQueryQueue};
  std::priority_queue<QueueItem, std::vector<QueueItem>, QueueItemGreater> pq
      PARISAX_GUARDED_BY(mu);
  bool done PARISAX_GUARDED_BY(mu) = false;
};

/// One worker's pruning counters. Each worker owns a cache line, so the
/// hot loops bump plain integers; RunQueuedSearch sums them once after
/// the parallel regions.
struct alignas(64) SearchCounters {
  uint64_t lb_checks = 0;
  uint64_t real_dist_calcs = 0;
  uint64_t nodes_visited = 0;
  uint64_t leaves_inspected = 0;
  uint64_t queue_abandons = 0;

  void FlushInto(QueryStats* stats) const {
    stats->lb_checks += lb_checks;
    stats->real_dist_calcs += real_dist_calcs;
    stats->nodes_visited += nodes_visited;
    stats->leaves_inspected += leaves_inspected;
    stats->queue_abandons += queue_abandons;
  }
};

/// Leaves per Stage 3a block: one batched bound call and one Fetch&Inc.
constexpr size_t kDirectoryGrain = 1024;

/// Leaf pruning + priority-queue consumption shared by the ED-NN,
/// ED-kNN and DTW-NN searches, over one serving snapshot. `table` bounds
/// both node words (Stage 3a) and leaf entries (Stage 3b), each through
/// one batched kernel call per block or leaf. `Policy` supplies the
/// pruning bound and the entry refinement:
///   float Bound() const;
///   void ProcessEntry(const LeafEntry&, float lb, SearchCounters*,
///                     int worker);
/// ProcessEntry compares `lb` against the *current* Bound(), so batching
/// the bounds never weakens pruning. Everything mutable lives in the
/// policy or on this stack frame, so any number of queued searches can
/// run concurrently on different executors.
template <typename Policy>
void RunQueuedSearch(const ServingState& snap, const SymbolBoundTable& table,
                     KernelPolicy kernel, Policy* policy, int num_queues,
                     Executor* exec, QueryStats* stats,
                     const CancellationToken* cancel = nullptr) {
  std::vector<SharedQueue> queues(num_queues);
  std::vector<SearchCounters> counters(exec->num_threads());

  // Stage 3a: the leaf directories of the base and of every segment
  // form one run of leaves pruned against one shared bound — the
  // read-side merge. A leaf's bound is never below any ancestor's (its
  // region lies inside theirs), so bounding every leaf directly keeps
  // exactly the leaves a top-down traversal would reach. Workers claim
  // blocks by Fetch&Inc, bound each with one batched call, and buffer
  // the survivors; each worker then deals its buffer round-robin to the
  // K queues (for load balance, as in the paper) under one lock per
  // queue. Workers poll the cancel token per block and bail out; the
  // caller turns an expired token into kDeadlineExceeded instead of
  // returning the partial bound.
  WallTimer prune_timer;
  std::vector<std::span<const LeafDirEntry>> runs;
  runs.emplace_back(snap.base->LeafDirectory());
  for (const auto& seg : snap.segments) {
    runs.emplace_back(seg->tree.LeafDirectory());
  }
  size_t total_leaves = 0;
  for (const auto& run : runs) total_leaves += run.size();
  WorkCounter block_counter(total_leaves);
  exec->Run([&](int worker) {
    SearchCounters& local = counters[worker];
    std::vector<float> lbs(std::min(kDirectoryGrain, total_leaves));
    std::vector<QueueItem> found;
    size_t begin, end;
    while (block_counter.NextBatch(kDirectoryGrain, &begin, &end)) {
      if (Expired(cancel)) return;
      const float bound = policy->Bound();
      size_t run_first = 0;
      for (const auto& run : runs) {
        const size_t lo = std::max(begin, run_first);
        const size_t hi = std::min(end, run_first + run.size());
        if (lo < hi) {
          const LeafDirEntry* dir = run.data() + (lo - run_first);
          table.WordBounds(dir, sizeof(LeafDirEntry), hi - lo, lbs.data(),
                           kernel);
          local.nodes_visited += hi - lo;
          for (size_t i = 0; i < hi - lo; ++i) {
            if (lbs[i] < bound && !dir[i].leaf->entries().empty()) {
              found.push_back(QueueItem{lbs[i], dir[i].leaf});
            }
          }
        }
        run_first += run.size();
      }
    }
    const size_t k = queues.size();
    for (size_t offset = 0; offset < k && offset < found.size(); ++offset) {
      SharedQueue& q = queues[(worker + offset) % k];
      MutexLock lock(&q.mu);
      for (size_t i = offset; i < found.size(); i += k) q.pq.push(found[i]);
    }
  });
  const double prune_seconds = prune_timer.ElapsedSeconds();

  // Stage 3b: workers consume the queues; a queue whose minimum exceeds
  // the BSF is abandoned wholesale (everything below it is farther).
  WallTimer refine_timer;
  std::atomic<uint64_t> start_counter{0};
  exec->Run([&](int worker) {
    SearchCounters& local = counters[worker];
    std::vector<float> lbs;
    const int k_queues = static_cast<int>(queues.size());
    const int start = static_cast<int>(
        start_counter.fetch_add(1, std::memory_order_relaxed) %
        static_cast<uint64_t>(k_queues));
    for (;;) {
      bool all_done = true;
      for (int offset = 0; offset < k_queues; ++offset) {
        SharedQueue& q = queues[(start + offset) % k_queues];
        for (;;) {
          QueueItem item;
          {
            MutexLock lock(&q.mu);
            if (q.done) break;
            if (q.pq.empty()) {
              q.done = true;
              break;
            }
            item = q.pq.top();
            if (item.lb >= policy->Bound()) {
              q.done = true;
              ++local.queue_abandons;
              break;
            }
            q.pq.pop();
          }
          if (Expired(cancel)) return;
          all_done = false;
          ++local.leaves_inspected;
          const std::vector<LeafEntry>& entries = item.leaf->entries();
          lbs.resize(entries.size());
          table.Bounds(entries.data(), sizeof(LeafEntry), entries.size(),
                       lbs.data(), kernel);
          local.lb_checks += entries.size();
          for (size_t i = 0; i < entries.size(); ++i) {
            policy->ProcessEntry(entries[i], lbs[i], &local, worker);
          }
        }
      }
      if (all_done) return;
    }
  });

  if (stats != nullptr) {
    for (const SearchCounters& c : counters) c.FlushInto(stats);
    stats->filter_phase_seconds = prune_seconds;
    stats->refine_phase_seconds = refine_timer.ElapsedSeconds();
  }
}

/// Thread-safe single best neighbor (1-NN result set). When a shared
/// cross-search bound cell is attached, Bound() folds it in with min()
/// and every improvement (the seed included) is published to it — so
/// the shard router's other searches prune on this search's progress.
/// `best` itself only tracks distances computed *here*, which keeps the
/// merged cross-shard result exact: the cell never drops below the true
/// global answer, so the globally best series is never pruned on its
/// own shard.
struct BestNeighbor {
  BestNeighbor(Neighbor seed, AtomicMinFloat* shared)
      : bsf(seed.distance_sq), shared(shared), best(seed) {
    if (shared != nullptr) shared->UpdateMin(seed.distance_sq);
  }

  float Bound() const {
    const float local = bsf.Load();
    return shared != nullptr ? std::min(local, shared->Load()) : local;
  }

  void Offer(SeriesId id, float d) {
    if (shared != nullptr) shared->UpdateMin(d);
    if (!bsf.UpdateMin(d) && d > bsf.Load()) return;
    MutexLock lock(&mu);
    if (d < best.distance_sq || (d == best.distance_sq && id < best.id)) {
      best = Neighbor{id, d};
    }
  }

  /// Final answer; the searches read it only after the worker fan-in
  /// (Executor::Run has joined), but it still locks for the analysis
  /// and for any future streaming reader.
  Neighbor Take() const {
    MutexLock lock(&mu);
    return best;
  }

  AtomicMinFloat bsf;
  AtomicMinFloat* shared;
  mutable Mutex mu{"BestNeighbor::mu", LockRank::kResultMerge};
  Neighbor best PARISAX_GUARDED_BY(mu);
};

/// Exact-ED 1-NN policy.
struct EdNnPolicy {
  RawDataView raw;
  KernelPolicy kernel;
  SeriesView query;
  BestNeighbor* result;

  float Bound() const { return result->Bound(); }

  void ProcessEntry(const LeafEntry& e, float lb, SearchCounters* counters,
                    int /*worker*/) {
    const float bound = Bound();
    if (lb >= bound) return;
    ++counters->real_dist_calcs;
    const float d = SquaredEuclideanEarlyAbandon(query, raw.series(e.id),
                                                 bound, kernel);
    if (d < bound) result->Offer(e.id, d);
  }
};

/// Exact-ED kNN policy: the bound is the k-th best distance, optionally
/// folded with a shared cross-search bound. Publishing the local heap's
/// bound is sound because every shard's local k-th distance is an upper
/// bound on the global k-th distance.
struct EdKnnPolicy {
  RawDataView raw;
  KernelPolicy kernel;
  SeriesView query;
  KnnHeap* heap;
  AtomicMinFloat* shared;

  float Bound() const {
    const float local = heap->Bound();
    return shared != nullptr ? std::min(local, shared->Load()) : local;
  }

  void ProcessEntry(const LeafEntry& e, float lb, SearchCounters* counters,
                    int /*worker*/) {
    const float bound = Bound();
    if (lb >= bound) return;
    ++counters->real_dist_calcs;
    const float d = SquaredEuclideanEarlyAbandon(query, raw.series(e.id),
                                                 bound, kernel);
    if (d < bound) {
      heap->Update(Neighbor{e.id, d});
      if (shared != nullptr) shared->UpdateMin(heap->Bound());
    }
  }
};

/// Exact-DTW 1-NN policy: envelope-based lower bounds cascade into
/// LB_Keogh and finally early-abandoning banded DTW.
struct DtwNnPolicy {
  RawDataView raw;
  const std::vector<Value>* env_lower;
  const std::vector<Value>* env_upper;
  size_t band;
  SeriesView query;
  BestNeighbor* result;
  /// Per-worker DP arenas owned by the query (one per executor worker),
  /// so concurrent DTW queries never share scratch state.
  std::vector<DtwScratch>* scratches;

  float Bound() const { return result->Bound(); }

  void ProcessEntry(const LeafEntry& e, float lb, SearchCounters* counters,
                    int worker) {
    float bound = Bound();
    if (lb >= bound) return;
    const SeriesView candidate = raw.series(e.id);
    if (LbKeoghSq(*env_lower, *env_upper, candidate, bound) >= bound) return;
    ++counters->real_dist_calcs;
    bound = Bound();
    const float d =
        DtwBand(query, candidate, band, bound, &(*scratches)[worker]);
    if (d < bound) result->Offer(e.id, d);
  }
};

/// Best (distance, id) across `a` and `b`.
Neighbor BetterNeighbor(const Neighbor& a, const Neighbor& b) {
  if (b.distance_sq < a.distance_sq ||
      (b.distance_sq == a.distance_sq && b.id < a.id)) {
    return b;
  }
  return a;
}

/// Approximate probe merged across the snapshot's base and segments:
/// the BSF seed for the exact searches.
Result<Neighbor> ProbeAllTrees(const ServingState& snap, SeriesView query,
                               const float* paa, const SaxSymbols& sax,
                               KernelPolicy kernel, QueryStats* stats) {
  Neighbor best{0, kInf};
  Neighbor cand;
  PARISAX_ASSIGN_OR_RETURN(
      cand, ApproximateLeafSearch(*snap.base, /*storage=*/nullptr, snap.raw,
                                  query, paa, sax, kernel, stats));
  best = BetterNeighbor(best, cand);
  for (const auto& seg : snap.segments) {
    PARISAX_ASSIGN_OR_RETURN(
        cand, ApproximateLeafSearch(seg->tree, /*storage=*/nullptr,
                                    snap.raw, query, paa, sax, kernel,
                                    stats));
    best = BetterNeighbor(best, cand);
  }
  return best;
}

}  // namespace

Status MessiIndex::AttachSource(std::unique_ptr<RawSeriesSource> source) {
  if (source->length() != tree_options_.series_length) {
    return Status::InvalidArgument(
        "raw source length does not match the index");
  }
  if (source->ContiguousData() == nullptr && source->count() > 0) {
    return Status::NotSupported(
        "MESSI requires a directly addressable raw source (in-memory or "
        "mmap)");
  }
  source_ = std::move(source);
  return Status::OK();
}

Result<std::unique_ptr<MessiIndex>> MessiIndex::Build(
    std::unique_ptr<RawSeriesSource> source,
    const MessiBuildOptions& options, ThreadPool* pool) {
  if (source == nullptr) {
    return Status::InvalidArgument("source must not be null");
  }
  if (source->length() != options.tree.series_length) {
    return Status::InvalidArgument(
        "tree.series_length does not match the source");
  }
  if (pool->num_threads() < options.num_workers) {
    return Status::InvalidArgument(
        "thread pool is smaller than num_workers");
  }
  WallTimer wall;
  auto index = std::unique_ptr<MessiIndex>(new MessiIndex(options.tree));
  const size_t total_series = source->count();
  PARISAX_RETURN_IF_ERROR(index->AttachSource(std::move(source)));
  // Stage 1 reads through the hot-path view, so an mmap-backed source is
  // summarized straight off the page cache (no in-RAM copy).
  const RawDataView raw{index->source_->ContiguousData(),
                        options.tree.series_length};
  const int w = options.tree.segments;

  auto base = std::make_shared<SaxTree>(options.tree);
  IsaxBufferSet buffers(w, pool->num_threads(), options.locked_buffers);

  // Stage 1: summarization into the iSAX buffers, chunks by Fetch&Inc.
  WallTimer summarize_timer;
  {
    WorkCounter chunks(total_series);
    pool->Run([&](int worker) {
      float paa[kMaxSegments];
      size_t begin, end;
      while (chunks.NextBatch(options.chunk_series, &begin, &end)) {
        for (SeriesId i = begin; i < end; ++i) {
          ComputePaa(raw.series(i), w, paa);
          LeafEntry entry;
          entry.id = i;
          SymbolsFromPaa(paa, w, &entry.sax);
          buffers.Append(worker, RootKey(entry.sax, w), entry);
        }
      }
    });
  }
  index->build_stats_.summarize_wall_seconds =
      summarize_timer.ElapsedSeconds();

  // Stage 2: each worker builds whole root subtrees, claimed by
  // Fetch&Inc; no synchronization inside a subtree.
  WallTimer tree_timer;
  Mutex error_mu{"error_mu", LockRank::kFirstError};
  Status first_error;
  {
    const std::vector<uint32_t> keys = buffers.CollectKeys();
    WorkCounter key_counter(keys.size());
    pool->Run([&](int) {
      std::vector<LeafEntry> gathered;
      size_t item;
      while (key_counter.NextItem(&item)) {
        const uint32_t key = keys[item];
        gathered.clear();
        buffers.Gather(key, &gathered);
        Node* root = base->GetOrCreateRoot(key);
        for (const LeafEntry& e : gathered) {
          const Status st = base->InsertIntoSubtree(root, e, nullptr);
          if (!st.ok()) {
            MutexLock lock(&error_mu);
            if (first_error.ok()) first_error = st;
            return;
          }
        }
      }
    });
  }
  PARISAX_RETURN_IF_ERROR(first_error);
  index->build_stats_.tree_wall_seconds = tree_timer.ElapsedSeconds();

  base->SealRoots();
  index->build_stats_.tree = base->Collect();
  index->build_stats_.wall_seconds = wall.ElapsedSeconds();
  if (index->build_stats_.tree.total_entries != total_series) {
    return Status::Internal("MESSI build lost series");
  }

  auto state = std::make_shared<ServingState>();
  state->base = std::move(base);
  state->base_count = total_series;
  state->raw = raw;
  state->count = total_series;
  index->dock_.Publish(std::move(state));
  return index;
}

Status MessiIndex::Append(const Value* values, size_t count,
                          Executor* exec,
                          std::vector<uint32_t>* touched_roots) {
  if (touched_roots != nullptr) touched_roots->clear();
  if (count == 0) return Status::OK();
  const SeriesId first = dock_.get()->count;

  // Grow the source first (the source retires — never frees — the
  // buffers behind published raw views), then build the segment from
  // the caller's values and publish both in one atomic step. Queries
  // keep whichever snapshot they captured.
  PARISAX_RETURN_IF_ERROR(source_->AppendSeries(values, count));
  std::shared_ptr<const Segment> segment;
  PARISAX_ASSIGN_OR_RETURN(
      segment, BuildSegment(values, count, first, tree_options_,
                            /*with_sax_rows=*/false, exec));
  if (touched_roots != nullptr) {
    *touched_roots = segment->tree.PresentRoots();
  }
  dock_.PublishAppend(std::move(segment),
                      RawDataView{source_->ContiguousData(),
                                  tree_options_.series_length},
                      source_->count());
  // O(batch) bookkeeping: only total_entries is maintained
  // incrementally; the other shape stats reflect the last full build.
  build_stats_.tree.total_entries += count;
#ifndef NDEBUG
  {
    const auto snap = dock_.get();
    size_t total = snap->base->Collect().total_entries;
    for (const auto& seg : snap->segments) {
      total += seg->tree.Collect().total_entries;
    }
    assert(total == snap->count);
  }
#endif
  return Status::OK();
}

Result<bool> MessiIndex::FoldSegments(
    const std::shared_ptr<const ServingState>& snap, size_t folded,
    Executor* exec) {
  if (folded == 0) return true;
  if (folded > snap->segments.size()) {
    return Status::InvalidArgument("fold count exceeds the segment list");
  }
  std::vector<LeafEntry> entries;
  PARISAX_RETURN_IF_ERROR(
      CollectTreeEntries(*snap->base, /*storage=*/nullptr, &entries));
  size_t new_base_count = snap->base_count;
  for (size_t i = 0; i < folded; ++i) {
    PARISAX_RETURN_IF_ERROR(CollectTreeEntries(snap->segments[i]->tree,
                                               /*storage=*/nullptr,
                                               &entries));
    new_base_count += snap->segments[i]->count;
  }
  auto base = std::make_shared<SaxTree>(tree_options_);
  PARISAX_RETURN_IF_ERROR(BuildTreeFromEntries(base.get(), entries, exec));
  if (base->Collect().total_entries != new_base_count) {
    return Status::Internal("MESSI fold lost series");
  }
  return dock_.TryFold(snap, folded, std::move(base), /*cache=*/nullptr,
                       new_base_count);
}

Result<bool> MessiIndex::MergeSegmentRun(
    const std::shared_ptr<const ServingState>& snap, size_t folded,
    Executor* exec) {
  if (folded < 2 || folded > snap->segments.size()) {
    return Status::InvalidArgument("merge run out of range");
  }
  const std::vector<std::shared_ptr<const Segment>> parts(
      snap->segments.begin(), snap->segments.begin() + folded);
  std::shared_ptr<const Segment> merged;
  PARISAX_ASSIGN_OR_RETURN(merged,
                           MergeSegments(parts, tree_options_, exec));
  return dock_.TryMergeSegments(snap, folded, std::move(merged));
}

Result<Neighbor> MessiIndex::SearchApproximate(SeriesView query,
                                               QueryStats* stats) const {
  if (query.size() != tree_options_.series_length) {
    return Status::InvalidArgument("query length does not match the index");
  }
  WallTimer timer;
  const auto snap = dock_.get();
  const int w = tree_options_.segments;
  float paa[kMaxSegments];
  ComputePaa(query, w, paa);
  SaxSymbols sax;
  SymbolsFromPaa(paa, w, &sax);
  auto result =
      ProbeAllTrees(*snap, query, paa, sax, KernelPolicy::kAuto, stats);
  if (stats != nullptr) stats->total_seconds = timer.ElapsedSeconds();
  return result;
}

Result<Neighbor> MessiIndex::SearchExact(SeriesView query,
                                         const MessiQueryOptions& options,
                                         Executor* exec,
                                         QueryStats* stats) const {
  if (query.size() != tree_options_.series_length) {
    return Status::InvalidArgument("query length does not match the index");
  }
  WallTimer total;
  const auto snap = dock_.get();
  const int w = tree_options_.segments;
  const size_t n = tree_options_.series_length;
  float paa[kMaxSegments];
  ComputePaa(query, w, paa);
  SaxSymbols sax;
  SymbolsFromPaa(paa, w, &sax);

  WallTimer approx_timer;
  Neighbor seed;
  PARISAX_ASSIGN_OR_RETURN(
      seed, ProbeAllTrees(*snap, query, paa, sax, options.kernel, stats));
  if (stats != nullptr) {
    stats->approx_phase_seconds = approx_timer.ElapsedSeconds();
  }

  BestNeighbor result(seed, options.shared_bound);
  EdNnPolicy policy{snap->raw, options.kernel, query, &result};
  SymbolBoundTable table;
  table.BuildEd(paa, w, n);
  const int num_queues =
      options.num_queues > 0 ? options.num_queues : options.num_workers;
  RunQueuedSearch(*snap, table, options.kernel, &policy, num_queues, exec,
                  stats, options.cancel);
  if (stats != nullptr) stats->total_seconds = total.ElapsedSeconds();
  if (Expired(options.cancel)) {
    return Status::DeadlineExceeded("query deadline expired mid-search");
  }
  return result.Take();
}

Result<std::vector<Neighbor>> MessiIndex::SearchKnn(
    SeriesView query, size_t k, const MessiQueryOptions& options,
    Executor* exec, QueryStats* stats) const {
  if (query.size() != tree_options_.series_length) {
    return Status::InvalidArgument("query length does not match the index");
  }
  if (k == 0) return Status::InvalidArgument("k must be positive");
  WallTimer total;
  const auto snap = dock_.get();
  const int w = tree_options_.segments;
  const size_t n = tree_options_.series_length;
  float paa[kMaxSegments];
  ComputePaa(query, w, paa);
  SaxSymbols sax;
  SymbolsFromPaa(paa, w, &sax);

  // Seed the heap with every entry of the approximate-match leaf of the
  // base and of each segment.
  KnnHeap heap(k);
  auto seed_from = [&](const SaxTree& tree) {
    Node* leaf = tree.ApproximateLeaf(sax, paa);
    if (leaf == nullptr) return;
    for (const LeafEntry& e : leaf->entries()) {
      const float d = SquaredEuclidean(query, snap->raw.series(e.id),
                                       options.kernel);
      if (stats != nullptr) stats->real_dist_calcs++;
      heap.Update(Neighbor{e.id, d});
    }
  };
  seed_from(*snap->base);
  for (const auto& seg : snap->segments) seed_from(seg->tree);
  if (options.shared_bound != nullptr) {
    options.shared_bound->UpdateMin(heap.Bound());
  }

  EdKnnPolicy policy{snap->raw, options.kernel, query, &heap,
                     options.shared_bound};
  SymbolBoundTable table;
  table.BuildEd(paa, w, n);
  const int num_queues =
      options.num_queues > 0 ? options.num_queues : options.num_workers;
  RunQueuedSearch(*snap, table, options.kernel, &policy, num_queues, exec,
                  stats, options.cancel);
  if (stats != nullptr) stats->total_seconds = total.ElapsedSeconds();
  if (Expired(options.cancel)) {
    return Status::DeadlineExceeded("query deadline expired mid-search");
  }
  return heap.Sorted();
}

Result<Neighbor> MessiIndex::SearchExactDtw(SeriesView query,
                                            const MessiQueryOptions& options,
                                            Executor* exec,
                                            QueryStats* stats) const {
  if (query.size() != tree_options_.series_length) {
    return Status::InvalidArgument("query length does not match the index");
  }
  WallTimer total;
  const auto snap = dock_.get();
  const int w = tree_options_.segments;
  const size_t n = tree_options_.series_length;

  std::vector<Value> env_lower, env_upper;
  ComputeEnvelope(query, options.dtw_band, &env_lower, &env_upper);
  float env_lower_paa[kMaxSegments], env_upper_paa[kMaxSegments];
  ComputeEnvelopePaaMinMax(env_lower, env_upper, w, env_lower_paa,
                           env_upper_paa);

  float paa[kMaxSegments];
  ComputePaa(query, w, paa);
  SaxSymbols sax;
  SymbolsFromPaa(paa, w, &sax);

  // Per-query DP arenas, one per executor worker: concurrent DTW
  // queries each own their scratch instead of funneling through shared
  // thread_local rows.
  std::vector<DtwScratch> scratches(exec->num_threads());

  // Approximate phase: true DTW against each tree's matching leaf.
  Neighbor seed{0, kInf};
  auto seed_from = [&](const SaxTree& tree) {
    Node* leaf = tree.ApproximateLeaf(sax, paa);
    if (leaf == nullptr) return;
    for (const LeafEntry& e : leaf->entries()) {
      const float d = DtwBand(query, snap->raw.series(e.id),
                              options.dtw_band, seed.distance_sq,
                              &scratches[0]);
      if (stats != nullptr) stats->real_dist_calcs++;
      if (d < seed.distance_sq ||
          (d == seed.distance_sq && e.id < seed.id)) {
        seed = Neighbor{e.id, d};
      }
    }
  };
  seed_from(*snap->base);
  for (const auto& seg : snap->segments) seed_from(seg->tree);

  BestNeighbor result(seed, options.shared_bound);
  DtwNnPolicy policy{.raw = snap->raw, .env_lower = &env_lower,
                     .env_upper = &env_upper, .band = options.dtw_band,
                     .query = query, .result = &result,
                     .scratches = &scratches};
  SymbolBoundTable table;
  table.BuildEnvelope(env_lower_paa, env_upper_paa, w, n);
  const int num_queues =
      options.num_queues > 0 ? options.num_queues : options.num_workers;
  RunQueuedSearch(*snap, table, options.kernel, &policy, num_queues, exec,
                  stats, options.cancel);
  if (stats != nullptr) stats->total_seconds = total.ElapsedSeconds();
  if (Expired(options.cancel)) {
    return Status::DeadlineExceeded("query deadline expired mid-search");
  }
  return result.Take();
}

}  // namespace parisax

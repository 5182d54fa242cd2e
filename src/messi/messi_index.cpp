#include "messi/messi_index.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <queue>
#include <span>
#include <utility>

#include "dist/dtw.h"
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

/// Leaf pruning + priority-queue consumption shared by every exact
/// search, over one serving snapshot. `table` bounds both node words
/// (Stage 3a) and leaf entries (Stage 3b), each through one batched
/// kernel call per block or leaf. `results` (BestNeighbor or KnnResults)
/// supplies the pruning bound and takes the answers; `model` (EdModel or
/// DtwModel) refines each entry whose bound survives. Everything mutable
/// lives in those two or on this stack frame, so any number of queued
/// searches can run concurrently on different executors.
template <typename Model, typename Results>
void RunQueuedSearch(const ServingState& snap, const SymbolBoundTable& table,
                     KernelPolicy kernel, const Model& model,
                     Results* results, int num_queues, Executor* exec,
                     QueryStats* stats, const CancellationToken* cancel) {
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
      const float bound = results->Bound();
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
            if (item.lb >= results->Bound()) {
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
            model.Refine(entries[i].id, lbs[i], results, &local, worker);
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

/// Squared-ED refinement.
struct EdModel {
  RawDataView raw;
  SeriesView query;
  KernelPolicy kernel;

  /// A seed candidate's full distance (the kNN seed takes whole leaves).
  float SeedDistance(SeriesId id, float /*bound*/, int /*worker*/) const {
    return SquaredEuclidean(query, raw.series(id), kernel);
  }

  /// Stage 3b: refines one leaf entry whose iSAX bound is `lb`. It
  /// compares `lb` against the *current* bound, so batching the bounds
  /// never weakens pruning.
  template <typename Results>
  void Refine(SeriesId id, float lb, Results* results,
              SearchCounters* counters, int /*worker*/) const {
    const float bound = results->Bound();
    if (lb >= bound) return;
    ++counters->real_dist_calcs;
    const float d =
        SquaredEuclideanEarlyAbandon(query, raw.series(id), bound, kernel);
    if (d < bound) results->Offer(id, d);
  }
};

/// Banded-DTW refinement: the envelope bound cascades into LB_Keogh and
/// finally early-abandoning banded DTW.
struct DtwModel {
  RawDataView raw;
  SeriesView query;
  size_t band;
  const std::vector<Value>* env_lower;
  const std::vector<Value>* env_upper;
  /// Per-worker DP arenas owned by the query (one per executor worker),
  /// so concurrent DTW queries never share scratch state.
  std::vector<DtwScratch>* scratches;

  float SeedDistance(SeriesId id, float bound, int worker) const {
    return DtwBand(query, raw.series(id), band, bound,
                   &(*scratches)[worker]);
  }

  template <typename Results>
  void Refine(SeriesId id, float lb, Results* results,
              SearchCounters* counters, int worker) const {
    float bound = results->Bound();
    if (lb >= bound) return;
    const SeriesView candidate = raw.series(id);
    if (LbKeoghSq(*env_lower, *env_upper, candidate, bound) >= bound) return;
    ++counters->real_dist_calcs;
    bound = results->Bound();
    const float d =
        DtwBand(query, candidate, band, bound, &(*scratches)[worker]);
    if (d < bound) results->Offer(id, d);
  }
};

/// kNN result set: the bound is the k-th best distance, optionally
/// folded with a shared cross-search bound. Publishing the local heap's
/// bound is sound because every shard's local k-th distance is an upper
/// bound on the global k-th distance.
struct KnnResults {
  KnnHeap* heap;
  AtomicMinFloat* shared;

  float Bound() const {
    const float local = heap->Bound();
    return shared != nullptr ? std::min(local, shared->Load()) : local;
  }

  void Offer(SeriesId id, float d) {
    heap->Update(Neighbor{id, d});
    if (shared != nullptr) shared->UpdateMin(heap->Bound());
  }
};

/// The kNN and DTW seed: every entry of the approximate-match leaf of
/// the base and of each segment, under the model's full distance.
template <typename Model>
void SeedFromLeaves(const ServingState& snap, const float* paa,
                    const SaxSymbols& sax, const Model& model,
                    KnnHeap* seeds, QueryStats* stats) {
  const auto seed_from = [&](const SaxTree& tree) {
    Node* leaf = tree.ApproximateLeaf(sax, paa);
    if (leaf == nullptr) return;
    for (const LeafEntry& e : leaf->entries()) {
      const float d = model.SeedDistance(e.id, seeds->Bound(), 0);
      if (stats != nullptr) stats->real_dist_calcs++;
      seeds->Update(Neighbor{e.id, d});
    }
  };
  seed_from(*snap.base);
  for (const auto& seg : snap.segments) seed_from(seg->tree);
}

}  // namespace

Status MessiIndex::AttachSource(std::unique_ptr<RawSeriesSource> source) {
  if (source->ContiguousData() == nullptr && source->count() > 0) {
    return Status::NotSupported(
        "MESSI requires a directly addressable raw source (in-memory or "
        "mmap)");
  }
  return SegmentedIndex::AttachSource(std::move(source));
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

Result<std::vector<Neighbor>> MessiIndex::Search(
    SeriesView query, size_t k, DistanceModel model,
    const MessiQueryOptions& options, Executor* exec,
    QueryStats* stats) const {
  if (query.size() != tree_options_.series_length) {
    return Status::InvalidArgument("query length does not match the index");
  }
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const bool dtw = model == DistanceModel::kDtw;
  if (dtw && k > 1) {
    return Status::NotSupported("MESSI DTW search is 1-NN only");
  }
  WallTimer total;
  const auto snap = dock_.get();
  const int w = tree_options_.segments;
  const size_t n = tree_options_.series_length;
  float paa[kMaxSegments];
  ComputePaa(query, w, paa);
  SaxSymbols sax;
  SymbolsFromPaa(paa, w, &sax);

  // The refinement models, and the bound table Stage 3 prunes with:
  // iSAX regions against the query's PAA (ED) or its envelope's (DTW).
  const EdModel ed{snap->raw, query, options.kernel};
  std::vector<Value> env_lower, env_upper;
  std::vector<DtwScratch> scratches;
  SymbolBoundTable table;
  if (dtw) {
    ComputeEnvelope(query, options.dtw_band, &env_lower, &env_upper);
    float lower_paa[kMaxSegments], upper_paa[kMaxSegments];
    ComputeEnvelopePaaMinMax(env_lower, env_upper, w, lower_paa, upper_paa);
    table.BuildEnvelope(lower_paa, upper_paa, w, n);
    scratches.resize(exec->num_threads());
  } else {
    table.BuildEd(paa, w, n);
  }
  const DtwModel dtw_model{snap->raw, query,      options.dtw_band,
                           &env_lower, &env_upper, &scratches};

  // Approximate phase: the seed bound. ED 1-NN probes each tree's
  // matching leaf with early abandoning; kNN and DTW take every entry
  // of those leaves under the model's full distance.
  WallTimer approx_timer;
  KnnHeap seeds(k);
  Neighbor seed{0, kInf};
  if (dtw) {
    SeedFromLeaves(*snap, paa, sax, dtw_model, &seeds, stats);
  } else if (k > 1) {
    SeedFromLeaves(*snap, paa, sax, ed, &seeds, stats);
  } else {
    PARISAX_ASSIGN_OR_RETURN(
        seed, ProbeAllTrees(*snap, query, paa, sax, options.kernel, stats));
  }
  if (stats != nullptr) {
    stats->approx_phase_seconds = approx_timer.ElapsedSeconds();
  }

  const int num_queues =
      options.num_queues > 0 ? options.num_queues : options.num_workers;
  const auto run = [&](const auto& refine, auto* results) {
    RunQueuedSearch(*snap, table, options.kernel, refine, results,
                    num_queues, exec, stats, options.cancel);
  };
  std::vector<Neighbor> answer;
  if (k == 1) {
    if (dtw) {
      const std::vector<Neighbor> best = seeds.Sorted();
      if (!best.empty()) seed = best.front();
    }
    BestNeighbor result(seed, options.shared_bound);
    if (dtw) {
      run(dtw_model, &result);
    } else {
      run(ed, &result);
    }
    answer.push_back(result.Take());
  } else {
    if (options.shared_bound != nullptr) {
      options.shared_bound->UpdateMin(seeds.Bound());
    }
    KnnResults results{&seeds, options.shared_bound};
    run(ed, &results);
    answer = seeds.Sorted();
  }
  if (stats != nullptr) stats->total_seconds = total.ElapsedSeconds();
  if (Expired(options.cancel)) {
    return Status::DeadlineExceeded("query deadline expired mid-search");
  }
  return answer;
}

Result<Neighbor> MessiIndex::SearchExact(SeriesView query,
                                         const MessiQueryOptions& options,
                                         Executor* exec,
                                         QueryStats* stats) const {
  std::vector<Neighbor> answer;
  PARISAX_ASSIGN_OR_RETURN(
      answer, Search(query, 1, DistanceModel::kEuclidean, options, exec,
                     stats));
  return answer.front();
}

}  // namespace parisax

// The thread-safe result sets of the parallel searches: BestNeighbor, the
// 1-NN best-so-far (BSF), and KnnHeap, its k-nearest generalization. The
// pruning bound is the best distance (for kNN the k-th best, +inf until k
// results exist), so it is monotonically non-increasing and all BSF-based
// pruning arguments carry over. Both order results by Closer.
#ifndef PARISAX_INDEX_KNN_HEAP_H_
#define PARISAX_INDEX_KNN_HEAP_H_

#include <algorithm>
#include <atomic>
#include <limits>
#include <vector>

#include "core/types.h"
#include "util/mutex.h"
#include "util/threading.h"

namespace parisax {

/// Thread-safe single best neighbor (1-NN result set). When a shared
/// cross-search bound cell is attached, Bound() folds it in with min()
/// and every improvement (the seed included) is published to it — so
/// the shard router's other searches prune on this search's progress.
/// `best` itself only tracks distances computed *here*, which keeps the
/// merged cross-shard result exact: the cell never drops below the true
/// global answer, so the globally best series is never pruned on its
/// own shard.
class BestNeighbor {
 public:
  BestNeighbor(Neighbor seed, AtomicMinFloat* shared)
      : bsf_(seed.distance_sq), shared_(shared), best_(seed) {
    if (shared_ != nullptr) shared_->UpdateMin(seed.distance_sq);
  }

  /// Current pruning bound. Lock-free.
  float Bound() const {
    const float local = bsf_.Load();
    return shared_ != nullptr ? std::min(local, shared_->Load()) : local;
  }

  /// Offers a candidate; it wins if Closer than the current best.
  /// Thread-safe; rejections past the bound take no lock.
  void Offer(SeriesId id, float d) {
    if (shared_ != nullptr) shared_->UpdateMin(d);
    if (!bsf_.UpdateMin(d) && d > bsf_.Load()) return;
    MutexLock lock(&mu_);
    if (Closer(Neighbor{id, d}, best_)) best_ = Neighbor{id, d};
  }

  /// Final answer; the searches read it only after the worker fan-in
  /// (Executor::Run has joined), but it still locks for the analysis
  /// and for any future streaming reader.
  Neighbor Take() const {
    MutexLock lock(&mu_);
    return best_;
  }

 private:
  AtomicMinFloat bsf_;
  AtomicMinFloat* const shared_;
  mutable Mutex mu_{"BestNeighbor::mu_", LockRank::kResultMerge};
  Neighbor best_ PARISAX_GUARDED_BY(mu_);
};

class KnnHeap {
 public:
  explicit KnnHeap(size_t k) : k_(k) {}

  /// Current pruning bound: the k-th best squared distance seen, +inf if
  /// fewer than k results exist. Lock-free: reads the cached copy, which
  /// is refreshed under the mutex after every insert. A concurrent reader
  /// can observe a slightly stale (larger) bound, which only weakens
  /// pruning, never correctness; single-threaded callers always see the
  /// exact value.
  float Bound() const {
    return cached_bound_.load(std::memory_order_relaxed);
  }

  /// Inserts if the candidate improves the result set. Thread-safe.
  ///
  /// The common case under a converged bound is rejection, so it is
  /// served lock-free from a cached copy of the bound: no mutex and no
  /// O(k) duplicate scan. The comparison is strict (>) because a
  /// candidate tying the k-th distance with a smaller id still wins
  /// under Closer's id tie-break. The cache is only ever >= the true
  /// bound (both shrink monotonically), so a stale read can only let a
  /// doomed candidate through to the locked path, never reject a good
  /// one.
  void Update(const Neighbor& candidate) {
    if (candidate.distance_sq >
        cached_bound_.load(std::memory_order_relaxed)) {
      return;
    }
    MutexLock lock(&mu_);
    if (heap_.size() == k_ && !Closer(candidate, heap_.front())) return;
    // Refuse duplicates (the same id can reach the heap via the
    // approximate phase and again via refinement).
    for (const Neighbor& n : heap_) {
      if (n.id == candidate.id) return;
    }
    heap_.push_back(candidate);
    std::push_heap(heap_.begin(), heap_.end(), Closer);
    if (heap_.size() > k_) {
      std::pop_heap(heap_.begin(), heap_.end(), Closer);
      heap_.pop_back();
    }
    cached_bound_.store(BoundLocked(), std::memory_order_relaxed);
  }

  /// Results sorted ascending by (distance, id). Thread-safe.
  std::vector<Neighbor> Sorted() const {
    MutexLock lock(&mu_);
    std::vector<Neighbor> out = heap_;
    std::sort(out.begin(), out.end(), Closer);
    return out;
  }

  size_t k() const { return k_; }

 private:
  float BoundLocked() const PARISAX_REQUIRES(mu_) {
    return heap_.size() == k_ ? heap_.front().distance_sq
                              : std::numeric_limits<float>::infinity();
  }

  const size_t k_;
  mutable Mutex mu_{"KnnHeap::mu_", LockRank::kResultMerge};
  std::vector<Neighbor> heap_ PARISAX_GUARDED_BY(mu_);  // max-heap via Closer
  /// Copy of BoundLocked() refreshed under mu_ after every insert; read
  /// without the lock by Update's fast reject path.
  std::atomic<float> cached_bound_{std::numeric_limits<float>::infinity()};
};

}  // namespace parisax

#endif  // PARISAX_INDEX_KNN_HEAP_H_

// Horizontal scale: N single-algorithm Engines behind one query router.
//
// A ShardedEngine hash-partitions series ids over its shards with plain
// modulo arithmetic — global id g lives on shard g % N as local id
// g / N, so the mapping is O(1), needs no stored table, and stays
// consistent under appends (batch rows are dealt to shards in id
// order). Every SearchBackend operation fans out shard-parallel:
//
//   Build    each shard indexes its partition on its own thread pool,
//            all shards at once — build wall-clock scales with N.
//   Search   the router fans one ED / kNN / DTW request across the
//            shards, threads ONE shared AtomicMinFloat bound through
//            every per-shard search (MESSI's shared-BSF pruning lifted
//            across shards: a tight bound found anywhere prunes
//            everywhere), and merges the per-shard answers into an
//            exact global result with the established (distance, id)
//            tie-break. Results are byte-identical to a single Engine
//            over the same data.
//   Append   rows are dealt to their shards and appended in parallel;
//            one router mutex serializes global id assignment.
//   Save     one CRC-checked manifest (persist/shard_manifest.h) plus
//   Open     per-shard snapshot and data files, written and restored
//   Compact  shard-parallel — each shard restores independently.
//
// The serve layer (QueryService, src/net/Server) drives a ShardedEngine
// through the SearchBackend interface exactly as it drives an Engine;
// `parisax_server --shards=N` is the wire-level switch.
//
// Lock order: the router's append_mu_ is taken before any shard lock
// (each shard then applies Engine's own append_mu_ -> pool_mu_ ->
// index_gate_ order); queries take no router lock at all.
#ifndef PARISAX_SHARD_SHARDED_ENGINE_H_
#define PARISAX_SHARD_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/search_backend.h"
#include "io/dataset.h"
#include "util/mutex.h"
#include "util/status.h"

namespace parisax {

class ShardedEngine : public SearchBackend {
 public:
  /// Partitions `dataset` over `num_shards` shards (global id g to
  /// shard g % num_shards) and builds the per-shard engines in
  /// parallel, each with its own copy of `options` (so total build
  /// threads are num_shards * options.num_threads). Requires
  /// dataset.count() >= num_shards so no shard starts empty.
  static Result<std::unique_ptr<ShardedEngine>> Build(
      Dataset dataset, size_t num_shards, const EngineOptions& options);

  /// Restores a sharded engine from a manifest written by Save; the
  /// shards open in parallel, each from its own snapshot + data file.
  /// A missing shard snapshot yields kNotFound naming the shard.
  static Result<std::unique_ptr<ShardedEngine>> Open(
      const std::string& manifest_path);

  /// As above with explicit per-shard engine options;
  /// `options.algorithm` is binding, as with Engine::Open.
  static Result<std::unique_ptr<ShardedEngine>> Open(
      const std::string& manifest_path, const EngineOptions& options);

  ~ShardedEngine() override;

  /// Routes one query across every shard in parallel (each shard on its
  /// own pool), sharing one atomic best-so-far bound, and merges the
  /// per-shard answers into the exact global result. Thread-safe.
  Result<SearchResponse> Search(SeriesView query,
                                const SearchRequest& request = {}) override;

  /// As above on the caller's executor: the shards are searched
  /// sequentially (the executor is one lane), still sharing the bound,
  /// so later shards prune on earlier shards' answers. Re-entrant under
  /// the same rules as Engine::Search.
  Result<SearchResponse> Search(SeriesView query, const SearchRequest& request,
                                Executor* exec) override;

  /// The router's query service, created on first use
  /// (options.num_threads serve workers, kAuto scheduling). Never null.
  QueryService* query_service() override;

  /// Deals the batch's rows to their shards (row i is global id
  /// old_count + i, so it lands on shard (old_count + i) % N) and
  /// appends shard-parallel. Requires capabilities().append.
  Result<AppendReport> Append(const Value* values, size_t count) override;
  using SearchBackend::Append;

  /// Writes the manifest to `manifest_path` and, next to it, one
  /// snapshot file and one data file per shard
  /// ("<manifest>.shard<i>" / "<manifest>.shard<i>.data"),
  /// shard-parallel. Requires capabilities().snapshot. Shard snapshots
  /// follow Engine::Save's delta-chain rules.
  Status Save(const std::string& manifest_path) override;

  /// Folds every shard's segments into its base (Engine::Compact),
  /// then rewrites the manifest and per-shard files at `manifest_path`.
  Status Compact(const std::string& manifest_path) override;

  /// The intersection of the shard capabilities: min over max_k, AND
  /// over every flag — the router can only promise what every shard
  /// delivers.
  EngineCapabilities capabilities() const override;

  /// The shards' common algorithm.
  Algorithm algorithm() const { return shards_.front()->algorithm(); }
  const char* algorithm_name() const override {
    return shards_.front()->algorithm_name();
  }

  size_t series_length() const override { return series_length_; }
  /// Total series across all shards. Grows under Append; safe to read
  /// concurrently. An append raises it before its rows become
  /// searchable, so every id an answer names is below it.
  size_t series_count() const override {
    return series_count_.load(std::memory_order_acquire);
  }
  /// Router-level Append calls completed (monotonic), not the sum of
  /// the shard epochs — one sharded append is one ingest event.
  uint64_t append_epoch() const override {
    return append_epoch_.load(std::memory_order_acquire);
  }
  /// Sum of the shards' compaction counters.
  uint64_t compaction_count() const override;

  size_t num_shards() const { return shards_.size(); }
  /// Read-only shard access (tests, tools). Mutations must go through
  /// the router, which owns global id assignment.
  const Engine& shard(size_t i) const { return *shards_[i]; }

 private:
  explicit ShardedEngine(std::vector<std::unique_ptr<Engine>> shards);

  static Result<std::unique_ptr<ShardedEngine>> OpenInternal(
      const std::string& manifest_path, const EngineOptions& options,
      bool enforce_algorithm);

  /// Shared Save/Compact body; caller must not hold append_mu_.
  Status Checkpoint(const std::string& manifest_path, bool compact);

  EngineOptions options_;
  size_t series_length_ = 0;
  std::atomic<size_t> series_count_{0};
  std::atomic<uint64_t> append_epoch_{0};
  /// Serializes Append, Save and Compact: global id assignment and
  /// checkpoint consistency. Queries never take it. Ranked before any
  /// per-shard Engine lock (kRouterAppend < kEngineAppend): the holder
  /// fans out into Engine::Append/Save, which take the engine chain.
  Mutex append_mu_{"ShardedEngine::append_mu_", LockRank::kRouterAppend};
  Mutex service_mu_{"ShardedEngine::service_mu_", LockRank::kServiceInit};
  std::unique_ptr<QueryService> service_
      PARISAX_GUARDED_BY(service_mu_);  // lazily created
  /// Absolute data-file path backing each shard when this engine was
  /// restored by Open (MmapSource appends keep that file current, so
  /// Checkpoint can skip rewriting it); empty for built engines.
  std::vector<std::string> shard_data_paths_;
  std::vector<std::unique_ptr<Engine>> shards_;
};

}  // namespace parisax

#endif  // PARISAX_SHARD_SHARDED_ENGINE_H_

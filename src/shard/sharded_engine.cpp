#include "shard/sharded_engine.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <thread>
#include <utility>

#include "io/format.h"
#include "persist/shard_manifest.h"
#include "serve/query_service.h"
#include "util/timer.h"

namespace parisax {

namespace {

/// Directory part of `path` including the trailing separator; empty for
/// a bare file name.
std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string()
                                    : path.substr(0, slash + 1);
}

/// File-name part of `path`.
std::string BaseOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string ShardSnapshotName(const std::string& manifest_base, size_t s) {
  return manifest_base + ".shard" + std::to_string(s);
}

std::string ShardDataName(const std::string& manifest_base, size_t s) {
  return manifest_base + ".shard" + std::to_string(s) + ".data";
}

/// Runs fn(s) for every shard index, shards 1..n-1 each on their own
/// thread and shard 0 on the caller's; returns the first non-OK status
/// in shard order.
template <typename Fn>
Status ParallelOverShards(size_t n, Fn fn) {
  std::vector<Status> statuses(n);
  {
    std::vector<std::thread> threads;
    threads.reserve(n - 1);
    for (size_t s = 1; s < n; ++s) {
      threads.emplace_back([&statuses, &fn, s] { statuses[s] = fn(s); });
    }
    statuses[0] = fn(0);
    for (std::thread& t : threads) t.join();
  }
  for (const Status& st : statuses) PARISAX_RETURN_IF_ERROR(st);
  return Status::OK();
}

/// Translates shard-local ids back to global ids (local l on shard s is
/// global l * n + s) and merges the per-shard answers into one global
/// response with the established (distance, id) order. Exact-search
/// responses stay byte-identical to a single engine's: both sides
/// compute the same full distances over the same series, and the merge
/// applies the same tie-break.
SearchResponse MergeShardResponses(std::vector<SearchResponse> parts,
                                   const SearchRequest& request,
                                   size_t total_series) {
  const size_t num_shards = parts.size();
  SearchResponse merged;
  for (size_t s = 0; s < num_shards; ++s) {
    for (Neighbor& nb : parts[s].neighbors) {
      nb.id = nb.id * num_shards + s;
      merged.neighbors.push_back(nb);
    }
    merged.stats.MergeCounters(parts[s].stats);
    merged.stats.approx_phase_seconds += parts[s].stats.approx_phase_seconds;
    merged.stats.filter_phase_seconds += parts[s].stats.filter_phase_seconds;
    merged.stats.refine_phase_seconds += parts[s].stats.refine_phase_seconds;
  }
  std::sort(merged.neighbors.begin(), merged.neighbors.end(), Closer);
  // An approximate probe answers with one neighbor per backend; exact
  // searches answer min(k, collection size) like a single engine.
  const size_t want =
      request.approximate ? 1 : std::min(request.k, total_series);
  if (merged.neighbors.size() > want) merged.neighbors.resize(want);
  return merged;
}

}  // namespace

ShardedEngine::ShardedEngine(std::vector<std::unique_ptr<Engine>> shards)
    : options_(shards.front()->options()),
      series_length_(shards.front()->series_length()),
      shard_data_paths_(shards.size()),
      shards_(std::move(shards)) {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->series_count();
  series_count_.store(total, std::memory_order_release);
}

ShardedEngine::~ShardedEngine() {
  // The service's workers route queries through the shards; stop them
  // before any shard goes away.
  service_.reset();
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Build(
    Dataset dataset, size_t num_shards, const EngineOptions& options) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  if (dataset.count() < num_shards) {
    return Status::InvalidArgument(
        "collection must hold at least one series per shard");
  }
  const size_t n = num_shards;
  const size_t count = dataset.count();
  const size_t length = dataset.length();

  // Deal rows to shards: global id g lives on shard g % n as local id
  // g / n, so the mapping needs no stored table and stays consistent
  // under appends.
  std::vector<Dataset> parts;
  parts.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    const size_t shard_count = count / n + (s < count % n ? 1 : 0);
    Dataset part(shard_count, length);
    for (size_t l = 0; l < shard_count; ++l) {
      const SeriesView row = dataset.series(l * n + s);
      std::copy(row.begin(), row.end(), part.mutable_series(l).begin());
    }
    parts.push_back(std::move(part));
  }

  std::vector<std::unique_ptr<Engine>> shards(n);
  PARISAX_RETURN_IF_ERROR(ParallelOverShards(n, [&](size_t s) {
    auto built =
        Engine::Build(SourceSpec::InMemory(std::move(parts[s])), options);
    if (!built.ok()) return built.status();
    shards[s] = std::move(built).value();
    return Status::OK();
  }));
  return std::unique_ptr<ShardedEngine>(new ShardedEngine(std::move(shards)));
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Open(
    const std::string& manifest_path) {
  return OpenInternal(manifest_path, EngineOptions(), false);
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Open(
    const std::string& manifest_path, const EngineOptions& options) {
  return OpenInternal(manifest_path, options, true);
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::OpenInternal(
    const std::string& manifest_path, const EngineOptions& options,
    bool enforce_algorithm) {
  ShardManifest manifest;
  PARISAX_ASSIGN_OR_RETURN(manifest, ReadShardManifest(manifest_path));
  const std::string dir = DirOf(manifest_path);
  const size_t n = manifest.shards.size();

  std::vector<std::unique_ptr<Engine>> shards(n);
  std::vector<std::string> data_paths(n);
  PARISAX_RETURN_IF_ERROR(ParallelOverShards(n, [&](size_t s) {
    const ShardManifest::Shard& entry = manifest.shards[s];
    const std::string snapshot_path = dir + entry.snapshot_file;
    const std::string data_path = dir + entry.data_file;
    // A sharded restore needs every shard; name the missing one so an
    // operator knows which file to recover.
    std::FILE* probe = std::fopen(snapshot_path.c_str(), "rb");
    if (probe == nullptr) {
      return Status::NotFound("shard " + std::to_string(s) +
                              " snapshot missing: " + snapshot_path);
    }
    std::fclose(probe);
    auto opened = enforce_algorithm
                      ? Engine::Open(snapshot_path, data_path, options)
                      : Engine::Open(snapshot_path, data_path);
    if (!opened.ok()) return opened.status();
    shards[s] = std::move(opened).value();
    if (shards[s]->series_count() != entry.count) {
      return Status::Corruption(
          "shard " + std::to_string(s) + " restored " +
          std::to_string(shards[s]->series_count()) +
          " series, manifest says " + std::to_string(entry.count));
    }
    if (shards[s]->series_length() != manifest.series_length) {
      return Status::Corruption("shard " + std::to_string(s) +
                                " series length does not match the manifest");
    }
    data_paths[s] = data_path;
    return Status::OK();
  }));
  if (manifest.algorithm != shards.front()->algorithm_name()) {
    return Status::Corruption(
        "shard snapshots hold " +
        std::string(shards.front()->algorithm_name()) +
        ", manifest says " + manifest.algorithm);
  }
  auto engine =
      std::unique_ptr<ShardedEngine>(new ShardedEngine(std::move(shards)));
  engine->shard_data_paths_ = std::move(data_paths);
  return engine;
}

Result<SearchResponse> ShardedEngine::Search(SeriesView query,
                                             const SearchRequest& request) {
  WallTimer timer;
  AtomicMinFloat router_bound(std::numeric_limits<float>::infinity());
  SearchRequest shard_request = request;
  if (shard_request.shared_bound == nullptr) {
    shard_request.shared_bound = &router_bound;
  }
  const size_t n = shards_.size();
  std::vector<SearchResponse> parts(n);
  PARISAX_RETURN_IF_ERROR(ParallelOverShards(n, [&](size_t s) {
    auto result = shards_[s]->Search(query, shard_request);
    if (!result.ok()) return result.status();
    parts[s] = std::move(result).value();
    return Status::OK();
  }));
  SearchResponse response =
      MergeShardResponses(std::move(parts), request, series_count());
  response.stats.total_seconds = timer.ElapsedSeconds();
  return response;
}

Result<SearchResponse> ShardedEngine::Search(SeriesView query,
                                             const SearchRequest& request,
                                             Executor* exec) {
  WallTimer timer;
  AtomicMinFloat router_bound(std::numeric_limits<float>::infinity());
  SearchRequest shard_request = request;
  if (shard_request.shared_bound == nullptr) {
    shard_request.shared_bound = &router_bound;
  }
  const size_t n = shards_.size();
  std::vector<SearchResponse> parts(n);
  for (size_t s = 0; s < n; ++s) {
    auto result = shards_[s]->Search(query, shard_request, exec);
    if (!result.ok()) return result.status();
    parts[s] = std::move(result).value();
  }
  SearchResponse response =
      MergeShardResponses(std::move(parts), request, series_count());
  response.stats.total_seconds = timer.ElapsedSeconds();
  return response;
}

QueryService* ShardedEngine::query_service() {
  MutexLock lock(&service_mu_);
  if (service_ == nullptr) {
    QueryServiceOptions sopts;
    sopts.num_threads = options_.num_threads;
    sopts.policy = SchedulingPolicy::kAuto;
    // Shard options were validated when the shards were built, so
    // Create cannot fail here.
    service_ = std::move(QueryService::Create(this, sopts).value());
  }
  return service_.get();
}

Result<AppendReport> ShardedEngine::Append(const Value* values, size_t count) {
  if (!capabilities().append) {
    return Status::NotSupported(
        std::string(algorithm_name()) +
        " does not support appends over this source "
        "(capabilities().append is false)");
  }
  if (count > 0 && values == nullptr) {
    return Status::InvalidArgument("appended values must not be null");
  }
  WallTimer wall;
  MutexLock lock(&append_mu_);
  const size_t n = shards_.size();
  const size_t length = series_length_;
  const size_t old_count = series_count_.load(std::memory_order_acquire);

  // Deal the batch's rows to their shards in id order: row i is global
  // id old_count + i, which shard (old_count + i) % n stores as its
  // next local id.
  std::vector<std::vector<Value>> parts(n);
  for (std::vector<Value>& part : parts) {
    part.reserve(((count + n - 1) / n) * length);
  }
  for (size_t i = 0; i < count; ++i) {
    std::vector<Value>& part = parts[(old_count + i) % n];
    part.insert(part.end(), values + i * length, values + (i + 1) * length);
  }

  // Count the batch before any shard publishes a row of it: a query
  // racing this append may or may not see the new rows, but every id it
  // can name is then below series_count().
  series_count_.store(old_count + count, std::memory_order_release);

  // Shard-parallel appends. On a shard failure the count rolls back and
  // the epoch stays put, but sibling shards may already have grown —
  // as with Engine::Append's failure contract, discard the backend.
  std::vector<AppendReport> reports(n);
  const Status appended_all = ParallelOverShards(n, [&](size_t s) {
    if (parts[s].empty()) return Status::OK();
    auto appended =
        shards_[s]->Append(parts[s].data(), parts[s].size() / length);
    if (!appended.ok()) return appended.status();
    reports[s] = std::move(appended).value();
    return Status::OK();
  });
  if (!appended_all.ok()) {
    series_count_.store(old_count, std::memory_order_release);
    return appended_all;
  }
  append_epoch_.fetch_add(1, std::memory_order_acq_rel);

  AppendReport report;
  report.appended = count;
  report.total_series = old_count + count;
  for (const AppendReport& shard_report : reports) {
    report.touched_subtrees += shard_report.touched_subtrees;
  }
  report.wall_seconds = wall.ElapsedSeconds();
  return report;
}

Status ShardedEngine::Save(const std::string& manifest_path) {
  return Checkpoint(manifest_path, /*compact=*/false);
}

Status ShardedEngine::Compact(const std::string& manifest_path) {
  return Checkpoint(manifest_path, /*compact=*/true);
}

Status ShardedEngine::Checkpoint(const std::string& manifest_path,
                                 bool compact) {
  if (!capabilities().snapshot) {
    return Status::NotSupported(
        std::string(algorithm_name()) +
        " does not support snapshots (capabilities().snapshot is false)");
  }
  MutexLock lock(&append_mu_);
  const std::string dir = DirOf(manifest_path);
  const std::string base = BaseOf(manifest_path);
  const size_t n = shards_.size();

  PARISAX_RETURN_IF_ERROR(ParallelOverShards(n, [&](size_t s) {
    Engine& shard = *shards_[s];
    const std::string data_path = dir + ShardDataName(base, s);
    // The data file a restored shard mmaps is kept current by the
    // append path (MmapSource extends it in place); only write one
    // when checkpointing somewhere else. Rewriting the live mapping
    // would pull pages out from under concurrent queries.
    if (shard_data_paths_[s] != data_path) {
      DatasetFileWriter writer;
      PARISAX_RETURN_IF_ERROR(
          writer.Open(data_path, shard.series_count(),
                      static_cast<uint32_t>(series_length_)));
      const RawSeriesSource& source = shard.source();
      std::vector<Value> buffer(series_length_);
      for (SeriesId id = 0; id < shard.series_count(); ++id) {
        SeriesView view = source.TryView(id);
        if (view.empty()) {
          PARISAX_RETURN_IF_ERROR(source.GetSeries(id, buffer.data()));
          view = SeriesView(buffer.data(), buffer.size());
        }
        PARISAX_RETURN_IF_ERROR(writer.Append(view));
      }
      PARISAX_RETURN_IF_ERROR(writer.Close());
    }
    const std::string snapshot_path = dir + ShardSnapshotName(base, s);
    return compact ? shard.Compact(snapshot_path) : shard.Save(snapshot_path);
  }));

  ShardManifest manifest;
  manifest.algorithm = algorithm_name();
  manifest.series_length = series_length_;
  manifest.total_count = series_count_.load(std::memory_order_acquire);
  for (size_t s = 0; s < n; ++s) {
    ShardManifest::Shard entry;
    entry.count = shards_[s]->series_count();
    entry.snapshot_file = ShardSnapshotName(base, s);
    entry.data_file = ShardDataName(base, s);
    manifest.shards.push_back(std::move(entry));
  }
  return WriteShardManifest(manifest, manifest_path);
}

EngineCapabilities ShardedEngine::capabilities() const {
  EngineCapabilities caps = shards_.front()->capabilities();
  for (size_t s = 1; s < shards_.size(); ++s) {
    const EngineCapabilities shard_caps = shards_[s]->capabilities();
    caps.max_k = std::min(caps.max_k, shard_caps.max_k);
    caps.dtw = caps.dtw && shard_caps.dtw;
    caps.dtw_knn = caps.dtw_knn && shard_caps.dtw_knn;
    caps.approximate = caps.approximate && shard_caps.approximate;
    caps.snapshot = caps.snapshot && shard_caps.snapshot;
    caps.streaming_build = caps.streaming_build && shard_caps.streaming_build;
    caps.append = caps.append && shard_caps.append;
    caps.background_compaction =
        caps.background_compaction && shard_caps.background_compaction;
  }
  return caps;
}

uint64_t ShardedEngine::compaction_count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->compaction_count();
  return total;
}

}  // namespace parisax

// Shared pieces of the layered benchmark: run configuration, the result
// record and its printing, the span recorder of the traced run, the
// exactness helpers, and the layer passes that every workload's traced
// run shares (dist, sax, util, and the MESSI index entrance).
#ifndef LAYERBENCH_COMMON_H_
#define LAYERBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "index/raw_source.h"
#include "io/dataset.h"
#include "messi/messi_index.h"
#include "util/mutex.h"

namespace layerbench {

using parisax::Dataset;
using parisax::Neighbor;
using parisax::SeriesView;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for data files, snapshots and the span dump.
  std::string workdir;
  std::string git_sha = "unknown";
};

/// Seconds on the steady clock since the process started.
double Now();

/// Sleeps until Now() reaches `t` (returns at once when it already has).
void SleepUntil(double t);

/// Milliseconds between two Now() readings.
inline double Ms(double seconds) { return seconds * 1e3; }

/// One named value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run produced. End-to-end metrics come from untraced runs and
/// per-layer metrics from traced ones; `extra` holds end-to-end metrics
/// that apply to only some workloads (printed by name, not gated).
struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> extra;
  std::vector<Metric> layers;
  /// Run metadata beyond the build facts (seed, generator lateness).
  double lateness_p99_ms = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False once any exact answer differs from the brute-force oracle.
  bool correct = true;
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    correct = false;
    ++failed;
    notes.push_back(why);
  }
};

/// The fixed per-layer metric names and units, in table order. A traced
/// run reports every one; a layer the workload does not pass through
/// reads 0 and is marked bypassed in the table.
const std::vector<Metric>& PerLayerCatalog();

/// The fixed end-to-end metrics every workload reports (the gated set).
const std::vector<Metric>& EndToEndCatalog();

/// Prints the human-readable lines and then, as the last line, the JSON
/// result. Returns the process exit code.
int PrintResult(const RunConfig& config, const RunResult& result);

/// Traced-run spans: one per call the benchmark makes into a layer's
/// public function. Kept in memory, written as JSON lines at the end.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;
    uint64_t op = 0;
  };

  /// Records a finished span; returns its index (a parent handle).
  int64_t Add(const char* name, double start, double end, uint64_t op,
              int64_t parent = -1);
  size_t size() const;
  /// Writes every span to `path` as JSON lines.
  bool WriteTo(const std::string& path) const;

 private:
  mutable parisax::Mutex mu_{"layerbench::SpanRecorder::mu_",
                             parisax::LockRank::kLeaf};
  std::vector<Span> spans_ PARISAX_GUARDED_BY(mu_);
};

/// Byte-for-byte comparison of two neighbour lists (id and the bits of
/// the squared distance).
bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b);

/// `count` z-normalized random walks of `length` points, generated on
/// 4 threads (the benchmark's own set-up, never timed).
Dataset GenerateRandomWalks(uint64_t seed, size_t count, size_t length);

/// Views of rows [first, first + count) of `d` (clipped to its size).
std::vector<SeriesView> Views(const Dataset& d, size_t first, size_t count);

/// A deep copy (Engine builds adopt their input).
Dataset CopyDataset(const Dataset& d);

/// `count` fresh rows from the collection's distribution, disjoint from
/// the data and the queries (used as append batches).
Dataset GenerateBatch(uint64_t seed, uint64_t batch_index, size_t count,
                      size_t length);

/// dist layer: SquaredEuclidean and SquaredEuclideanEarlyAbandon per
/// 256-point row over a block of collection rows, the early-abandoning
/// kernel at each query's final best-so-far. Adds dist.ed_ns and
/// dist.ed_ea_ns.
void MeasureDist(const parisax::RawSeriesSource& rows,
                 const std::vector<SeriesView>& queries,
                 const std::vector<float>& final_bsf, uint64_t seed,
                 SpanRecorder* spans, RunResult* result);

/// sax layer: MinDistPaaToWordSq per call over full-cardinality words of
/// collection rows. Returns ns per call and adds sax.mindist_ns.
double MeasureSax(const parisax::RawSeriesSource& rows,
                  const std::vector<SeriesView>& queries, uint64_t seed,
                  SpanRecorder* spans, RunResult* result);

/// util layer: ThreadPool::Run of an empty task over 4 workers. Adds
/// util.pool_dispatch_us.
void MeasurePoolDispatch(SpanRecorder* spans, RunResult* result);

/// What an index-entrance pass measured: per-query latencies, the mean
/// lower-bound checks and real distances per query, and each query's
/// final best-so-far (the early-abandon bound of the dist pass).
struct IndexPass {
  std::vector<double> latency_ms;
  /// InlineExecutor latencies of the first `serial_queries` ops.
  std::vector<double> serial_ms;
  double lb_checks = 0.0;
  double real_dist_calcs = 0.0;
  std::vector<float> final_bsf;
};

/// MESSI index entrance: SearchExact on a 4-thread pool the benchmark
/// owns over every query, and on an InlineExecutor over the first
/// `serial_queries`. Adds the messi.* metrics.
IndexPass MeasureMessi(const parisax::MessiIndex& index,
                       const std::vector<SeriesView>& queries,
                       size_t serial_queries, SpanRecorder* spans,
                       RunResult* result);

/// Adds the metrics derived from an index pass: sax.lb_share (lower-bound
/// checks x ns per check / p50 query latency; summed over the pool's
/// workers, so above 1 when bounds run on several threads) and
/// dist.refine_bytes (real distances x length x 4 per query).
void AddLowerBoundShare(const IndexPass& pass, double mindist_ns,
                        size_t series_length, RunResult* result);

/// Exact 1-NN answers of `queries` by the repository's brute-force scan
/// over `source`, computed on up to 4 threads.
std::vector<Neighbor> OracleNn(const parisax::RawSeriesSource& source,
                               const std::vector<SeriesView>& queries);

/// Indices of a seeded sample of `count` distinct values in [0, range).
std::vector<size_t> SeededSample(uint64_t seed, size_t count, size_t range);

/// Appends a metric to `list`.
void Add(std::vector<Metric>* list, const std::string& name, double value,
         const std::string& unit);

}  // namespace layerbench

#endif  // LAYERBENCH_COMMON_H_

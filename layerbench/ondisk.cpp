// ondisk_ingest: the paper's on-disk pipeline. ParIS+ over a streamed
// 1M x 256 random-walk dataset file (SourceSpec::File with
// DiskProfile::Instant, so reads cost real page-cache time). One
// closed-loop thread issues fresh exact 1-NN queries while one appender
// schedules a 1024-series Engine::Append every 250 ms; the run ends with
// Save of the grown collection and Engine::Open of that snapshot. The
// dataset file is generated fresh by every run, so appends, which grow
// it in place, always start from a pristine file.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "common.h"
#include "index/leaf_storage.h"
#include "io/format.h"
#include "io/generator.h"
#include "io/mmap_source.h"
#include "stats.h"
#include "workloads.h"

namespace layerbench {

using namespace parisax;

namespace {

constexpr size_t kSeries = 1000000;
constexpr size_t kLength = 256;
constexpr int kThreads = 4;
constexpr int kSetupRepeats = 5;
constexpr size_t kAppendRows = 1024;
constexpr double kAppendPeriod = 0.250;
constexpr size_t kQueryPool = 8000;
constexpr size_t kWarmupQueries = 5;
constexpr size_t kGateQueries = 4;
/// Ops replayed per layer entrance in the traced run.
constexpr size_t kTracedOps = 150;
constexpr size_t kTracedKernelOps = 50;
constexpr double kTracedAppendSeconds = 8.0;

struct Paths {
  std::string data;
  std::string leaves;
  std::string snapshot;
};

Paths MakePaths(const RunConfig& config) {
  const std::string base = config.workdir + "/ondisk";
  return {base + ".psax", base + ".psax.leaves", base + ".snap"};
}

/// Removes every file this workload leaves in the work directory.
void RemoveFiles(const RunConfig& config) {
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(config.workdir, ec)) {
    if (entry.path().filename().string().rfind("ondisk", 0) == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

Status WriteData(uint64_t seed, const std::string& path) {
  return WriteDataset(GenerateRandomWalks(seed, kSeries, kLength), path);
}

EngineOptions ParisOptions(const Paths& paths) {
  EngineOptions options;
  options.algorithm = Algorithm::kParisPlus;
  options.num_threads = kThreads;
  options.build_profile = DiskProfile::Instant();
  options.query_profile = DiskProfile::Instant();
  options.leaf_storage_path = paths.leaves;
  return options;
}

/// Builds `repeats` times over the dataset file, keeping the last
/// engine; returns the build wall times.
std::vector<double> BuildRepeatedly(const Paths& paths, int repeats,
                                    std::unique_ptr<Engine>* engine,
                                    RunResult* result) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    engine->reset();
    const double t0 = Now();
    auto built =
        Engine::Build(SourceSpec::File(paths.data), ParisOptions(paths));
    const double t1 = Now();
    if (!built.ok()) {
      result->Fail("build: " + built.status().ToString());
      return seconds;
    }
    *engine = std::move(*built);
    seconds.push_back(t1 - t0);
  }
  return seconds;
}

/// Answers `queries` through Engine::Search and checks them against the
/// brute-force scan of the dataset file as it is now.
std::vector<std::vector<Neighbor>> GateExact(
    Engine* engine, const std::string& data_path,
    const std::vector<SeriesView>& queries, const char* when,
    RunResult* result) {
  std::vector<std::vector<Neighbor>> answers;
  for (const SeriesView& q : queries) {
    ++result->attempted;
    auto response = engine->Search(q);
    if (!response.ok()) {
      result->Fail(std::string("gate search failed ") + when);
      answers.emplace_back();
      continue;
    }
    answers.push_back(response->neighbors);
  }
  auto oracle_source = MmapSource::Open(data_path);
  if (!oracle_source.ok()) {
    result->Fail("oracle: " + oracle_source.status().ToString());
    return answers;
  }
  const std::vector<Neighbor> oracle = OracleNn(**oracle_source, queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!SameNeighbors(answers[i], {oracle[i]})) {
      result->Fail(std::string("exactness gate ") + when + ": query " +
                   std::to_string(i) + " differs from the brute-force scan");
    }
  }
  return answers;
}

/// One scheduled append: due, started, acknowledged (run clock).
struct AppendRecord {
  double due = 0.0;
  double start = 0.0;
  double ack = 0.0;
  bool ok = false;
};

/// Schedules a kAppendRows Append every kAppendPeriod from `t0` until
/// `stop` is set. Closed loop: a late append delays the next start, and
/// every append is timed from its own due time.
class Appender {
 public:
  Appender(Engine* engine, uint64_t seed, double t0, uint64_t first_batch)
      : thread_([this, engine, seed, t0, first_batch] {
          for (uint64_t k = 0;; ++k) {
            const Dataset batch =
                GenerateBatch(seed, first_batch + k, kAppendRows, kLength);
            const double due = t0 + static_cast<double>(k + 1) * kAppendPeriod;
            while (Now() < due && !stop_.load()) {
              SleepUntil(std::min(due, Now() + 0.01));
            }
            if (stop_.load()) return;
            AppendRecord rec;
            rec.due = due;
            rec.start = Now();
            auto report = engine->Append(batch);
            rec.ack = Now();
            rec.ok = report.ok();
            records_.push_back(rec);
          }
        }) {}
  ~Appender() { Stop(); }
  Appender(const Appender&) = delete;
  Appender& operator=(const Appender&) = delete;

  /// Stops scheduling, waits for an append in progress, and returns the
  /// records.
  const std::vector<AppendRecord>& Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return records_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<AppendRecord> records_;  // appender thread until joined
  std::thread thread_;
};

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

RunResult Untraced(const RunConfig& config) {
  RunResult result;
  const Paths paths = MakePaths(config);
  RemoveFiles(config);
  if (Status st = WriteData(config.seed, paths.data); !st.ok()) {
    result.Fail("write dataset: " + st.ToString());
    return result;
  }
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk, kQueryPool,
                                          kLength, config.seed);
  std::unique_ptr<Engine> engine;
  const std::vector<double> setup =
      BuildRepeatedly(paths, kSetupRepeats, &engine, &result);
  if (!engine) return result;
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    (void)engine->Search(queries.series(kQueryPool - 1 - i));
  }
  const std::vector<SeriesView> gate_before =
      Views(queries, kQueryPool - 2 * kGateQueries - kWarmupQueries,
            kGateQueries);
  const std::vector<SeriesView> gate_after = Views(
      queries, kQueryPool - kGateQueries - kWarmupQueries, kGateQueries);
  GateExact(engine.get(), paths.data, gate_before, "before the first append",
            &result);

  const size_t min_queries = MinSamplesFor(0.99);
  std::vector<double> latency_ms;
  const double t0 = Now();
  const double end = t0 + config.seconds;
  Appender appender(engine.get(), config.seed, t0, 0);
  for (size_t i = 0; (Now() < end || i < min_queries) &&
                     i + 2 * kGateQueries + kWarmupQueries < kQueryPool;
       ++i) {
    const double q0 = Now();
    auto response = engine->Search(queries.series(i));
    const double q1 = Now();
    ++result.attempted;
    if (!response.ok()) {
      result.Fail("search: " + response.status().ToString());
      continue;
    }
    latency_ms.push_back(Ms(q1 - q0));
  }
  const double measured_s = Now() - t0;
  const std::vector<AppendRecord>& appends = appender.Stop();
  std::vector<double> append_ms, lateness_ms;
  for (const AppendRecord& rec : appends) {
    ++result.attempted;
    if (!rec.ok) {
      result.Fail("append failed");
      continue;
    }
    append_ms.push_back(Ms(LatencyFromDue({rec.due, rec.start, rec.ack})));
    lateness_ms.push_back(Ms(Lateness({rec.due, rec.start, rec.ack})));
  }
  GateExact(engine.get(), paths.data, gate_after, "after the last append",
            &result);

  double t = Now();
  const Status saved = engine->Save(paths.snapshot);
  const double save_s = Now() - t;
  ++result.attempted;
  if (!saved.ok()) result.Fail("save: " + saved.ToString());
  const std::vector<std::vector<Neighbor>> before_open =
      GateExact(engine.get(), paths.data, gate_after, "before open", &result);
  engine.reset();
  t = Now();
  auto opened = Engine::Open(paths.snapshot, paths.data, ParisOptions(paths));
  const double open_s = Now() - t;
  ++result.attempted;
  if (!opened.ok()) {
    result.Fail("open: " + opened.status().ToString());
  } else {
    const auto after_open = GateExact(opened->get(), paths.data, gate_after,
                                      "after open", &result);
    if (after_open != before_open) {
      result.Fail("answers after Engine::Open differ from before Save");
    }
    opened->reset();
  }
  RemoveFiles(config);

  if (!PercentileReportable(latency_ms.size(), 0.99)) {
    result.Fail("fewer than " + std::to_string(min_queries) +
                " queries: p99 has under ten samples beyond it");
  }
  const size_t scheduled =
      static_cast<size_t>(measured_s / kAppendPeriod);
  Add(&result.end_to_end, "setup_s", Median(setup), "s");
  Add(&result.end_to_end, "query_p50_ms", Percentile(latency_ms, 0.5), "ms");
  Add(&result.end_to_end, "query_p90_ms", Percentile(latency_ms, 0.9), "ms");
  Add(&result.extra, "query_p99_ms", Percentile(latency_ms, 0.99), "ms");
  Add(&result.extra, "append_p50_ms", Percentile(append_ms, 0.5), "ms");
  Add(&result.extra, "append_p99_ms", Percentile(append_ms, 0.99), "ms");
  Add(&result.extra, "save_s", save_s, "s");
  Add(&result.extra, "open_s", open_s, "s");
  result.lateness_p99_ms = Percentile(lateness_ms, 0.99);
  result.notes.push_back(
      std::to_string(latency_ms.size()) + " queries in " +
      std::to_string(measured_s) + " s; " + std::to_string(append_ms.size()) +
      " of " + std::to_string(scheduled) +
      " scheduled appends completed (under 1000 appends, append_p99_ms has "
      "fewer than ten samples beyond it); the appender is one closed-loop "
      "thread, so its lateness includes waiting on its previous append");
  return result;
}

RunResult Traced(const RunConfig& config) {
  RunResult result;
  SpanRecorder spans;
  const Paths paths = MakePaths(config);
  RemoveFiles(config);
  if (Status st = WriteData(config.seed, paths.data); !st.ok()) {
    result.Fail("write dataset: " + st.ToString());
    return result;
  }
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk, kQueryPool,
                                          kLength, config.seed);
  std::unique_ptr<Engine> engine;
  const std::vector<double> setup = BuildRepeatedly(paths, 1, &engine, &result);
  if (!engine) return result;
  const ParisIndex& paris = *engine->paris_index();
  const ParisBuildStats& build = paris.build_stats();
  Add(&result.layers, "paris.build_read_s", build.read_wall_seconds, "s");
  Add(&result.layers, "paris.build_stage3_s", build.stage3_wall_seconds, "s");
  Add(&result.layers, "paris.build_flush_s", build.final_flush_wall_seconds,
      "s");
  const uint64_t leaf_bytes = paris.leaf_storage() != nullptr
                                  ? paris.leaf_storage()->bytes_written()
                                  : 0;
  Add(&result.layers, "index.leaf_bytes", static_cast<double>(leaf_bytes),
      "bytes");
  result.notes.push_back("build " + std::to_string(setup[0]) + " s");

  const std::vector<SeriesView> ops = Views(queries, 0, kTracedOps);
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    (void)engine->Search(queries.series(kQueryPool - 1 - i));
  }
  // Outermost entrance (core: Engine::Search), quiet, untraced then
  // traced.
  std::vector<double> untraced_ms, traced_ms;
  std::vector<std::vector<Neighbor>> answers;
  for (int traced = 0; traced < 2; ++traced) {
    for (size_t i = 0; i < ops.size(); ++i) {
      const double t0 = Now();
      auto response = engine->Search(ops[i]);
      const double t1 = Now();
      ++result.attempted;
      if (!response.ok()) {
        result.Fail("search: " + response.status().ToString());
        continue;
      }
      if (traced) {
        spans.Add("core.Engine::Search", t0, t1, i);
        traced_ms.push_back(Ms(t1 - t0));
        if (response->neighbors != answers[i]) {
          result.Fail("traced pass: answer differs from the untraced pass");
        }
      } else {
        untraced_ms.push_back(Ms(t1 - t0));
        answers.push_back(response->neighbors);
      }
    }
  }
  Add(&result.layers, "trace.overhead_ms",
      Median(traced_ms) - Median(untraced_ms), "ms");

  // Index entrance: ParisIndex::SearchExact on a pool the benchmark owns
  // (no append runs, so bypassing the engine's gate is safe).
  IndexPass pass;
  {
    ThreadPool pool(kThreads);
    ParisQueryOptions options;
    options.num_workers = kThreads;
    std::vector<double> approx_ms, filter_ms, refine_ms, lb, cand, real;
    for (size_t i = 0; i < ops.size(); ++i) {
      QueryStats stats;
      const double t0 = Now();
      auto answer = paris.SearchExact(ops[i], options, &pool, &stats);
      const double t1 = Now();
      spans.Add("paris.SearchExact(pool)", t0, t1, i);
      ++result.attempted;
      if (!answer.ok() || !SameNeighbors({*answer}, answers[i])) {
        result.Fail("paris SearchExact differs from Engine::Search");
        pass.final_bsf.push_back(0.0f);
        continue;
      }
      pass.latency_ms.push_back(Ms(t1 - t0));
      pass.final_bsf.push_back(answer->distance_sq);
      approx_ms.push_back(Ms(stats.approx_phase_seconds));
      filter_ms.push_back(Ms(stats.filter_phase_seconds));
      refine_ms.push_back(Ms(stats.refine_phase_seconds));
      lb.push_back(static_cast<double>(stats.lb_checks));
      cand.push_back(static_cast<double>(stats.candidates));
      real.push_back(static_cast<double>(stats.real_dist_calcs));
    }
    pass.lb_checks = Mean(lb);
    pass.real_dist_calcs = Mean(real);
    Add(&result.layers, "paris.search_pool_ms", Median(pass.latency_ms), "ms");
    Add(&result.layers, "paris.approx_ms", Median(approx_ms), "ms");
    Add(&result.layers, "paris.filter_ms", Median(filter_ms), "ms");
    Add(&result.layers, "paris.refine_ms", Median(refine_ms), "ms");
    Add(&result.layers, "paris.lb_checks", pass.lb_checks, "count");
    Add(&result.layers, "paris.candidates", Mean(cand), "count");
    Add(&result.layers, "paris.real_dist_calcs", pass.real_dist_calcs, "count");
    Add(&result.layers, "paris.candidate_ratio",
        pass.lb_checks > 0 ? Mean(cand) / pass.lb_checks : 0.0, "ratio");
  }
  Add(&result.layers, "core.search_self_ms",
      PairedSelfTime(traced_ms, pass.latency_ms), "ms");

  auto rows = MmapSource::Open(paths.data);
  if (!rows.ok()) {
    result.Fail("mmap: " + rows.status().ToString());
    return result;
  }
  const std::vector<SeriesView> kernel_ops =
      Views(queries, 0, kTracedKernelOps);
  const double mindist_ns =
      MeasureSax(**rows, kernel_ops, config.seed, &spans, &result);
  MeasureDist(**rows, kernel_ops, pass.final_bsf, config.seed, &spans, &result);
  AddLowerBoundShare(pass, mindist_ns, kLength, &result);
  MeasurePoolDispatch(&spans, &result);

  // Exactness gate on a sample of the quiet answers (before any append).
  std::vector<SeriesView> gate_views;
  std::vector<std::vector<Neighbor>> gate_answers;
  for (size_t g : SeededSample(config.seed, kGateQueries, ops.size())) {
    gate_views.push_back(ops[g]);
    gate_answers.push_back(answers[g]);
  }
  const std::vector<Neighbor> oracle = OracleNn(**rows, gate_views);
  for (size_t g = 0; g < gate_views.size(); ++g) {
    if (!SameNeighbors(gate_answers[g], {oracle[g]})) {
      result.Fail("exactness gate: traced answer differs from brute force");
    }
  }
  rows->reset();

  // The workload with its appender (traced): the stall appends impose
  // on overlapping queries, live segments, compactions, lateness.
  const uint64_t compactions = engine->compaction_count();
  std::vector<Interval> query_iv, append_iv;
  std::vector<double> segments, lateness_ms;
  {
    const double t0 = Now();
    Appender appender(engine.get(), config.seed, t0, 0);
    for (size_t i = 0; Now() < t0 + std::min(config.seconds,
                                              kTracedAppendSeconds);
         ++i) {
      const double q0 = Now();
      auto response = engine->Search(queries.series(kTracedOps + i));
      const double q1 = Now();
      spans.Add("core.Engine::Search(appending)", q0, q1, i);
      query_iv.push_back({q0, q1});
      segments.push_back(static_cast<double>(
          engine->paris_index()->serving()->segments.size()));
      ++result.attempted;
      if (!response.ok()) {
        result.Fail("search: " + response.status().ToString());
      }
    }
    for (const AppendRecord& rec : appender.Stop()) {
      spans.Add("core.Engine::Append", rec.start, rec.ack, 0);
      append_iv.push_back({rec.start, rec.ack});
      lateness_ms.push_back(Ms(Lateness({rec.due, rec.start, rec.ack})));
      ++result.attempted;
      if (!rec.ok) result.Fail("append failed");
    }
  }
  Add(&result.layers, "core.query_stall_ms",
      Ms(WorstOverlapExcess(query_iv, append_iv, Median(untraced_ms) / 1e3)),
      "ms");
  Add(&result.layers, "core.compactions",
      static_cast<double>(engine->compaction_count() - compactions), "count");
  Add(&result.layers, "index.live_segments_mean", Mean(segments), "count");
  Add(&result.layers, "index.live_segments_max",
      segments.empty() ? 0.0
                       : *std::max_element(segments.begin(), segments.end()),
      "count");
  result.lateness_p99_ms = Percentile(lateness_ms, 0.99);
  Add(&result.layers, "loadgen.lateness_p99_ms", result.lateness_p99_ms, "ms");

  // core: an Append with no queries running.
  std::vector<double> append_ms;
  for (uint64_t k = 0; k < 3; ++k) {
    const Dataset batch = GenerateBatch(config.seed, 100000 + k, kAppendRows,
                                        kLength);
    const double t0 = Now();
    auto report = engine->Append(batch);
    append_ms.push_back(Ms(Now() - t0));
    ++result.attempted;
    if (!report.ok()) result.Fail("append: " + report.status().ToString());
  }
  Add(&result.layers, "core.append_ms", Median(append_ms), "ms");

  // persist: Save of the grown collection, then Engine::Open.
  double t = Now();
  const Status saved = engine->Save(paths.snapshot);
  const double save_s = Now() - t;
  spans.Add("persist.Engine::Save", t, t + save_s, 0);
  ++result.attempted;
  if (!saved.ok()) result.Fail("save: " + saved.ToString());
  const uint64_t user_bytes =
      static_cast<uint64_t>(engine->series_count()) * kLength * sizeof(Value);
  const uint64_t stored = FileBytes(paths.snapshot) + FileBytes(paths.leaves);
  engine.reset();
  t = Now();
  auto opened = Engine::Open(paths.snapshot, paths.data, ParisOptions(paths));
  const double open_s = Now() - t;
  spans.Add("persist.Engine::Open", t, t + open_s, 0);
  ++result.attempted;
  if (!opened.ok()) result.Fail("open: " + opened.status().ToString());
  if (opened.ok()) opened->reset();
  Add(&result.layers, "persist.save_s", save_s, "s");
  Add(&result.layers, "persist.open_s", open_s, "s");
  Add(&result.layers, "persist.bytes_per_user_byte",
      user_bytes > 0 ? static_cast<double>(stored) / user_bytes : 0.0,
      "ratio");
  result.notes.push_back(
      "persist: one Save after appends -> snapshot chain of length 1 (a full "
      "snapshot; the engine had no lineage)");
  RemoveFiles(config);

  spans.WriteTo(config.workdir + "/spans-ondisk_ingest.jsonl");
  result.notes.push_back(
      "traced: " + std::to_string(spans.size()) +
      " spans; entrances Engine::Search -> ParisIndex::SearchExact -> "
      "sax/dist on the same ops; tracing overhead = traced minus untraced "
      "Engine::Search p50 over the same ops");
  return result;
}

}  // namespace

RunResult RunOndiskIngest(const RunConfig& config) {
  return config.trace ? Traced(config) : Untraced(config);
}

}  // namespace layerbench

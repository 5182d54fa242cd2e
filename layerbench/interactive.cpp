// interactive_exact: one analyst at a time. MESSI over 1M x 256
// random walks adopted in memory; one closed-loop client calls
// Engine::Search (the engine's 4-thread pool) with fresh exact 1-NN
// queries from GenerateQueries.
#include <algorithm>

#include "common.h"
#include "io/generator.h"
#include "stats.h"
#include "workloads.h"

namespace layerbench {

using namespace parisax;

namespace {

constexpr size_t kSeries = 1000000;
constexpr size_t kLength = 256;
constexpr int kThreads = 4;
constexpr int kSetupRepeats = 5;
constexpr size_t kQueryPool = 8000;
constexpr size_t kWarmupQueries = 10;
constexpr size_t kGateQueries = 8;
/// Ops replayed per layer entrance in the traced run.
constexpr size_t kTracedOps = 200;
constexpr size_t kTracedSerialOps = 40;
constexpr size_t kTracedKernelOps = 50;

EngineOptions MessiOptions() {
  EngineOptions options;
  options.algorithm = Algorithm::kMessi;
  options.num_threads = kThreads;
  return options;
}

/// Builds `repeats` times (the last build adopts `data` itself) and
/// keeps the last engine; returns the build wall times.
std::vector<double> BuildRepeatedly(Dataset data, int repeats,
                                    std::unique_ptr<Engine>* engine,
                                    RunResult* result) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    engine->reset();
    Dataset rows = r + 1 < repeats ? CopyDataset(data) : std::move(data);
    const double t0 = Now();
    auto built = Engine::Build(SourceSpec::InMemory(std::move(rows)),
                               MessiOptions());
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

/// Checks `answers[i]` (exact 1-NN of queries[sample[i]]) against the
/// brute-force oracle over the engine's collection.
void GateExact(const Engine& engine, const std::vector<SeriesView>& queries,
               const std::vector<std::vector<Neighbor>>& answers,
               RunResult* result) {
  const std::vector<Neighbor> oracle = OracleNn(engine.source(), queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!SameNeighbors(answers[i], {oracle[i]})) {
      result->Fail("exactness gate: query " + std::to_string(i) +
                   " differs from the brute-force scan");
    }
  }
}

RunResult Untraced(const RunConfig& config) {
  RunResult result;
  Dataset data = GenerateRandomWalks(config.seed, kSeries, kLength);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, kQueryPool, kLength,
                      config.seed);
  std::unique_ptr<Engine> engine;
  const std::vector<double> setup =
      BuildRepeatedly(std::move(data), kSetupRepeats, &engine, &result);
  if (!engine) return result;

  // Warm-up from the end of the pool, disjoint from the measured queries.
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    (void)engine->Search(queries.series(kQueryPool - 1 - i));
  }

  const size_t min_queries = MinSamplesFor(0.99);
  const std::vector<size_t> gate =
      SeededSample(config.seed, kGateQueries, min_queries);
  std::vector<std::vector<Neighbor>> gate_answers(gate.size());
  std::vector<double> latency_ms;
  const double end = Now() + config.seconds;
  size_t i = 0;
  for (; (Now() < end || i < min_queries) && i + kWarmupQueries < kQueryPool;
       ++i) {
    const double t0 = Now();
    auto response = engine->Search(queries.series(i));
    const double t1 = Now();
    ++result.attempted;
    if (!response.ok()) {
      result.Fail("search: " + response.status().ToString());
      continue;
    }
    latency_ms.push_back(Ms(t1 - t0));
    const auto it = std::lower_bound(gate.begin(), gate.end(), i);
    if (it != gate.end() && *it == i) {
      gate_answers[it - gate.begin()] = response->neighbors;
    }
  }
  std::vector<SeriesView> gate_queries;
  for (size_t g : gate) gate_queries.push_back(queries.series(g));
  GateExact(*engine, gate_queries, gate_answers, &result);

  if (!PercentileReportable(latency_ms.size(), 0.99)) {
    result.Fail("fewer than " + std::to_string(min_queries) +
                " queries: p99 has under ten samples beyond it");
  }
  Add(&result.end_to_end, "setup_s", Median(setup), "s");
  Add(&result.end_to_end, "query_p50_ms", Percentile(latency_ms, 0.5), "ms");
  Add(&result.end_to_end, "query_p90_ms", Percentile(latency_ms, 0.9), "ms");
  Add(&result.extra, "query_p99_ms", Percentile(latency_ms, 0.99), "ms");
  result.notes.push_back("closed loop: " + std::to_string(latency_ms.size()) +
                         " queries, no schedule (lateness 0)");
  return result;
}

RunResult Traced(const RunConfig& config) {
  RunResult result;
  SpanRecorder spans;
  Dataset data = GenerateRandomWalks(config.seed, kSeries, kLength);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, kTracedOps, kLength,
                      config.seed);
  std::unique_ptr<Engine> engine;
  const std::vector<double> setup =
      BuildRepeatedly(std::move(data), 1, &engine, &result);
  if (!engine) return result;
  result.notes.push_back("build " + std::to_string(setup[0]) + " s");
  const std::vector<SeriesView> ops = Views(queries, 0, kTracedOps);
  for (size_t i = 0; i < kWarmupQueries; ++i) (void)engine->Search(ops[i]);

  // Outermost entrance (core: Engine::Search), untraced then traced.
  std::vector<double> untraced_ms, traced_ms;
  std::vector<std::vector<Neighbor>> answers(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const double t0 = Now();
    auto response = engine->Search(ops[i]);
    untraced_ms.push_back(Ms(Now() - t0));
    ++result.attempted;
    if (!response.ok()) {
      result.Fail("search: " + response.status().ToString());
      continue;
    }
    answers[i] = response->neighbors;
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const double t0 = Now();
    auto response = engine->Search(ops[i]);
    const double t1 = Now();
    spans.Add("core.Engine::Search", t0, t1, i);
    traced_ms.push_back(Ms(t1 - t0));
    ++result.attempted;
    if (!response.ok() || !SameNeighbors(response->neighbors, answers[i])) {
      result.Fail("traced pass: answer differs from the untraced pass");
    }
  }
  const uint64_t compactions = engine->compaction_count();

  // Index entrance: MessiIndex::SearchExact on the same ops.
  const IndexPass pass = MeasureMessi(*engine->messi_index(), ops,
                                      kTracedSerialOps, &spans, &result);
  Add(&result.layers, "core.search_self_ms",
      PairedSelfTime(traced_ms, pass.latency_ms), "ms");

  const std::vector<SeriesView> kernel_ops =
      Views(queries, 0, kTracedKernelOps);
  const double mindist_ns =
      MeasureSax(engine->source(), kernel_ops, config.seed, &spans, &result);
  MeasureDist(engine->source(), kernel_ops, pass.final_bsf, config.seed,
              &spans, &result);
  AddLowerBoundShare(pass, mindist_ns, kLength, &result);
  MeasurePoolDispatch(&spans, &result);

  const auto serving = engine->messi_index()->serving();
  Add(&result.layers, "index.live_segments_mean",
      static_cast<double>(serving->segments.size()), "count");
  Add(&result.layers, "index.live_segments_max",
      static_cast<double>(serving->segments.size()), "count");
  const size_t entries =
      engine->messi_index()->build_stats().tree.total_entries;
  Add(&result.layers, "index.leaf_bytes",
      static_cast<double>(entries * sizeof(LeafEntry)), "bytes");
  Add(&result.layers, "core.compactions",
      static_cast<double>(engine->compaction_count() - compactions), "count");
  Add(&result.layers, "trace.overhead_ms",
      Median(traced_ms) - Median(untraced_ms), "ms");

  // Exactness gate on a sample of the replayed ops.
  const std::vector<size_t> gate =
      SeededSample(config.seed, kGateQueries / 2, ops.size());
  std::vector<SeriesView> gate_queries;
  std::vector<std::vector<Neighbor>> gate_answers;
  for (size_t g : gate) {
    gate_queries.push_back(ops[g]);
    gate_answers.push_back(answers[g]);
  }
  GateExact(*engine, gate_queries, gate_answers, &result);

  spans.WriteTo(config.workdir + "/spans-interactive_exact.jsonl");
  result.notes.push_back("traced: " + std::to_string(spans.size()) +
                         " spans; tracing overhead = traced minus untraced "
                         "Engine::Search p50 over the same ops");
  return result;
}

}  // namespace

RunResult RunInteractiveExact(const RunConfig& config) {
  return config.trace ? Traced(config) : Untraced(config);
}

}  // namespace layerbench

#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "dist/euclidean.h"
#include "io/generator.h"
#include "sax/mindist.h"
#include "sax/paa.h"
#include "sax/word.h"
#include "scan/ucr_scan.h"
#include "stats.h"
#include "util/rng.h"
#include "util/threading.h"

namespace layerbench {

using namespace parisax;

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Prints a double with all its significant digits.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const Metric* Find(const std::vector<Metric>& list, const std::string& name) {
  for (const Metric& m : list) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

void SleepUntil(double t) {
  const double wait = t - Now();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

void Add(std::vector<Metric>* list, const std::string& name, double value,
         const std::string& unit) {
  list->push_back({name, value, unit});
}

const std::vector<Metric>& EndToEndCatalog() {
  static const std::vector<Metric> kCatalog = {
      {"setup_s", 0, "s"},
      {"query_p50_ms", 0, "ms"},
      // p90, not p99: on a 4-vCPU host the p99 of the same code spread
      // 14-27% (IQR / median over ten seeds) on every workload, past the
      // largest bound the gate allows. p99 is printed beside it.
      {"query_p90_ms", 0, "ms"},
  };
  return kCatalog;
}

const std::vector<Metric>& PerLayerCatalog() {
  static const std::vector<Metric> kCatalog = {
      {"dist.ed_ns", 0, "ns"},
      {"dist.ed_ea_ns", 0, "ns"},
      {"dist.refine_bytes", 0, "bytes"},
      {"sax.mindist_ns", 0, "ns"},
      {"sax.lb_share", 0, "ratio"},
      {"messi.search_pool_ms", 0, "ms"},
      {"messi.search_serial_ms", 0, "ms"},
      {"messi.parallel_speedup", 0, "ratio"},
      {"messi.approx_ms", 0, "ms"},
      {"messi.exact_ms", 0, "ms"},
      {"messi.lb_checks", 0, "count"},
      {"messi.real_dist_calcs", 0, "count"},
      {"messi.leaves_inspected", 0, "count"},
      {"messi.nodes_visited", 0, "count"},
      {"messi.queue_abandons", 0, "count"},
      {"messi.pruning_ratio", 0, "ratio"},
      {"paris.search_pool_ms", 0, "ms"},
      {"paris.approx_ms", 0, "ms"},
      {"paris.filter_ms", 0, "ms"},
      {"paris.refine_ms", 0, "ms"},
      {"paris.lb_checks", 0, "count"},
      {"paris.candidates", 0, "count"},
      {"paris.real_dist_calcs", 0, "count"},
      {"paris.candidate_ratio", 0, "ratio"},
      {"paris.build_read_s", 0, "s"},
      {"paris.build_stage3_s", 0, "s"},
      {"paris.build_flush_s", 0, "s"},
      {"util.pool_dispatch_us", 0, "us"},
      {"core.search_self_ms", 0, "ms"},
      {"core.append_ms", 0, "ms"},
      {"core.query_stall_ms", 0, "ms"},
      {"core.compactions", 0, "count"},
      {"index.live_segments_mean", 0, "count"},
      {"index.live_segments_max", 0, "count"},
      {"index.leaf_bytes", 0, "bytes"},
      {"shard.search_inline_ms", 0, "ms"},
      {"shard.router_ms", 0, "ms"},
      {"shard.build_speedup", 0, "ratio"},
      {"serve.latency_ms", 0, "ms"},
      {"serve.queue_wait_ms", 0, "ms"},
      {"serve.ran_inline", 0, "count"},
      {"serve.ran_parallel", 0, "count"},
      {"serve.steals", 0, "count"},
      {"serve.rejected_overload", 0, "count"},
      {"serve.expired_in_queue", 0, "count"},
      {"serve.peak_inflight", 0, "count"},
      {"net.encode_us", 0, "us"},
      {"net.decode_us", 0, "us"},
      {"net.wire_ms", 0, "ms"},
      {"persist.save_s", 0, "s"},
      {"persist.open_s", 0, "s"},
      {"persist.bytes_per_user_byte", 0, "ratio"},
      {"loadgen.lateness_p99_ms", 0, "ms"},
      {"trace.overhead_ms", 0, "ms"},
  };
  return kCatalog;
}

int PrintResult(const RunConfig& config, const RunResult& result) {
  std::ostringstream meta;
  meta << "{\"workload\": \"" << config.workload << "\", \"seed\": "
       << config.seed << ", \"trace\": " << (config.trace ? 1 : 0)
       << ", \"git_sha\": \"" << JsonEscape(config.git_sha)
       << "\", \"build_type\": \"" << LAYERBENCH_BUILD_TYPE
       << "\", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": \"" << JsonEscape(CpuModel())
       << "\", \"simd\": " << (SimdAvailable() ? "true" : "false")
       << ", \"loadgen.lateness_p99_ms\": " << Num(result.lateness_p99_ms)
       << ", \"seconds\": " << Num(config.seconds) << "}";
  std::cout << "meta " << meta.str() << "\n";
  for (const std::string& note : result.notes) {
    std::cout << "note " << note << "\n";
  }

  const double error_rate =
      result.attempted == 0
          ? 1.0
          : static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  std::vector<Metric> gated;
  if (!config.trace) {
    std::cout << "end-to-end metrics (" << config.workload << ")\n";
    for (const Metric& want : EndToEndCatalog()) {
      const Metric* got = Find(result.end_to_end, want.name);
      const double v = got != nullptr ? got->value : 0.0;
      gated.push_back({want.name, v, want.unit});
      std::printf("  %-24s %14.4f %s\n", want.name.c_str(), v,
                  want.unit.c_str());
    }
    for (const Metric& m : result.extra) {
      std::printf("  %-24s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("  %-24s %14.6f %s  (%llu failed of %llu attempted)\n",
                "error_rate", error_rate, "ratio",
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
  } else {
    std::cout << "per-layer metrics (" << config.workload
              << "; 0 = layer bypassed by this workload)\n";
    std::printf("  %-8s %-30s %16s %s\n", "layer", "metric", "value", "unit");
    for (const Metric& want : PerLayerCatalog()) {
      const Metric* got = Find(result.layers, want.name);
      const double v = got != nullptr ? got->value : 0.0;
      gated.push_back({want.name, v, want.unit});
      const std::string layer = want.name.substr(0, want.name.find('.'));
      std::printf("  %-8s %-30s %16s %s\n", layer.c_str(), want.name.c_str(),
                  got != nullptr ? Num(v).c_str() : "-", want.unit.c_str());
    }
  }
  std::fflush(stdout);

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < gated.size(); ++i) {
    json << (i ? ", " : "") << "\"" << gated[i].name << "\": {\"value\": "
         << Num(gated[i].value) << ", \"unit\": \"" << gated[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return result.correct ? 0 : 1;
}

int64_t SpanRecorder::Add(const char* name, double start, double end,
                          uint64_t op, int64_t parent) {
  MutexLock lock(&mu_);
  spans_.push_back({name, start, end, parent, op});
  return static_cast<int64_t>(spans_.size()) - 1;
}

size_t SpanRecorder::size() const {
  MutexLock lock(&mu_);
  return spans_.size();
}

bool SpanRecorder::WriteTo(const std::string& path) const {
  MutexLock lock(&mu_);
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start\": " << Num(s.start) << ", \"end\": " << Num(s.end)
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].distance_sq, &b[i].distance_sq, sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

Dataset GenerateRandomWalks(uint64_t seed, size_t count, size_t length) {
  ThreadPool pool(4);
  GeneratorOptions gen;
  gen.kind = DatasetKind::kRandomWalk;
  gen.count = count;
  gen.length = length;
  gen.seed = seed;
  return GenerateDataset(gen, &pool);
}

std::vector<SeriesView> Views(const Dataset& d, size_t first, size_t count) {
  std::vector<SeriesView> views;
  for (size_t i = first; i < first + count && i < d.count(); ++i) {
    views.push_back(d.series(i));
  }
  return views;
}

Dataset CopyDataset(const Dataset& d) {
  Dataset copy(d.count(), d.length());
  std::memcpy(copy.mutable_raw(), d.raw(), d.TotalValues() * sizeof(Value));
  return copy;
}

Dataset GenerateBatch(uint64_t seed, uint64_t batch_index, size_t count,
                      size_t length) {
  Dataset batch(count, length);
  const uint64_t stream = seed ^ 0x415050454e44ULL;  // disjoint append rows
  for (size_t i = 0; i < count; ++i) {
    GenerateSeriesInto(DatasetKind::kRandomWalk, stream,
                       batch_index * count + i, batch.mutable_series(i));
  }
  return batch;
}

namespace {

constexpr size_t kLayerRows = 512;

/// A seeded block of kLayerRows consecutive collection rows.
SeriesId RowBlockStart(const RawSeriesSource& rows, uint64_t seed) {
  Rng rng(seed ^ 0x524f5753ULL);
  const size_t span = rows.count() > kLayerRows ? rows.count() - kLayerRows : 1;
  return rng.NextU64() % span;
}

}  // namespace

void MeasureDist(const RawSeriesSource& rows,
                 const std::vector<SeriesView>& queries,
                 const std::vector<float>& final_bsf, uint64_t seed,
                 SpanRecorder* spans, RunResult* result) {
  const SeriesId first = RowBlockStart(rows, seed);
  const size_t n = rows.length();
  const size_t block = std::min(kLayerRows, rows.count());
  std::vector<Value> block_values(block * n);
  for (size_t r = 0; r < block; ++r) {
    if (!rows.GetSeries(first + r, block_values.data() + r * n).ok()) {
      result->Fail("dist layer: could not read collection rows");
      return;
    }
  }
  std::vector<double> ed_ns;
  std::vector<double> ea_ns;
  volatile float sink = 0.0f;
  for (size_t q = 0; q < queries.size(); ++q) {
    const float* query = queries[q].data();
    double t0 = Now();
    float acc = 0.0f;
    for (size_t r = 0; r < block; ++r) {
      acc += SquaredEuclidean(query, block_values.data() + r * n, n);
    }
    double t1 = Now();
    spans->Add("dist.SquaredEuclidean", t0, t1, q);
    ed_ns.push_back((t1 - t0) * 1e9 / static_cast<double>(block));
    const float bound = final_bsf[q];
    t0 = Now();
    for (size_t r = 0; r < block; ++r) {
      acc += SquaredEuclideanEarlyAbandon(query, block_values.data() + r * n,
                                          n, bound);
    }
    t1 = Now();
    spans->Add("dist.SquaredEuclideanEarlyAbandon", t0, t1, q);
    ea_ns.push_back((t1 - t0) * 1e9 / static_cast<double>(block));
    sink = sink + acc;
  }
  Add(&result->layers, "dist.ed_ns", Median(ed_ns), "ns");
  Add(&result->layers, "dist.ed_ea_ns", Median(ea_ns), "ns");
}

double MeasureSax(const RawSeriesSource& rows,
                  const std::vector<SeriesView>& queries, uint64_t seed,
                  SpanRecorder* spans, RunResult* result) {
  constexpr int kSegments = 16;
  const SeriesId first = RowBlockStart(rows, seed);
  const size_t n = rows.length();
  const size_t block = std::min(kLayerRows, rows.count());
  std::vector<SaxWord> words(block);
  std::vector<Value> row(n);
  float paa[kSegments];
  for (size_t r = 0; r < block; ++r) {
    if (!rows.GetSeries(first + r, row.data()).ok()) {
      result->Fail("sax layer: could not read collection rows");
      return 0.0;
    }
    ComputePaa(SeriesView(row.data(), n), kSegments, paa);
    SaxSymbols symbols;
    SymbolsFromPaa(paa, kSegments, &symbols);
    for (int s = 0; s < kSegments; ++s) {
      words[r].symbols[s] = symbols.symbols[s];
      words[r].bits[s] = kMaxCardBits;
    }
  }
  std::vector<double> ns;
  volatile float sink = 0.0f;
  for (size_t q = 0; q < queries.size(); ++q) {
    ComputePaa(queries[q], kSegments, paa);
    const double t0 = Now();
    float acc = 0.0f;
    for (size_t r = 0; r < block; ++r) {
      acc += MinDistPaaToWordSq(paa, words[r], kSegments, n);
    }
    const double t1 = Now();
    spans->Add("sax.MinDistPaaToWordSq", t0, t1, q);
    ns.push_back((t1 - t0) * 1e9 / static_cast<double>(block));
    sink = sink + acc;
  }
  const double mindist_ns = Median(ns);
  Add(&result->layers, "sax.mindist_ns", mindist_ns, "ns");
  return mindist_ns;
}

void MeasurePoolDispatch(SpanRecorder* spans, RunResult* result) {
  ThreadPool pool(4);
  const std::function<void(int)> empty = [](int) {};
  for (int i = 0; i < 100; ++i) pool.Run(empty);  // wake the workers
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const double t0 = Now();
    pool.Run(empty);
    const double t1 = Now();
    spans->Add("util.ThreadPool::Run", t0, t1, static_cast<uint64_t>(i));
    us.push_back((t1 - t0) * 1e6);
  }
  Add(&result->layers, "util.pool_dispatch_us", Median(us), "us");
}

IndexPass MeasureMessi(const MessiIndex& index,
                       const std::vector<SeriesView>& queries,
                       size_t serial_queries, SpanRecorder* spans,
                       RunResult* result) {
  IndexPass pass;
  ThreadPool pool(4);
  InlineExecutor inline_exec;
  MessiQueryOptions options;
  options.num_workers = 4;
  std::vector<double> approx_ms, exact_ms, leaves, nodes, abandons;
  std::vector<double> lb, real;
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryStats stats;
    const double t0 = Now();
    auto answer = index.SearchExact(queries[q], options, &pool, &stats);
    const double t1 = Now();
    spans->Add("messi.SearchExact(pool)", t0, t1, q);
    if (!answer.ok()) {
      result->Fail("messi SearchExact: " + answer.status().ToString());
      pass.final_bsf.push_back(0.0f);
      continue;
    }
    pass.latency_ms.push_back(Ms(t1 - t0));
    pass.final_bsf.push_back(answer->distance_sq);
    approx_ms.push_back(Ms(stats.approx_phase_seconds));
    exact_ms.push_back(Ms(stats.total_seconds - stats.approx_phase_seconds));
    lb.push_back(static_cast<double>(stats.lb_checks));
    real.push_back(static_cast<double>(stats.real_dist_calcs));
    leaves.push_back(static_cast<double>(stats.leaves_inspected));
    nodes.push_back(static_cast<double>(stats.nodes_visited));
    abandons.push_back(static_cast<double>(stats.queue_abandons));
  }
  std::vector<double>& serial_ms = pass.serial_ms;
  std::vector<double> pool_same_ms;
  MessiQueryOptions serial_options = options;
  serial_options.num_workers = 1;
  for (size_t q = 0; q < std::min(serial_queries, pass.latency_ms.size());
       ++q) {
    const double t0 = Now();
    auto answer = index.SearchExact(queries[q], serial_options, &inline_exec);
    const double t1 = Now();
    spans->Add("messi.SearchExact(inline)", t0, t1, q);
    if (!answer.ok()) {
      result->Fail("messi SearchExact inline: " + answer.status().ToString());
      continue;
    }
    serial_ms.push_back(Ms(t1 - t0));
    pool_same_ms.push_back(pass.latency_ms[q]);
  }
  pass.lb_checks = Mean(lb);
  pass.real_dist_calcs = Mean(real);
  const double pool_p50 = Median(pass.latency_ms);
  Add(&result->layers, "messi.search_pool_ms", pool_p50, "ms");
  Add(&result->layers, "messi.search_serial_ms", Median(serial_ms), "ms");
  const double pool_same = Median(pool_same_ms);
  Add(&result->layers, "messi.parallel_speedup",
      pool_same > 0 ? Median(serial_ms) / pool_same : 0.0, "ratio");
  Add(&result->layers, "messi.approx_ms", Median(approx_ms), "ms");
  Add(&result->layers, "messi.exact_ms", Median(exact_ms), "ms");
  Add(&result->layers, "messi.lb_checks", pass.lb_checks, "count");
  Add(&result->layers, "messi.real_dist_calcs", pass.real_dist_calcs,
      "count");
  Add(&result->layers, "messi.leaves_inspected", Mean(leaves), "count");
  Add(&result->layers, "messi.nodes_visited", Mean(nodes), "count");
  Add(&result->layers, "messi.queue_abandons", Mean(abandons), "count");
  const double count = static_cast<double>(index.series_count());
  Add(&result->layers, "messi.pruning_ratio",
      count > 0 ? 1.0 - pass.real_dist_calcs / count : 0.0, "ratio");
  result->notes.push_back(
      "messi filter and refine phases: not reported (MessiIndex::SearchExact "
      "fills only approx_phase_seconds and total_seconds; messi.exact_ms is "
      "total - approximate)");
  return pass;
}

void AddLowerBoundShare(const IndexPass& pass, double mindist_ns,
                        size_t series_length, RunResult* result) {
  const double p50_ms = Median(pass.latency_ms);
  Add(&result->layers, "sax.lb_share",
      p50_ms > 0 ? pass.lb_checks * mindist_ns * 1e-6 / p50_ms : 0.0,
      "ratio");
  Add(&result->layers, "dist.refine_bytes",
      pass.real_dist_calcs * static_cast<double>(series_length) *
          sizeof(Value),
      "bytes");
}

std::vector<Neighbor> OracleNn(const RawSeriesSource& source,
                               const std::vector<SeriesView>& queries) {
  std::vector<Neighbor> answers(queries.size());
  std::vector<std::thread> threads;
  const size_t workers = std::min<size_t>(4, queries.size());
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t q = w; q < queries.size(); q += workers) {
        answers[q] = BruteForceNn(source, queries[q]);
      }
    });
  }
  for (auto& t : threads) t.join();
  return answers;
}

std::vector<size_t> SeededSample(uint64_t seed, size_t count, size_t range) {
  std::vector<size_t> all(range);
  for (size_t i = 0; i < range; ++i) all[i] = i;
  Rng rng(seed ^ 0x53414d504c45ULL);  // "SAMPLE"
  count = std::min(count, range);
  for (size_t i = 0; i < count; ++i) {
    const size_t j = i + rng.NextU64() % (range - i);
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace layerbench

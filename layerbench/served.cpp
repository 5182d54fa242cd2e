// served_mixed: many independent users over the wire. A ShardedEngine
// (2 MESSI shards x 2 threads) over 100k x 256 random walks behind an
// in-process Server with default options. One generator thread sends an
// open-loop mix (60% exact 1-NN, 20% exact 10-NN, 20% approximate) of
// perturbed queries over 4 loopback connections, plus one 64-series
// APPEND frame every 50 ms, on a fixed ladder of offered rates. The
// gated latencies are read on the lowest (nominal) rung, after an untimed
// warm-up at that rate.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <thread>

#include "common.h"
#include "dist/euclidean.h"
#include "io/generator.h"
#include "net/protocol.h"
#include "net/server.h"
#include "scan/ucr_scan.h"
#include "serve/query_service.h"
#include "shard/sharded_engine.h"
#include "stats.h"
#include "util/rng.h"
#include "wire_client.h"
#include "workloads.h"

namespace layerbench {

using namespace parisax;

namespace {

constexpr size_t kSeries = 100000;
constexpr size_t kLength = 256;
constexpr size_t kShards = 2;
constexpr int kThreadsPerShard = 2;
constexpr int kConnections = 4;
/// Set-up takes under 0.2 s here, so its median takes more repeats than
/// the other workloads need.
constexpr int kSetupRepeats = 11;
constexpr size_t kKnnK = 10;
constexpr size_t kAppendRows = 64;
constexpr double kAppendPeriod = 0.050;
/// The rate the gated latencies are read at: the lowest rung. On a
/// 4-vCPU host 400 qps is already near the knee (600 qps often misses
/// the SLO), so its latency mostly measures the host's spare CPU: under
/// intermittent load on one core, six seeds spread the 400 qps p50 by
/// 29% and its p99 by 73% (IQR / median), against 9% and 12% at 200 qps.
constexpr double kNominalQps = 200.0;
/// Untimed traffic at the nominal rate, appends included, so segment
/// publication and background compaction reach their cycle first.
constexpr double kWarmupSeconds = 2.0;
/// Rung index of the warm-up ops.
constexpr int kWarmupRung = -1;
constexpr double kSloP99Ms = 50.0;
/// The offered-rate ladder, ascending; the same on every commit.
constexpr double kLadder[] = {200.0, 400.0, 600.0, 800.0};
constexpr size_t kGateQueries = 8;
constexpr size_t kQueryPool = 16000;
/// Query ops replayed per layer entrance in the traced run.
constexpr size_t kTracedOps = 1000;
constexpr size_t kTracedIndexOps = 300;
constexpr size_t kTracedKernelOps = 50;

enum class OpKind : uint8_t { kExact, kKnn, kApprox, kAppend };
enum class Outcome : uint8_t {
  kPending,
  kOk,
  kOverloaded,
  kDeadline,
  kError,
  kWrong
};

struct WireOp {
  OpKind kind = OpKind::kExact;
  /// Query pool index, or the global append batch index.
  size_t item = 0;
  int rung = -1;
  bool gate = false;
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  Outcome outcome = Outcome::kPending;
  std::vector<Neighbor> answer;  // gate ops only
};

SearchRequest RequestFor(OpKind kind) {
  SearchRequest request;
  if (kind == OpKind::kKnn) request.k = kKnnK;
  if (kind == OpKind::kApprox) request.approximate = true;
  return request;
}

/// The generated collection as the client knows it: the initial rows
/// plus every append batch, in the order the batches were sent.
class Mirror {
 public:
  Mirror(Dataset base, uint64_t seed) : base_(std::move(base)), seed_(seed) {}

  /// Generates the next `count` batches (call before they are sent).
  void GenerateBatches(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      batches_.push_back(
          GenerateBatch(seed_, batches_.size(), kAppendRows, kLength));
    }
  }
  size_t batches() const { return batches_.size(); }
  const Dataset& batch(size_t i) const { return batches_[i]; }
  const Dataset& base() const { return base_; }

  /// Row `id` assuming the first batches were applied in send order.
  const Value* Row(SeriesId id) const {
    if (id < base_.count()) return base_.series(id).data();
    const size_t off = id - base_.count();
    return batches_[off / kAppendRows].series(off % kAppendRows).data();
  }

  /// The collection after `applied` batches, as one Dataset.
  Dataset Collection(size_t applied) const {
    Dataset all = CopyDataset(base_);
    for (size_t b = 0; b < applied; ++b) {
      all.Append(batches_[b].raw(), kAppendRows);
    }
    return all;
  }

 private:
  Dataset base_;
  uint64_t seed_;
  std::vector<Dataset> batches_;
};

/// The open-loop generator: 4 connections, one reader thread per
/// connection, one sending thread (the caller of Run).
class WireLoad {
 public:
  WireLoad(const Dataset* queries, Mirror* mirror)
      : queries_(queries), mirror_(mirror) {}
  ~WireLoad() { Close(); }
  WireLoad(const WireLoad&) = delete;
  WireLoad& operator=(const WireLoad&) = delete;

  Status Connect(uint16_t port) {
    for (int c = 0; c < kConnections; ++c) {
      clients_.push_back(std::make_unique<WireClient>());
      Status st = clients_.back()->Connect(port);
      if (!st.ok()) return st;
    }
    for (int c = 0; c < kConnections; ++c) {
      readers_.emplace_back([this, c] { ReaderLoop(c); });
    }
    return Status::OK();
  }

  void Close() {
    for (auto& client : clients_) client->Shutdown();
    for (auto& t : readers_) t.join();
    readers_.clear();
    clients_.clear();
  }

  /// Sends `ops` (due times relative to the call) on schedule and waits
  /// for every answer. `on_send` runs after each query send (sampling).
  /// Returns false when answers stopped arriving.
  bool Run(std::vector<WireOp>* ops, const std::function<void()>& on_send,
           std::vector<double>* inflight_by_op) {
    ops_.store(ops, std::memory_order_release);
    done_.store(0, std::memory_order_relaxed);
    const double start = Now() + 0.005;
    size_t query_index = 0;
    for (size_t i = 0; i < ops->size(); ++i) {
      WireOp& op = (*ops)[i];
      op.due += start;
      SleepUntil(op.due);
      std::vector<uint8_t> frame;
      int conn = 0;
      if (op.kind == OpKind::kAppend) {
        AppendFrame append;
        append.request_id = i;
        append.count = kAppendRows;
        append.series_len = kLength;
        const Dataset& batch = mirror_->batch(op.item);
        append.values.assign(batch.raw(), batch.raw() + batch.TotalValues());
        frame = EncodeAppendFrame(append);
        appends_sent_.fetch_add(1, std::memory_order_release);
      } else {
        QueryFrame query;
        query.request_id = i;
        query.k = op.kind == OpKind::kKnn ? kKnnK : 1;
        query.approximate = op.kind == OpKind::kApprox;
        const SeriesView q = queries_->series(op.item);
        query.values.assign(q.begin(), q.end());
        frame = EncodeQueryFrame(
            op.kind == OpKind::kKnn ? FrameType::kKnn : FrameType::kQuery,
            query);
        conn = static_cast<int>(query_index++ % kConnections);
      }
      op.sent = Now();
      if (!clients_[conn]->Send(frame).ok()) {
        op.outcome = Outcome::kError;
        op.done = op.sent;
        done_.fetch_add(1, std::memory_order_acq_rel);
        continue;
      }
      if (op.kind != OpKind::kAppend) {
        queries_sent_.fetch_add(1, std::memory_order_relaxed);
        if (inflight_by_op != nullptr) {
          (*inflight_by_op)[i] = static_cast<double>(
              queries_sent_.load(std::memory_order_relaxed) -
              queries_done_.load(std::memory_order_relaxed));
        }
        if (on_send) on_send();
      }
    }
    const double give_up = Now() + 60.0;
    while (done_.load(std::memory_order_acquire) < ops->size()) {
      if (Now() > give_up) {
        ops_.store(nullptr, std::memory_order_release);
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ops_.store(nullptr, std::memory_order_release);
    return true;
  }

  /// Sends one op and waits for its answer (the exactness gates).
  bool RunOne(WireOp* op) {
    std::vector<WireOp> one(1, *op);
    one[0].due = 0.0;
    const bool ok = Run(&one, nullptr, nullptr);
    *op = std::move(one[0]);
    return ok;
  }

 private:
  void ReaderLoop(int conn) {
    std::vector<uint8_t> body;
    while (true) {
      auto header = clients_[conn]->Read(&body);
      if (!header.ok()) return;  // closed
      const double now = Now();
      const std::span<const uint8_t> bytes(body.data(), body.size());
      std::vector<WireOp>* ops = ops_.load(std::memory_order_acquire);
      uint64_t id = 0;
      Outcome outcome = Outcome::kOk;
      std::vector<Neighbor> neighbors;
      uint64_t total_series = 0;
      if (header->type == FrameType::kResult) {
        auto result = DecodeResultFrame(bytes);
        if (!result.ok()) continue;
        id = result->request_id;
        neighbors = std::move(result->neighbors);
      } else if (header->type == FrameType::kAppendOk) {
        auto ok = DecodeAppendOkFrame(bytes);
        if (!ok.ok()) continue;
        id = ok->request_id;
        total_series = ok->total_series;
      } else if (header->type == FrameType::kError) {
        auto error = DecodeErrorFrame(bytes);
        if (!error.ok()) continue;
        id = error->request_id;
        outcome = error->code == WireError::kOverloaded ? Outcome::kOverloaded
                  : error->code == WireError::kDeadlineExceeded
                      ? Outcome::kDeadline
                      : Outcome::kError;
      } else {
        continue;
      }
      if (ops == nullptr || id >= ops->size()) continue;
      WireOp& op = (*ops)[id];
      if (outcome == Outcome::kOk) {
        if (op.kind == OpKind::kAppend) {
          const size_t expected =
              mirror_->base().count() + (op.item + 1) * kAppendRows;
          if (total_series != expected) outcome = Outcome::kWrong;
        } else if (op.kind == OpKind::kApprox) {
          if (!ApproxAnswerValid(op, neighbors)) outcome = Outcome::kWrong;
        }
        if (op.gate) op.answer = std::move(neighbors);
      }
      op.outcome = outcome;
      op.done = now;
      if (op.kind != OpKind::kAppend) {
        queries_done_.fetch_add(1, std::memory_order_relaxed);
      }
      done_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  /// An approximate answer names a row that existed when it was served,
  /// and its distance equals a recomputation over that row.
  bool ApproxAnswerValid(const WireOp& op,
                         const std::vector<Neighbor>& neighbors) const {
    if (neighbors.size() != 1) return false;
    const size_t rows = mirror_->base().count() +
                        appends_sent_.load(std::memory_order_acquire) *
                            kAppendRows;
    if (neighbors[0].id >= rows) return false;
    const float d = SquaredEuclidean(queries_->series(op.item).data(),
                                     mirror_->Row(neighbors[0].id), kLength);
    return std::memcmp(&d, &neighbors[0].distance_sq, sizeof(float)) == 0;
  }

  const Dataset* queries_;
  Mirror* mirror_;
  std::vector<std::unique_ptr<WireClient>> clients_;
  std::vector<std::thread> readers_;
  std::atomic<std::vector<WireOp>*> ops_{nullptr};
  std::atomic<size_t> done_{0};
  std::atomic<uint64_t> queries_sent_{0};
  std::atomic<uint64_t> queries_done_{0};
  std::atomic<size_t> appends_sent_{0};
};

/// The seeded 60/20/20 query mix.
OpKind DrawKind(Rng* rng) {
  const uint64_t r = rng->NextU64() % 10;
  return r < 6 ? OpKind::kExact : r < 8 ? OpKind::kKnn : OpKind::kApprox;
}

/// Open-loop query ops at `rate` for `count` queries starting at
/// `start`, with an append every kAppendPeriod when `appends` is set.
void Schedule(double start, double rate, size_t count, int rung,
              bool appends, Rng* rng, size_t* next_query, Mirror* mirror,
              std::vector<WireOp>* ops) {
  std::vector<WireOp> queries;
  for (size_t i = 0; i < count; ++i) {
    WireOp op;
    op.kind = DrawKind(rng);
    op.item = (*next_query)++ % kQueryPool;
    op.rung = rung;
    op.due = DueTime(start, rate, i);
    queries.push_back(op);
  }
  const double end = DueTime(start, rate, count);
  std::vector<WireOp> merged;
  size_t q = 0;
  if (appends) {
    const double first = std::ceil(start / kAppendPeriod) * kAppendPeriod;
    for (double t = first; t < end; t += kAppendPeriod) {
      while (q < queries.size() && queries[q].due <= t) {
        merged.push_back(queries[q++]);
      }
      WireOp append;
      append.kind = OpKind::kAppend;
      append.item = mirror->batches();
      append.rung = rung;
      append.due = t;
      mirror->GenerateBatches(1);
      merged.push_back(append);
    }
  }
  while (q < queries.size()) merged.push_back(queries[q++]);
  ops->insert(ops->end(), merged.begin(), merged.end());
}

struct Served {
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<Server> server;
};

EngineOptions ShardOptions() {
  EngineOptions options;
  options.algorithm = Algorithm::kMessi;
  options.num_threads = kThreadsPerShard;
  return options;
}

/// Builds the sharded engine and starts the server; returns the wall
/// time of Build + Server::Start (and of Build alone in *build_s).
double SetUp(const Dataset& data, Served* served, RunResult* result,
             double* build_s = nullptr) {
  if (served->server) served->server->Stop();
  served->server.reset();
  served->engine.reset();
  Dataset rows = CopyDataset(data);
  const double t0 = Now();
  auto engine = ShardedEngine::Build(std::move(rows), kShards, ShardOptions());
  const double t1 = Now();
  if (!engine.ok()) {
    result->Fail("sharded build: " + engine.status().ToString());
    return 0.0;
  }
  auto server = Server::Start(engine->get(), ServerOptions{});
  const double t2 = Now();
  if (!server.ok()) {
    result->Fail("server start: " + server.status().ToString());
    return 0.0;
  }
  served->engine = std::move(*engine);
  served->server = std::move(*server);
  if (build_s != nullptr) *build_s = t1 - t0;
  return t2 - t0;
}

/// Sends the gate queries one at a time (quiescent: nothing else in
/// flight, no append pending) and checks them against the brute-force
/// scan of `collection`.
void Gate(WireLoad* load, const Dataset& queries,
          const std::vector<size_t>& items, const Dataset& collection,
          const char* when, RunResult* result) {
  InMemorySource oracle_source(&collection);
  for (size_t g = 0; g < items.size(); ++g) {
    WireOp op;
    op.kind = g % 4 == 3 ? OpKind::kKnn : OpKind::kExact;
    op.item = items[g];
    op.gate = true;
    ++result->attempted;
    if (!load->RunOne(&op) || op.outcome != Outcome::kOk) {
      result->Fail(std::string("gate query failed ") + when);
      continue;
    }
    const SeriesView q = queries.series(op.item);
    const std::vector<Neighbor> oracle =
        op.kind == OpKind::kKnn ? BruteForceKnn(oracle_source, q, kKnnK)
                                : std::vector<Neighbor>{
                                      BruteForceNn(oracle_source, q)};
    if (!SameNeighbors(op.answer, oracle)) {
      result->Fail(std::string("exactness gate ") + when + ": query " +
                   std::to_string(op.item) +
                   " differs from the brute-force scan");
    }
  }
}

std::vector<double> LatenciesMs(const std::vector<WireOp>& ops, int rung,
                                bool failed_as_infinite) {
  std::vector<double> ms;
  for (const WireOp& op : ops) {
    if (op.kind == OpKind::kAppend || op.rung != rung) continue;
    if (op.outcome != Outcome::kOk && failed_as_infinite) {
      ms.push_back(std::numeric_limits<double>::infinity());
    } else {
      ms.push_back(Ms(LatencyFromDue({op.due, op.sent, op.done})));
    }
  }
  return ms;
}

size_t AppliedAppends(const std::vector<WireOp>& ops) {
  size_t n = 0;
  for (const WireOp& op : ops) {
    if (op.kind == OpKind::kAppend && op.outcome == Outcome::kOk) ++n;
  }
  return n;
}

RunResult Untraced(const RunConfig& config) {
  RunResult result;
  Mirror mirror(GenerateRandomWalks(config.seed, kSeries, kLength),
                config.seed);
  const Dataset queries = GeneratePerturbedQueries(
      DatasetKind::kRandomWalk, kQueryPool, kLength, config.seed, kSeries);

  Served served;
  std::vector<double> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup.push_back(SetUp(mirror.base(), &served, &result));
    if (!served.server) return result;
  }

  WireLoad load(&queries, &mirror);
  if (Status st = load.Connect(served.server->port()); !st.ok()) {
    result.Fail("connect: " + st.ToString());
    return result;
  }
  const std::vector<size_t> gate_items =
      SeededSample(config.seed, 2 * kGateQueries, kQueryPool);
  const std::vector<size_t> before(gate_items.begin(),
                                   gate_items.begin() + kGateQueries);
  const std::vector<size_t> after(gate_items.begin() + kGateQueries,
                                  gate_items.end());
  Gate(&load, queries, before, mirror.base(), "before the first append",
       &result);

  // The warm-up, then the ladder: each rung carries at least enough
  // queries for a p99 with ten samples beyond it; the nominal rung gets
  // the largest share.
  Rng rng(config.seed ^ 0x4d4958ULL);  // "MIX"
  std::vector<WireOp> ops;
  size_t next_query = 0;
  const size_t warmup = static_cast<size_t>(kNominalQps * kWarmupSeconds);
  Schedule(0.0, kNominalQps, warmup, kWarmupRung, true, &rng, &next_query,
           &mirror, &ops);
  double start = DueTime(0.0, kNominalQps, warmup);
  const size_t min_queries = MinSamplesFor(0.99);
  for (size_t r = 0; r < std::size(kLadder); ++r) {
    const double rate = kLadder[r];
    const double share = rate == kNominalQps ? 0.6 : 0.1;
    const size_t count = std::max(
        min_queries, static_cast<size_t>(rate * config.seconds * share));
    Schedule(start, rate, count, static_cast<int>(r), true, &rng, &next_query,
             &mirror, &ops);
    start = DueTime(start, rate, count);
  }
  std::vector<double> inflight(ops.size(), 0.0);
  if (!load.Run(&ops, nullptr, &inflight)) {
    result.Fail("answers stopped arriving");
  }

  // Attempted/failed: every op; refusals on the probing rungs (all but
  // the nominal one) only decide the rung rule. Warm-up ops are checked
  // and counted like nominal ones but not timed.
  std::vector<Rung> rungs(std::size(kLadder));
  std::vector<std::vector<double>> rung_inflight(std::size(kLadder));
  std::vector<double> append_ms, lateness_ms;
  size_t probe_refusals = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const WireOp& op = ops[i];
    ++result.attempted;
    lateness_ms.push_back(Ms(Lateness({op.due, op.sent, op.done})));
    const bool probing = op.kind != OpKind::kAppend &&
                         op.rung != kWarmupRung &&
                         kLadder[op.rung] != kNominalQps;
    switch (op.outcome) {
      case Outcome::kOk:
        break;
      case Outcome::kOverloaded:
      case Outcome::kDeadline:
        if (probing) {
          ++probe_refusals;
        } else {
          ++result.failed;
        }
        break;
      case Outcome::kWrong:
        result.Fail("wrong answer to op " + std::to_string(i));
        break;
      default:
        ++result.failed;
    }
    if (op.rung == kWarmupRung) continue;
    if (op.kind == OpKind::kAppend) {
      if (op.outcome == Outcome::kOk) {
        append_ms.push_back(Ms(LatencyFromDue({op.due, op.sent, op.done})));
      }
      continue;
    }
    Rung& rung = rungs[op.rung];
    rung.overloaded += op.outcome == Outcome::kOverloaded;
    rung.deadline_exceeded += op.outcome == Outcome::kDeadline;
    rung_inflight[op.rung].push_back(inflight[i]);
  }
  size_t nominal = 0;
  for (size_t r = 0; r < rungs.size(); ++r) {
    rungs[r].rate_qps = kLadder[r];
    rungs[r].p99_ms = Percentile(LatenciesMs(ops, static_cast<int>(r), true),
                                 0.99);
    rungs[r].backlog_growing = BacklogGrowing(rung_inflight[r]);
    if (kLadder[r] == kNominalQps) nominal = r;
    result.notes.push_back(
        "rung " + std::to_string(static_cast<int>(kLadder[r])) + " qps: p50 " +
        std::to_string(Median(LatenciesMs(ops, static_cast<int>(r), true))) +
        " ms, p99 " + std::to_string(rungs[r].p99_ms) + " ms, overloaded " +
        std::to_string(rungs[r].overloaded) + ", deadline " +
        std::to_string(rungs[r].deadline_exceeded) + ", backlog " +
        (rungs[r].backlog_growing ? "growing" : "steady") +
        (RungMeetsSlo(rungs[r], kSloP99Ms) ? " -> meets SLO" : ""));
  }
  const size_t applied = AppliedAppends(ops);
  Gate(&load, queries, after, mirror.Collection(applied),
       "after the last append", &result);
  load.Close();
  served.server->Stop();

  const std::vector<double> nominal_ms =
      LatenciesMs(ops, static_cast<int>(nominal), false);
  if (!PercentileReportable(nominal_ms.size(), 0.99)) {
    result.Fail("nominal rung has too few queries for p99");
  }
  // Refused requests count as infinitely late; a percentile that falls
  // on them is reported as the slowest answered request.
  const std::vector<double> nominal_all =
      LatenciesMs(ops, static_cast<int>(nominal), true);
  auto tail_ms = [&](double p, const std::string& name) {
    const double v = Percentile(nominal_all, p);
    if (!std::isinf(v)) return v;
    result.notes.push_back("nominal " + name + " falls on refused requests");
    return Percentile(nominal_ms, 1.0);
  };
  Add(&result.end_to_end, "setup_s", Median(setup), "s");
  Add(&result.end_to_end, "query_p50_ms", Percentile(nominal_ms, 0.5), "ms");
  Add(&result.end_to_end, "query_p90_ms", tail_ms(0.9, "p90"), "ms");
  Add(&result.extra, "query_p99_ms", tail_ms(0.99, "p99"), "ms");
  Add(&result.extra, "append_p50_ms", Percentile(append_ms, 0.5), "ms");
  Add(&result.extra, "append_p99_ms", Percentile(append_ms, 0.99), "ms");
  Add(&result.extra, "max_qps_at_slo", MaxQpsAtSlo(rungs, kSloP99Ms), "1/s");
  result.lateness_p99_ms = Percentile(lateness_ms, 0.99);
  result.notes.push_back(
      std::to_string(nominal_ms.size()) + " queries at the nominal " +
      std::to_string(static_cast<int>(kNominalQps)) + " qps, " +
      std::to_string(append_ms.size()) +
      " appends (under 1000 appends, append_p99_ms has fewer than ten "
      "samples beyond it), " +
      std::to_string(probe_refusals) +
      " refusals on probing rungs (not counted as failures)");
  return result;
}

/// In-process QueryService pass: TrySubmit at `rate`, latency from the
/// due time to future completion (polled every 100 us).
std::vector<double> ServicePass(QueryService* service, const Dataset& queries,
                                const std::vector<WireOp>& ops, double rate,
                                SpanRecorder* spans, RunResult* result) {
  struct Pending {
    std::future<Result<SearchResponse>> future;
    size_t op = 0;
  };
  std::vector<double> done(ops.size(), 0.0), due(ops.size(), 0.0);
  std::vector<Pending> pending;
  parisax::Mutex mu{"layerbench::ServicePass::mu", LockRank::kLeaf};
  std::atomic<bool> sending{true};
  std::thread waiter([&] {
    while (true) {
      bool idle = false;
      {
        MutexLock lock(&mu);
        for (size_t i = 0; i < pending.size();) {
          if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            done[pending[i].op] = Now();
            auto response = pending[i].future.get();
            if (!response.ok()) {
              result->Fail("service: " + response.status().ToString());
            }
            pending[i] = std::move(pending.back());
            pending.pop_back();
          } else {
            ++i;
          }
        }
        idle = pending.empty() && !sending.load();
      }
      if (idle) return;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  const double start = Now() + 0.005;
  for (size_t i = 0; i < ops.size(); ++i) {
    due[i] = DueTime(start, rate, i);
    SleepUntil(due[i]);
    auto future = service->TrySubmit(queries.series(ops[i].item),
                                     RequestFor(ops[i].kind), SubmitOptions{});
    MutexLock lock(&mu);
    if (!future.ok()) {
      result->Fail("service refused: " + future.status().ToString());
      done[i] = Now();
      continue;
    }
    pending.push_back({std::move(*future), i});
  }
  sending.store(false);
  waiter.join();
  std::vector<double> ms;
  for (size_t i = 0; i < ops.size(); ++i) {
    spans->Add("serve.QueryService::TrySubmit", due[i], done[i], i);
    ms.push_back(Ms(done[i] - due[i]));
  }
  return ms;
}

/// Closed-loop inline pass through a backend's Search on an
/// InlineExecutor.
std::vector<double> InlinePass(SearchBackend* backend, const Dataset& queries,
                               const std::vector<WireOp>& ops,
                               const char* span_name, SpanRecorder* spans,
                               std::vector<std::vector<Neighbor>>* answers,
                               RunResult* result) {
  InlineExecutor inline_exec;
  std::vector<double> ms;
  for (size_t i = 0; i < ops.size(); ++i) {
    const double t0 = Now();
    auto response = backend->Search(queries.series(ops[i].item),
                                    RequestFor(ops[i].kind), &inline_exec);
    const double t1 = Now();
    spans->Add(span_name, t0, t1, i);
    ms.push_back(Ms(t1 - t0));
    if (!response.ok()) {
      result->Fail(std::string(span_name) + ": " +
                   response.status().ToString());
      answers->emplace_back();
      continue;
    }
    answers->push_back(std::move(response->neighbors));
  }
  return ms;
}

RunResult Traced(const RunConfig& config) {
  RunResult result;
  SpanRecorder spans;
  Mirror mirror(GenerateRandomWalks(config.seed, kSeries, kLength),
                config.seed);
  const Dataset queries = GeneratePerturbedQueries(
      DatasetKind::kRandomWalk, kQueryPool, kLength, config.seed, kSeries);

  Served served;
  double sharded_build_s = 0.0;
  SetUp(mirror.base(), &served, &result, &sharded_build_s);
  if (!served.server) return result;
  EngineOptions single_options;
  single_options.algorithm = Algorithm::kMessi;
  single_options.num_threads = kThreadsPerShard * static_cast<int>(kShards);
  const double t0 = Now();
  auto single = Engine::Build(SourceSpec::InMemory(CopyDataset(mirror.base())),
                              single_options);
  const double single_build_s = Now() - t0;
  if (!single.ok()) {
    result.Fail("single-engine build: " + single.status().ToString());
    return result;
  }
  Add(&result.layers, "shard.build_speedup", single_build_s / sharded_build_s,
      "ratio");

  WireLoad load(&queries, &mirror);
  if (Status st = load.Connect(served.server->port()); !st.ok()) {
    result.Fail("connect: " + st.ToString());
    return result;
  }

  // The replayed op stream: the workload's query mix at the nominal rate.
  Rng rng(config.seed ^ 0x4d4958ULL);
  size_t next_query = 0;
  std::vector<WireOp> quiet_ops;
  Schedule(0.0, kNominalQps, kTracedOps, 0, false, &rng, &next_query, &mirror,
           &quiet_ops);
  const std::vector<WireOp> replay = quiet_ops;

  // Entrances from the outside in, on the same ops, nothing appended yet.
  std::vector<double> wire_ms;
  if (!load.Run(&quiet_ops, nullptr, nullptr)) result.Fail("wire pass hung");
  for (size_t i = 0; i < quiet_ops.size(); ++i) {
    const WireOp& op = quiet_ops[i];
    spans.Add("net.wire", op.sent, op.done, i);
    wire_ms.push_back(Ms(LatencyFromDue({op.due, op.sent, op.done})));
    ++result.attempted;
    if (op.outcome != Outcome::kOk) result.Fail("wire pass op failed");
  }
  QueryService* service = served.server->query_service();
  const ServeStats before = service->stats();
  const std::vector<double> service_ms =
      ServicePass(service, queries, replay, kNominalQps, &spans, &result);
  const ServeStats after = service->stats();
  std::vector<std::vector<Neighbor>> sharded_answers, single_answers;
  const std::vector<double> sharded_ms =
      InlinePass(served.engine.get(), queries, replay,
                 "shard.ShardedEngine::Search(inline)", &spans,
                 &sharded_answers, &result);
  const std::vector<double> single_ms =
      InlinePass(single->get(), queries, replay, "core.Engine::Search(inline)",
                 &spans, &single_answers, &result);
  result.attempted += 3 * replay.size();

  Add(&result.layers, "net.wire_ms", PairedSelfTime(wire_ms, service_ms),
      "ms");
  Add(&result.layers, "serve.latency_ms", Median(service_ms), "ms");
  Add(&result.layers, "serve.queue_wait_ms",
      PairedSelfTime(service_ms, sharded_ms), "ms");
  Add(&result.layers, "serve.ran_inline",
      static_cast<double>(after.ran_inline - before.ran_inline), "count");
  Add(&result.layers, "serve.ran_parallel",
      static_cast<double>(after.ran_parallel - before.ran_parallel), "count");
  Add(&result.layers, "serve.steals",
      static_cast<double>(after.steals - before.steals), "count");
  Add(&result.layers, "serve.rejected_overload",
      static_cast<double>(after.rejected_overload - before.rejected_overload),
      "count");
  Add(&result.layers, "serve.expired_in_queue",
      static_cast<double>(after.expired_in_queue - before.expired_in_queue),
      "count");
  Add(&result.layers, "serve.peak_inflight",
      static_cast<double>(after.peak_inflight), "count");
  Add(&result.layers, "shard.search_inline_ms", Median(sharded_ms), "ms");
  Add(&result.layers, "shard.router_ms", PairedSelfTime(sharded_ms, single_ms),
      "ms");
  for (size_t i = 0; i < replay.size(); ++i) {
    if (replay[i].kind != OpKind::kApprox &&
        !SameNeighbors(sharded_answers[i], single_answers[i])) {
      result.Fail("sharded answer differs from the single engine");
    }
  }

  // Index entrance: the single engine's MessiIndex on the exact 1-NN ops.
  std::vector<SeriesView> exact_views;
  std::vector<double> exact_engine_ms;
  std::vector<std::vector<Neighbor>> exact_answers;
  for (size_t i = 0; i < replay.size() && exact_views.size() < kTracedIndexOps;
       ++i) {
    if (replay[i].kind != OpKind::kExact) continue;
    exact_views.push_back(queries.series(replay[i].item));
    exact_engine_ms.push_back(single_ms[i]);
    exact_answers.push_back(single_answers[i]);
  }
  const IndexPass pass = MeasureMessi(*(*single)->messi_index(), exact_views,
                                      exact_views.size(), &spans, &result);
  exact_engine_ms.resize(pass.serial_ms.size());
  Add(&result.layers, "core.search_self_ms",
      PairedSelfTime(exact_engine_ms, pass.serial_ms), "ms");
  const std::vector<SeriesView> kernel_ops(
      exact_views.begin(),
      exact_views.begin() + std::min(kTracedKernelOps, exact_views.size()));
  const double mindist_ns = MeasureSax((*single)->source(), kernel_ops,
                                       config.seed, &spans, &result);
  MeasureDist((*single)->source(), kernel_ops, pass.final_bsf, config.seed,
              &spans, &result);
  AddLowerBoundShare(pass, mindist_ns, kLength, &result);
  MeasurePoolDispatch(&spans, &result);

  // Exactness gate on the quiet passes (before any append).
  std::vector<SeriesView> gate_views;
  std::vector<std::vector<Neighbor>> gate_answers;
  for (size_t g : SeededSample(config.seed, kGateQueries, exact_views.size())) {
    gate_views.push_back(exact_views[g]);
    gate_answers.push_back(exact_answers[g]);
  }
  const std::vector<Neighbor> oracle =
      OracleNn(InMemorySource(&mirror.base()), gate_views);
  for (size_t g = 0; g < gate_views.size(); ++g) {
    if (!SameNeighbors(gate_answers[g], {oracle[g]})) {
      result.Fail("exactness gate: traced answer differs from brute force");
    }
  }

  // net layer: encode/decode per frame on the replayed ops.
  std::vector<double> encode_us, decode_us;
  for (size_t i = 0; i < replay.size(); ++i) {
    QueryFrame q;
    q.request_id = i;
    q.k = replay[i].kind == OpKind::kKnn ? kKnnK : 1;
    q.approximate = replay[i].kind == OpKind::kApprox;
    const SeriesView v = queries.series(replay[i].item);
    q.values.assign(v.begin(), v.end());
    double a = Now();
    const auto qbytes = EncodeQueryFrame(FrameType::kQuery, q);
    double b = Now();
    auto qdecoded = DecodeQueryFrame(std::span<const uint8_t>(
        qbytes.data() + kFrameHeaderSize, qbytes.size() - kFrameHeaderSize));
    double c = Now();
    encode_us.push_back((b - a) * 1e6);
    decode_us.push_back((c - b) * 1e6);
    ResultFrame r;
    r.request_id = i;
    r.neighbors = sharded_answers[i];
    a = Now();
    const auto rbytes = EncodeResultFrame(r);
    b = Now();
    auto rdecoded = DecodeResultFrame(std::span<const uint8_t>(
        rbytes.data() + kFrameHeaderSize, rbytes.size() - kFrameHeaderSize));
    c = Now();
    encode_us.push_back((b - a) * 1e6);
    decode_us.push_back((c - b) * 1e6);
    if (!qdecoded.ok() || !rdecoded.ok() ||
        rdecoded->neighbors != sharded_answers[i]) {
      result.Fail("frame round trip changed the payload");
    }
  }
  Add(&result.layers, "net.encode_us", Median(encode_us), "us");
  Add(&result.layers, "net.decode_us", Median(decode_us), "us");

  // The workload itself at the nominal rate with appends, untraced then
  // traced (live segments sampled at every send): tracing overhead, the
  // stall appends impose on overlapping queries, compactions.
  const uint64_t compactions = served.engine->compaction_count();
  std::vector<double> outer_p50(2, 0.0);
  std::vector<double> segments;
  std::vector<WireOp> traced_ops;
  for (int traced = 0; traced < 2; ++traced) {
    std::vector<WireOp> ops;
    Schedule(0.0, kNominalQps, kTracedOps, 0, true, &rng, &next_query, &mirror,
             &ops);
    std::function<void()> sample;
    if (traced) {
      sample = [&] {
        size_t live = 0;
        for (size_t s = 0; s < served.engine->num_shards(); ++s) {
          live += served.engine->shard(s).messi_index()->serving()
                      ->segments.size();
        }
        segments.push_back(static_cast<double>(live));
      };
    }
    if (!load.Run(&ops, sample, nullptr)) result.Fail("append pass hung");
    std::vector<double> ms;
    for (size_t i = 0; i < ops.size(); ++i) {
      ++result.attempted;
      if (ops[i].outcome != Outcome::kOk) result.Fail("append pass op failed");
      if (traced) {
        spans.Add(ops[i].kind == OpKind::kAppend ? "net.wire.append"
                                                 : "net.wire",
                  ops[i].sent, ops[i].done, i);
      }
      if (ops[i].kind != OpKind::kAppend) {
        ms.push_back(
            Ms(LatencyFromDue({ops[i].due, ops[i].sent, ops[i].done})));
      }
    }
    outer_p50[traced] = Median(ms);
    if (traced) traced_ops = std::move(ops);
  }
  std::vector<Interval> query_iv, append_iv;
  std::vector<double> lateness_ms;
  for (const WireOp& op : traced_ops) {
    (op.kind == OpKind::kAppend ? append_iv : query_iv)
        .push_back({op.due, op.done});
    lateness_ms.push_back(Ms(Lateness({op.due, op.sent, op.done})));
  }
  Add(&result.layers, "core.query_stall_ms",
      Ms(WorstOverlapExcess(query_iv, append_iv, Median(wire_ms) / 1e3)),
      "ms");
  Add(&result.layers, "core.compactions",
      static_cast<double>(served.engine->compaction_count() - compactions),
      "count");
  Add(&result.layers, "index.live_segments_mean", Mean(segments), "count");
  Add(&result.layers, "index.live_segments_max",
      segments.empty() ? 0.0
                       : *std::max_element(segments.begin(), segments.end()),
      "count");
  size_t entries = 0;
  for (size_t s = 0; s < served.engine->num_shards(); ++s) {
    entries +=
        served.engine->shard(s).messi_index()->build_stats().tree.total_entries;
  }
  Add(&result.layers, "index.leaf_bytes",
      static_cast<double>(entries * sizeof(LeafEntry)), "bytes");
  Add(&result.layers, "trace.overhead_ms", outer_p50[1] - outer_p50[0], "ms");
  result.lateness_p99_ms = Percentile(lateness_ms, 0.99);
  Add(&result.layers, "loadgen.lateness_p99_ms", result.lateness_p99_ms, "ms");
  load.Close();
  served.server->Stop();

  // core: an Append with no queries running.
  std::vector<double> append_ms;
  for (int i = 0; i < 5; ++i) {
    mirror.GenerateBatches(1);
    const Dataset& batch = mirror.batch(mirror.batches() - 1);
    const double a = Now();
    auto report = served.engine->Append(batch.raw(), kAppendRows);
    append_ms.push_back(Ms(Now() - a));
    ++result.attempted;
    if (!report.ok()) result.Fail("append: " + report.status().ToString());
  }
  Add(&result.layers, "core.append_ms", Median(append_ms), "ms");

  spans.WriteTo(config.workdir + "/spans-served_mixed.jsonl");
  result.notes.push_back(
      "traced: " + std::to_string(spans.size()) +
      " spans; entrances wire -> QueryService -> ShardedEngine inline -> "
      "Engine inline -> MessiIndex::SearchExact -> sax/dist on the same ops; "
      "tracing overhead = traced minus untraced wire p50 at the nominal rate");
  return result;
}

}  // namespace

RunResult RunServedMixed(const RunConfig& config) {
  return config.trace ? Traced(config) : Untraced(config);
}

}  // namespace layerbench

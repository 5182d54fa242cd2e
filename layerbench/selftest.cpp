// The benchmark's own tests, on synthetic inputs: the ten-beyond
// percentile rule, open-loop latency timed from the due time, the
// max_qps_at_slo rung rule, and the per-layer self-time arithmetic.
// Exits non-zero on the first failed group, printing every failed check.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TenBeyondRule() {
  using namespace layerbench;
  Check(MinSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
  Check(PercentileReportable(1000, 0.99), "1000 samples support p99");
  Check(!PercentileReportable(999, 0.99), "999 samples do not support p99");
  Check(SamplesBeyond(1000, 0.99) == 10, "ten samples lie beyond p99 of 1000");
  Check(MinSamplesFor(0.5) == 20, "p50 needs 20 samples");
  // Nearest rank: p99 of 1..1000 is 990, with 991..1000 beyond it.
  Check(Near(Percentile(OneTo(1000), 0.99), 990.0), "p99 of 1..1000");
  Check(Near(Percentile(OneTo(1000), 0.5), 500.0), "p50 of 1..1000");
  // Order of the input does not matter.
  std::vector<double> shuffled = OneTo(1000);
  std::swap(shuffled[0], shuffled[999]);
  std::swap(shuffled[10], shuffled[500]);
  Check(Near(Percentile(shuffled, 0.99), 990.0), "p99 ignores input order");
  Check(Near(Percentile({}, 0.99), 0.0), "empty input reads 0");
  Check(Near(Percentile({7.0}, 0.99), 7.0), "single sample");
}

void OpenLoopFromDue() {
  using namespace layerbench;
  Check(Near(DueTime(2.0, 400.0, 400), 3.0), "400 requests at 400/s span 1 s");
  const OpenLoopOp late{1.0, 1.2, 1.5};
  Check(Near(LatencyFromDue(late), 0.5), "latency counts from the due time");
  Check(Near(Lateness(late), 0.2), "lateness is sent minus due");
  Check(Near(Lateness({1.0, 0.9, 1.5}), 0.0), "early sends are not late");
  // A 0.5 s server stall at 100 req/s: every request due during the stall
  // waits for it. Timed from send (the generator blocked), the stall would
  // show once; timed from due, it shows on all 50 requests behind it.
  std::vector<double> from_due;
  std::vector<double> from_send;
  const double service = 0.001;
  double server_free = 0.0;
  for (size_t i = 0; i < 1000; ++i) {
    OpenLoopOp op;
    op.due = DueTime(0.0, 100.0, i);
    const double stall_end = 5.5;
    double start = std::max(op.due, server_free);
    if (start >= 5.0 && start < stall_end) start = stall_end;
    op.sent = std::max(op.due, server_free);  // a closed-loop sender
    op.done = start + service;
    server_free = op.done;
    from_due.push_back(LatencyFromDue(op));
    from_send.push_back(op.done - op.sent);
  }
  Check(Percentile(from_due, 0.99) > 0.4,
        "p99 from due time shows the stall on the queued requests");
  Check(Percentile(from_send, 0.99) < 0.01,
        "timing from send hides the stall (coordinated omission)");
}

void RungRule() {
  using namespace layerbench;
  Rung ok{400.0, 50.0, 0, 0, false};
  Check(RungMeetsSlo(ok, 50.0), "p99 equal to the limit meets the SLO");
  Rung slow = ok;
  slow.p99_ms = 50.1;
  Check(!RungMeetsSlo(slow, 50.0), "p99 above the limit fails");
  Rung shed = ok;
  shed.overloaded = 1;
  Check(!RungMeetsSlo(shed, 50.0), "one overloaded reply fails the rung");
  Rung expired = ok;
  expired.deadline_exceeded = 1;
  Check(!RungMeetsSlo(expired, 50.0), "one deadline_exceeded fails the rung");
  Rung backlog = ok;
  backlog.backlog_growing = true;
  Check(!RungMeetsSlo(backlog, 50.0), "a growing backlog fails the rung");

  std::vector<Rung> ladder = {{200, 10, 0, 0, false},
                              {400, 20, 0, 0, false},
                              {600, 40, 0, 0, false},
                              {800, 90, 12, 0, true}};
  Check(Near(MaxQpsAtSlo(ladder, 50.0), 600.0), "highest passing rung");
  ladder[2].overloaded = 3;
  Check(Near(MaxQpsAtSlo(ladder, 50.0), 400.0), "a shedding rung is skipped");
  Check(Near(MaxQpsAtSlo({{200, 80, 0, 0, false}}, 50.0), 0.0),
        "no passing rung reads 0");

  std::vector<double> steady, ramp, noisy;
  for (int i = 0; i < 400; ++i) {
    steady.push_back(3.0 + (i % 5));
    ramp.push_back(i * 0.5);
    noisy.push_back(i % 37 == 0 ? 9.0 : 1.0);
  }
  Check(!BacklogGrowing(steady), "a steady queue is not a growing backlog");
  Check(BacklogGrowing(ramp), "a linear ramp is a growing backlog");
  Check(!BacklogGrowing(noisy), "sparse spikes are not a growing backlog");
  Check(!BacklogGrowing({1.0, 2.0}), "too few samples never count");
}

void SelfTime() {
  using namespace layerbench;
  // Outer entrance 10/12/14 ms, next entrance in 7/8/9 ms on the same
  // ops: per-op self times 3/4/5, median 4.
  Check(Near(PairedSelfTime({10, 12, 14}, {7, 8, 9}), 4.0),
        "self time is the median per-op difference");
  // Pairing cancels per-query difficulty: one hard query slows both
  // passes equally and does not move the self time.
  Check(Near(PairedSelfTime({10, 100, 14, 11, 12}, {9, 99, 13, 10, 11}), 1.0),
        "a hard query does not move the self time");
  Check(Near(PairedSelfTime({1, 2}, {1}), 0.0), "unpaired passes read 0");
  Check(Near(PairedSelfTime({}, {}), 0.0), "empty passes read 0");
  // Differences of adjacent entrances add up to the outer latency.
  const std::vector<double> wire = {9, 10, 11};
  const std::vector<double> serve = {6, 7, 8};
  const std::vector<double> index = {2, 3, 4};
  Check(Near(PairedSelfTime(wire, serve) + PairedSelfTime(serve, index) +
                 Median(index),
             Median(wire)),
        "layer self times telescope to the outer latency");

  const std::vector<Interval> queries = {{0, 1}, {2, 5}, {6, 6.5}};
  const std::vector<Interval> appends = {{2.5, 4}};
  Check(Near(WorstOverlapExcess(queries, appends, 1.0), 2.0),
        "stall is the worst overlapping query minus the quiet p50");
  Check(Near(WorstOverlapExcess(queries, {}, 1.0), 0.0),
        "no overlap reads 0");
}

}  // namespace

int main() {
  TenBeyondRule();
  OpenLoopFromDue();
  RungRule();
  SelfTime();
  if (failures != 0) {
    std::printf("layerbench_selftest: %d failed checks\n", failures);
    return 1;
  }
  std::printf("layerbench_selftest: all checks passed\n");
  return 0;
}

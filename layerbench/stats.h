// The benchmark's own arithmetic: percentiles under the ten-beyond
// rule, open-loop latency timed from the due time, the max_qps_at_slo
// rung rule, and per-layer self time from paired passes. Header-only
// and free of parisax dependencies so selftest.cpp checks it on
// synthetic inputs.
#ifndef LAYERBENCH_STATS_H_
#define LAYERBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace layerbench {

/// Nearest-rank percentile: the smallest sample with at least p*n
/// samples at or below it. `p` in (0, 1]; 0 for an empty input.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// Samples strictly above the nearest-rank p-th percentile of n samples.
inline size_t SamplesBeyond(size_t n, double p) {
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// The ten-beyond rule: a percentile is reported only when at least ten
/// samples lie beyond it (p99 needs 1000 samples).
inline bool PercentileReportable(size_t n, double p) {
  return SamplesBeyond(n, p) >= 10;
}

/// Fewest samples for which PercentileReportable(n, p) holds.
inline size_t MinSamplesFor(double p) {
  size_t n = 10;
  while (!PercentileReportable(n, p)) ++n;
  return n;
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// One open-loop operation on a steady clock (any unit, e.g. seconds
/// since the run started): when it was due, when the generator actually
/// sent it, and when its answer arrived.
struct OpenLoopOp {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
};

/// Latency as the user sees it: from the due time, so a stalled
/// generator or server charges the wait to every request queued behind
/// the stall (no coordinated omission).
inline double LatencyFromDue(const OpenLoopOp& op) { return op.done - op.due; }

/// How late the generator sent the request.
inline double Lateness(const OpenLoopOp& op) {
  return std::max(0.0, op.sent - op.due);
}

/// Due time of the i-th request of an open-loop stream at `rate` per
/// unit time starting at `start`.
inline double DueTime(double start, double rate, size_t i) {
  return start + static_cast<double>(i) / rate;
}

/// Backlog test over in-flight counts sampled evenly through a rung: the
/// backlog grows when the last quarter's mean exceeds twice the first
/// quarter's mean plus `slack` requests. A stable queue fluctuates
/// around rate x latency; an overloaded one ramps linearly.
inline bool BacklogGrowing(const std::vector<double>& inflight,
                           double slack = 8.0) {
  if (inflight.size() < 4) return false;
  const size_t q = inflight.size() / 4;
  const std::vector<double> first(inflight.begin(), inflight.begin() + q);
  const std::vector<double> last(inflight.end() - q, inflight.end());
  return Mean(last) > 2.0 * Mean(first) + slack;
}

/// The outcome of one rung of the offered-rate ladder.
struct Rung {
  double rate_qps = 0.0;
  double p99_ms = 0.0;
  uint64_t overloaded = 0;
  uint64_t deadline_exceeded = 0;
  bool backlog_growing = false;
};

/// A rung meets the SLO when its p99 is within the limit, nothing was
/// shed or expired, and the backlog did not grow.
inline bool RungMeetsSlo(const Rung& rung, double p99_limit_ms) {
  return rung.p99_ms <= p99_limit_ms && rung.overloaded == 0 &&
         rung.deadline_exceeded == 0 && !rung.backlog_growing;
}

/// Highest ladder rate whose rung meets the SLO; 0 when none does.
inline double MaxQpsAtSlo(const std::vector<Rung>& rungs,
                          double p99_limit_ms) {
  double best = 0.0;
  for (const Rung& r : rungs) {
    if (RungMeetsSlo(r, p99_limit_ms)) best = std::max(best, r.rate_qps);
  }
  return best;
}

/// Self time of a layer from two passes over the same ops: op i took
/// outer[i] through the outer entrance and inner[i] through the next
/// entrance in. The layer's self time is the median of the per-op
/// differences (pairing cancels the per-query difficulty). Returns 0
/// when the passes do not pair up.
inline double PairedSelfTime(const std::vector<double>& outer,
                             const std::vector<double>& inner) {
  if (outer.empty() || outer.size() != inner.size()) return 0.0;
  std::vector<double> diff(outer.size());
  for (size_t i = 0; i < outer.size(); ++i) diff[i] = outer[i] - inner[i];
  return Median(std::move(diff));
}

/// Interval of one traced call on the run clock.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Worst latency among ops whose interval overlaps any of `windows`
/// (e.g. queries running while an append held the writer side), minus
/// the quiet p50: the stall those windows imposed. 0 when no op
/// overlaps.
inline double WorstOverlapExcess(const std::vector<Interval>& ops,
                                 const std::vector<Interval>& windows,
                                 double quiet_p50) {
  double worst = -1.0;
  for (const Interval& op : ops) {
    for (const Interval& w : windows) {
      if (op.start < w.end && w.start < op.end) {
        worst = std::max(worst, op.end - op.start);
        break;
      }
    }
  }
  return worst < 0.0 ? 0.0 : worst - quiet_p50;
}

}  // namespace layerbench

#endif  // LAYERBENCH_STATS_H_

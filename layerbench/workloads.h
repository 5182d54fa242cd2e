// The three workloads. Each builds its system from the seed's generated
// inputs, measures for the configured time (untraced) or replays its op
// stream once per layer entrance (traced), checks exact answers against
// the brute-force oracle, and returns the metrics.
#ifndef LAYERBENCH_WORKLOADS_H_
#define LAYERBENCH_WORKLOADS_H_

#include "common.h"

namespace layerbench {

/// MESSI over 1M x 256 in-memory random walks; one closed-loop client
/// calling Engine::Search on the engine's 4-thread pool.
RunResult RunInteractiveExact(const RunConfig& config);

/// 2 MESSI shards x 2 threads over 100k x 256 behind an in-process
/// Server; open-loop mixed queries over 4 connections plus a 64-series
/// APPEND frame every 50 ms, on a fixed ladder of offered rates; the
/// gated latencies are read on the lowest rung after a warm-up.
RunResult RunServedMixed(const RunConfig& config);

/// ParIS+ over a streamed 1M x 256 dataset file; one closed-loop query
/// thread, one appender scheduling a 1024-series Append every 250 ms,
/// then Save and Engine::Open of the grown collection.
RunResult RunOndiskIngest(const RunConfig& config);

}  // namespace layerbench

#endif  // LAYERBENCH_WORKLOADS_H_

// Counters describing the work one exact-search query performed. These
// drive the pruning-power analyses in EXPERIMENTS.md and let tests assert
// behavioural properties (e.g. "MESSI performs fewer real distance
// calculations than ParIS", Section IV of the paper).
#ifndef PARISAX_INDEX_QUERY_STATS_H_
#define PARISAX_INDEX_QUERY_STATS_H_

#include <cstdint>

namespace parisax {

struct QueryStats {
  /// Lower-bound (mindist) evaluations against summaries.
  uint64_t lb_checks = 0;
  /// Series that survived lower-bound filtering.
  uint64_t candidates = 0;
  /// Full (possibly early-abandoned) real distance computations.
  uint64_t real_dist_calcs = 0;
  /// Tree nodes bounded: MESSI bounds every leaf of its leaf directories
  /// (base and segments) once per query.
  uint64_t nodes_visited = 0;
  /// Leaves inspected or popped from priority queues.
  uint64_t leaves_inspected = 0;
  /// Priority queues abandoned because their minimum exceeded the BSF.
  uint64_t queue_abandons = 0;

  double total_seconds = 0.0;
  /// The approximate seed (every exact search of ParIS/ParIS+ and
  /// MESSI, for every k and distance model).
  double approx_phase_seconds = 0.0;
  /// ParIS/ParIS+: the flat-SAX filter. MESSI: Stage 3a, leaf pruning
  /// and queue fill.
  double filter_phase_seconds = 0.0;
  /// ParIS/ParIS+: candidate refinement. MESSI: Stage 3b, queue
  /// consumption.
  double refine_phase_seconds = 0.0;

  void MergeCounters(const QueryStats& other) {
    lb_checks += other.lb_checks;
    candidates += other.candidates;
    real_dist_calcs += other.real_dist_calcs;
    nodes_visited += other.nodes_visited;
    leaves_inspected += other.leaves_inspected;
    queue_abandons += other.queue_abandons;
  }
};

}  // namespace parisax

#endif  // PARISAX_INDEX_QUERY_STATS_H_

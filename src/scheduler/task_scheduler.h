// Gradient-based task scheduler (paper §6, Table 2, Appendix A).
//
// Allocates measurement rounds across the tasks of one or more DNNs so the
// end-to-end objective improves fastest. At each iteration it picks
//   i = argmax_i | d f / d t_i |
// where the gradient is approximated from the task's recent history
// (backward window), an optimistic guess (latency could reach 0 with t_i more
// rounds) and the throughput of structurally similar tasks (Appendix A).
#ifndef ANSOR_SRC_SCHEDULER_TASK_SCHEDULER_H_
#define ANSOR_SRC_SCHEDULER_TASK_SCHEDULER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/search/search_policy.h"

namespace ansor {

// A DNN is a weighted set of tasks; its latency is sum_i w_i * g_i over its
// member tasks.
struct NetworkSpec {
  std::string name;
  std::vector<int> task_indices;  // indices into the scheduler's task list
};

enum class ObjectiveKind {
  kSumLatency,          // f1: minimize the sum of all DNN latencies
  kLatencyRequirement,  // f2: stop improving DNNs below their requirement
  kGeoMeanSpeedup,      // f3: maximize geomean speedup vs reference latencies
  kEarlyStopping,       // f4: f1 with per-task early stopping
  kCustom,
};

struct Objective {
  ObjectiveKind kind = ObjectiveKind::kSumLatency;
  // f2: per-DNN latency requirements L_j (seconds).
  std::vector<double> latency_requirements;
  // f3: per-DNN reference latencies B_j (seconds).
  std::vector<double> reference_latencies;
  // f4: stop allocating to a task after this many rounds without improvement.
  int early_stop_rounds = 8;
  // kCustom: maps per-DNN latencies to a scalar cost.
  std::function<double(const std::vector<double>&)> custom;

  static Objective SumLatency();
  static Objective LatencyRequirement(std::vector<double> requirements);
  static Objective GeoMeanSpeedup(std::vector<double> references);
  static Objective EarlyStopping(int rounds = 8);
};

struct TaskSchedulerOptions {
  double alpha = 0.2;     // weight of the backward-window term
  double beta = 2.0;      // trust of the similarity-based prediction
  int window = 3;         // backward window size (delta t)
  double eps_greedy = 0.05;
  int measures_per_round = 16;
  uint64_t seed = 1;
  SearchOptions search;
  // Optional per-task customization of the search options each TaskTuner is
  // constructed with (invoked once per task, on a copy of `search`). The
  // TuningService uses this seam to hand same-similarity-tag tasks a shared
  // ProgramCache and a distinct cache_client_id. Must not change anything
  // that affects search results across runs being compared (cache injection
  // and client ids are safe: results are cache-invariant by construction).
  std::function<void(size_t task_index, const SearchTask& task, SearchOptions* search)>
      per_task_search;
};

// The gradient allocation policy and the one tuning-loop step: RunRound
// picks a task, runs one TaskTuner::TuneRound on it and records the outcome.
// Tune() loops over RunRound; the TuningService calls RunRound once per round
// with its round span and the job deadline.
//
// RNG draw-order contract (pinned; enforced by the SchedulerGradient golden-
// trace test): the warm-up pass consumes NO random draws — while any task
// has zero allocations, NextTask() deterministically returns the lowest-
// index unvisited task. Every post-warm-up NextTask() consumes exactly one
// Uniform() draw (the eps-greedy coin), then exactly one Index(num_tasks)
// draw iff the coin landed below eps_greedy (exploration); the gradient
// argmax consumes none. Any refactor that reorders or adds draws silently
// changes every fixed-seed allocation trace — change the golden test
// deliberately or not at all.
class TaskScheduler {
 public:
  TaskScheduler(std::vector<SearchTask> tasks, std::vector<NetworkSpec> networks,
                Objective objective, Measurer* measurer, CostModel* model,
                TaskSchedulerOptions options = TaskSchedulerOptions());

  // Runs one allocation unit: picks the task receiving the round (the
  // lowest-index unvisited task during warm-up, then eps-greedy exploration
  // vs the §6.2 gradient argmax; RNG per the contract above), runs
  // TaskTuner::TuneRound on it with `deadline_nanos`, and records the round.
  // An enabled `round_tracer` becomes the tuner's tracer, stamped with the
  // picked task. Returns the picked task index.
  int RunRound(const Tracer& round_tracer = Tracer(),
               int64_t deadline_nanos = TaskTuner::kNoDeadline);
  // Runs `total_rounds` rounds (one unit = one tuning round of
  // measures_per_round trials), starting with one round-robin warm-up pass.
  void Tune(int total_rounds);

  // Latency (seconds) of DNN j under the current best programs.
  double NetworkLatency(int network_index) const;
  // Current objective value.
  double ObjectiveValue() const;

  const std::vector<std::unique_ptr<TaskTuner>>& tuners() const { return tuners_; }
  const std::vector<int>& allocations() const { return allocations_; }
  // Task index of every allocated round, in order (the fixed-seed allocation
  // trace the determinism matrix and golden-trace tests compare).
  const std::vector<int>& allocation_trace() const { return allocation_trace_; }
  // Sum of the per-task compiled-program cache counters (each tuner owns a
  // task-lifetime ProgramCache; see SearchOptions::program_cache).
  ProgramCacheStats AggregateProgramCacheStats() const;
  // Sum of the per-task static-verifier rejection counters (candidates
  // filtered before measurement; see TaskTuner::statically_rejected()).
  int64_t AggregateStaticallyRejected() const;
  // Sum of the per-task evolutionary-search counters accumulated over every
  // Evolve() call (see TaskTuner::evolution_stats()).
  EvolutionStats AggregateEvolutionStats() const;
  // Sum of the per-task phase attribution clocks (see TaskTuner::phase_times()).
  SearchPhaseTimes AggregatePhaseTimes() const;
  // Mirrors the scheduler's allocation state and the aggregates above into
  // `registry` as gauges under `prefix` (.rounds_allocated, .tasks,
  // .objective, .statically_rejected, .cache.*, .evolution.*).
  void ExportMetrics(MetricsRegistry* registry, const std::string& prefix) const;
  // (cumulative trials, objective value) after every allocation.
  const std::vector<std::pair<int64_t, double>>& history() const { return history_; }

 private:
  int NextTask();
  // Records a completed round on `task_index`: allocation count, latency
  // history, stagnation tracking (f4), the (trials, objective) curve, and
  // the allocation trace. `before_seconds`/`after_seconds` are the task's
  // best latency before and after the round.
  void RecordRound(int task_index, double before_seconds, double after_seconds);
  double EvalObjective(const std::vector<double>& task_latency) const;
  std::vector<double> CurrentLatencies() const;
  // Both take the current latency snapshot so one gradient pick computes
  // CurrentLatencies() once, not once per task.
  double Gradient(int task_index, const std::vector<double>& latencies) const;
  // d f / d g_i via central finite differences (supports custom objectives).
  double ObjectiveGradientWrtTask(int task_index, const std::vector<double>& latencies) const;

  std::vector<SearchTask> tasks_;
  std::vector<NetworkSpec> networks_;
  Objective objective_;
  TaskSchedulerOptions options_;
  Rng rng_;
  std::vector<std::unique_ptr<TaskTuner>> tuners_;
  std::vector<int> allocations_;
  std::vector<int> allocation_trace_;
  // Latency history per task, indexed by allocation count.
  std::vector<std::vector<double>> latency_history_;
  std::vector<int> rounds_without_improvement_;
  std::vector<std::pair<int64_t, double>> history_;
};

}  // namespace ansor

#endif  // ANSOR_SRC_SCHEDULER_TASK_SCHEDULER_H_

#include "src/scheduler/task_scheduler.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/support/util.h"

namespace ansor {

Objective Objective::SumLatency() {
  Objective o;
  o.kind = ObjectiveKind::kSumLatency;
  return o;
}

Objective Objective::LatencyRequirement(std::vector<double> requirements) {
  Objective o;
  o.kind = ObjectiveKind::kLatencyRequirement;
  o.latency_requirements = std::move(requirements);
  return o;
}

Objective Objective::GeoMeanSpeedup(std::vector<double> references) {
  Objective o;
  o.kind = ObjectiveKind::kGeoMeanSpeedup;
  o.reference_latencies = std::move(references);
  return o;
}

Objective Objective::EarlyStopping(int rounds) {
  Objective o;
  o.kind = ObjectiveKind::kEarlyStopping;
  o.early_stop_rounds = rounds;
  return o;
}

TaskScheduler::TaskScheduler(std::vector<SearchTask> tasks, std::vector<NetworkSpec> networks,
                             Objective objective, Measurer* measurer, CostModel* model,
                             TaskSchedulerOptions options)
    : tasks_(std::move(tasks)),
      networks_(std::move(networks)),
      objective_(std::move(objective)),
      options_(std::move(options)),
      rng_(options_.seed) {
  CHECK(!tasks_.empty());
  for (size_t i = 0; i < tasks_.size(); ++i) {
    SearchOptions search = options_.search;
    if (options_.per_task_search) {
      options_.per_task_search(i, tasks_[i], &search);
    }
    tuners_.push_back(std::make_unique<TaskTuner>(tasks_[i], measurer, model, search));
  }
  allocations_.assign(tasks_.size(), 0);
  latency_history_.assign(tasks_.size(), {});
  rounds_without_improvement_.assign(tasks_.size(), 0);
}

std::vector<double> TaskScheduler::CurrentLatencies() const {
  std::vector<double> latency(tasks_.size());
  for (size_t i = 0; i < tasks_.size(); ++i) {
    double best = tuners_[i]->best_seconds();
    // Unmeasured tasks count with a pessimistic placeholder so warm-up visits
    // them first.
    latency[i] = std::isfinite(best) ? best : 1.0;
  }
  return latency;
}

double TaskScheduler::EvalObjective(const std::vector<double>& task_latency) const {
  std::vector<double> dnn_latency(networks_.size(), 0.0);
  for (size_t j = 0; j < networks_.size(); ++j) {
    for (int i : networks_[j].task_indices) {
      dnn_latency[j] += tasks_[static_cast<size_t>(i)].weight *
                        task_latency[static_cast<size_t>(i)];
    }
  }
  switch (objective_.kind) {
    case ObjectiveKind::kSumLatency:
    case ObjectiveKind::kEarlyStopping: {
      double sum = 0.0;
      for (double l : dnn_latency) {
        sum += l;
      }
      return sum;
    }
    case ObjectiveKind::kLatencyRequirement: {
      CHECK_EQ(objective_.latency_requirements.size(), networks_.size());
      double sum = 0.0;
      for (size_t j = 0; j < dnn_latency.size(); ++j) {
        sum += std::max(dnn_latency[j], objective_.latency_requirements[j]);
      }
      return sum;
    }
    case ObjectiveKind::kGeoMeanSpeedup: {
      CHECK_EQ(objective_.reference_latencies.size(), networks_.size());
      std::vector<double> speedups;
      for (size_t j = 0; j < dnn_latency.size(); ++j) {
        speedups.push_back(objective_.reference_latencies[j] /
                           std::max(dnn_latency[j], 1e-12));
      }
      return -GeometricMean(speedups);
    }
    case ObjectiveKind::kCustom:
      CHECK(objective_.custom != nullptr);
      return objective_.custom(dnn_latency);
  }
  return 0.0;
}

double TaskScheduler::NetworkLatency(int network_index) const {
  std::vector<double> latency = CurrentLatencies();
  double sum = 0.0;
  for (int i : networks_[static_cast<size_t>(network_index)].task_indices) {
    sum += tasks_[static_cast<size_t>(i)].weight * latency[static_cast<size_t>(i)];
  }
  return sum;
}

double TaskScheduler::ObjectiveValue() const { return EvalObjective(CurrentLatencies()); }

ProgramCacheStats TaskScheduler::AggregateProgramCacheStats() const {
  ProgramCacheStats total;
  // Tuners may share one injected cache; count each distinct cache once.
  std::unordered_set<const ProgramCache*> seen;
  for (const auto& tuner : tuners_) {
    const ProgramCache* cache = &tuner->program_cache();
    if (!seen.insert(cache).second) {
      continue;
    }
    ProgramCacheStats s = cache->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
  }
  return total;
}

int64_t TaskScheduler::AggregateStaticallyRejected() const {
  int64_t total = 0;
  for (const auto& tuner : tuners_) {
    total += tuner->statically_rejected();
  }
  return total;
}

EvolutionStats TaskScheduler::AggregateEvolutionStats() const {
  EvolutionStats total;
  for (const auto& tuner : tuners_) {
    AccumulateEvolutionStats(tuner->evolution_stats(), &total);
  }
  return total;
}

SearchPhaseTimes TaskScheduler::AggregatePhaseTimes() const {
  SearchPhaseTimes total;
  for (const auto& tuner : tuners_) {
    total.Add(tuner->phase_times());
  }
  return total;
}

void TaskScheduler::ExportMetrics(MetricsRegistry* registry,
                                  const std::string& prefix) const {
  registry->SetGauge(prefix + ".tasks", static_cast<double>(tasks_.size()));
  registry->SetGauge(prefix + ".rounds_allocated",
                     static_cast<double>(allocation_trace_.size()));
  registry->SetGauge(prefix + ".objective", ObjectiveValue(), "seconds");
  registry->SetGauge(prefix + ".statically_rejected",
                     static_cast<double>(AggregateStaticallyRejected()));
  ProgramCacheStats cache = AggregateProgramCacheStats();
  registry->SetGauge(prefix + ".cache.hits", static_cast<double>(cache.hits));
  registry->SetGauge(prefix + ".cache.misses", static_cast<double>(cache.misses));
  registry->SetGauge(prefix + ".cache.evictions", static_cast<double>(cache.evictions));
  EvolutionStats evo = AggregateEvolutionStats();
  registry->SetGauge(prefix + ".evolution.child_attempts",
                     static_cast<double>(evo.child_attempts));
  registry->SetGauge(prefix + ".evolution.children_generated",
                     static_cast<double>(evo.children_generated));
  registry->SetGauge(prefix + ".evolution.crossover_score_hits",
                     static_cast<double>(evo.crossover_score_hits));
  registry->SetGauge(prefix + ".evolution.crossover_score_misses",
                     static_cast<double>(evo.crossover_score_misses));
}

double TaskScheduler::ObjectiveGradientWrtTask(int task_index,
                                               const std::vector<double>& latencies) const {
  double g = latencies[static_cast<size_t>(task_index)];
  double h = std::max(1e-6, 1e-3 * g);
  std::vector<double> up = latencies;
  std::vector<double> down = latencies;
  up[static_cast<size_t>(task_index)] = g + h;
  down[static_cast<size_t>(task_index)] = std::max(0.0, g - h);
  return (EvalObjective(up) - EvalObjective(down)) /
         (up[static_cast<size_t>(task_index)] - down[static_cast<size_t>(task_index)]);
}

double TaskScheduler::Gradient(int task_index, const std::vector<double>& latencies) const {
  size_t i = static_cast<size_t>(task_index);
  const std::vector<double>& hist = latency_history_[i];
  if (hist.empty()) {
    return -std::numeric_limits<double>::infinity();  // unvisited: maximal priority
  }
  int ti = allocations_[i];
  double gi = hist.back();

  // f4-style early stopping: a stagnant task gets zero gradient.
  if (objective_.kind == ObjectiveKind::kEarlyStopping &&
      rounds_without_improvement_[i] >= objective_.early_stop_rounds) {
    return 0.0;
  }

  // Backward-window term: (g_i(t_i) - g_i(t_i - delta_t)) / delta_t.
  double backward = 0.0;
  int window = std::min<int>(options_.window, static_cast<int>(hist.size()) - 1);
  if (window > 0) {
    backward = (hist.back() - hist[hist.size() - 1 - static_cast<size_t>(window)]) /
               static_cast<double>(window);
  }

  // Forward term: optimistic guess min(-g_i / t_i, beta * C_i / max_k V_k - g_i).
  double optimistic = -gi / std::max(1, ti);
  double similarity = std::numeric_limits<double>::infinity();
  double max_v = 0.0;
  for (size_t k = 0; k < tasks_.size(); ++k) {
    if (k == i || tasks_[k].tag != tasks_[i].tag || tasks_[i].tag.empty()) {
      continue;
    }
    max_v = std::max(max_v, tuners_[k]->best_throughput());
  }
  if (max_v > 0.0) {
    similarity = options_.beta * tasks_[i].flop_count() / max_v - gi;
  }
  double forward = std::min(optimistic, similarity);

  double dg_dt = options_.alpha * backward + (1.0 - options_.alpha) * forward;
  return ObjectiveGradientWrtTask(task_index, latencies) * dg_dt;
}

int TaskScheduler::NextTask() {
  // Warm-up: one round-robin pass (t = (1, 1, ..., 1)). No RNG is consumed
  // until every task has been visited once — see the draw-order contract in
  // the header.
  for (size_t i = 0; i < tuners_.size(); ++i) {
    if (allocations_[i] == 0) {
      return static_cast<int>(i);
    }
  }
  // Post-warm-up: exactly one Uniform() draw, then one Index() draw iff
  // exploring.
  if (rng_.Uniform() < options_.eps_greedy) {
    return static_cast<int>(rng_.Index(tuners_.size()));  // eps-greedy exploration
  }
  // One latency snapshot per pick: every task's gradient reads the same
  // vector instead of recomputing CurrentLatencies() (formerly O(tasks²)
  // per pick). The argmax consumes no RNG.
  std::vector<double> latencies = CurrentLatencies();
  size_t pick = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < tuners_.size(); ++i) {
    double score = std::fabs(Gradient(static_cast<int>(i), latencies));
    if (score > best_score) {
      best_score = score;
      pick = i;
    }
  }
  return static_cast<int>(pick);
}

void TaskScheduler::RecordRound(int task_index, double before_seconds,
                                double after_seconds) {
  size_t i = static_cast<size_t>(task_index);
  allocations_[i] += 1;
  allocation_trace_.push_back(task_index);
  latency_history_[i].push_back(std::isfinite(after_seconds) ? after_seconds : 1.0);
  if (std::isfinite(before_seconds) && after_seconds >= before_seconds * (1.0 - 1e-9)) {
    rounds_without_improvement_[i] += 1;
  } else {
    rounds_without_improvement_[i] = 0;
  }
  int64_t trials = 0;
  for (const auto& t : tuners_) {
    trials += t->total_measures();
  }
  history_.emplace_back(trials, ObjectiveValue());
}

int TaskScheduler::RunRound(const Tracer& round_tracer, int64_t deadline_nanos) {
  int pick = NextTask();
  TaskTuner* tuner = tuners_[static_cast<size_t>(pick)].get();
  if (round_tracer.enabled()) {
    // Everything the tuner records this round nests under the round's span.
    tuner->set_tracer(round_tracer.WithTask(pick));
  }
  double before = tuner->best_seconds();
  double after = tuner->TuneRound(options_.measures_per_round, deadline_nanos);
  RecordRound(pick, before, after);
  return pick;
}

void TaskScheduler::Tune(int total_rounds) {
  for (int round = 0; round < total_rounds; ++round) {
    RunRound();
  }
}

}  // namespace ansor

// The Ansor search policy (paper Fig. 4, §4-§5).
//
// One tuning round: sample fresh random programs from the sketches, mix in
// the best measured programs so far as the evolutionary initial population,
// evolve against the learned cost model, measure the top candidates (with an
// epsilon fraction of purely random programs for exploration), and retrain
// the model on the new measurements.
#ifndef ANSOR_SRC_SEARCH_SEARCH_POLICY_H_
#define ANSOR_SRC_SEARCH_SEARCH_POLICY_H_

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/evolution/evolution.h"
#include "src/hwsim/measurer.h"
#include "src/program/program_cache.h"
#include "src/sketch/sketch.h"
#include "src/store/record_store.h"
#include "src/telemetry/clock.h"
#include "src/telemetry/trace.h"

namespace ansor {

// A tuning task: one subgraph to optimize (paper §6: "We define a task as a
// process performed to generate high-performance programs for a subgraph").
// The DAG is shared so that program states escaping the tuner (best programs
// in results) keep it alive.
struct SearchTask {
  std::string name;
  std::shared_ptr<const ComputeDAG> dag;
  // Number of appearances of this subgraph in its DNN(s) (the weight w_i).
  int weight = 1;
  // Structural similarity tag (same-tag tasks inform each other's gradient
  // estimate via the beta term of §6.2).
  std::string tag;

  uint64_t task_id() const { return dag->CanonicalHash(); }
  double flop_count() const { return dag->FlopCount(); }
};

inline SearchTask MakeSearchTask(std::string name, ComputeDAG dag, int weight = 1,
                                 std::string tag = "") {
  SearchTask task;
  task.name = std::move(name);
  task.dag = std::make_shared<const ComputeDAG>(std::move(dag));
  task.weight = weight;
  task.tag = std::move(tag);
  return task;
}

struct SearchOptions {
  int population = 64;
  int generations = 3;
  // Probability of producing offspring by node-based crossover instead of
  // mutation (0 disables crossover).
  double crossover_probability = 0.25;
  // Fraction of each measured batch drawn from random sampling instead of
  // evolution (epsilon-greedy exploration).
  double eps_random = 0.1;
  int random_samples_per_round = 24;  // fresh samples seeding each round
  uint64_t seed = 42;
  SamplerOptions sampler;
  SketchOptions sketch;
  // Ablations (§7.1 Fig. 7): disable the evolutionary fine-tuning ("No
  // fine-tuning": random sampling only).
  bool enable_fine_tuning = true;
  // Record sinks. Every valid measurement, with its measured throughput, is
  // appended to each sink that is set; neither is owned.
  //  * record_log: the tuner's own history (resume / share /
  //    apply-without-search workflows), usually a RecordLog
  //    (src/search/record_log.h), appended anonymously.
  //  * record_store: a fleet-wide store, attributed to cache_client_id under
  //    the store's dedup policy. A TuningService points every job's tuners
  //    at one store so the whole fleet's history accumulates deduplicated in
  //    one place (and feeds TrainFromStore); it may be shared across
  //    concurrent tuners.
  RecordStore* record_log = nullptr;
  RecordStore* record_store = nullptr;
  // Pool for evolution and feature extraction; nullptr = ThreadPool::Global().
  // Results are invariant to the pool size (see the determinism tests).
  ThreadPool* thread_pool = nullptr;
  // Compiled-program cache shared by every consumer of a tuning round
  // (evolution scoring, crossover, measurement, training-feature
  // extraction). nullptr = the tuner creates its own task-lifetime cache
  // with program_cache_capacity entries; inject one to observe its counters
  // or to share artifacts across tasks. Results are invariant to the cache
  // and its capacity (see the determinism tests).
  ProgramCache* program_cache = nullptr;
  // Capacity of the tuner-owned cache when program_cache is null. 0 disables
  // caching entirely (every consumer compiles from scratch, as before PR 3).
  size_t program_cache_capacity = ProgramCache::kDefaultCapacity;
  // Consumer id tagged onto every program-cache lookup this tuner makes
  // (evolution scoring, pre-measurement filter, measurement, training
  // features) so a cache shared across tasks can attribute cross-task reuse
  // exactly (ProgramCache::ClientStats). 0 = anonymous. The TuningService
  // assigns each (job, task) a distinct id. Counters only; search results
  // are identical for any id.
  uint64_t cache_client_id = 0;
  // A program whose measurement comes back invalid is retried in later rounds
  // at most this many times in total before being blacklisted like a measured
  // program: transient hardware failures recover, deterministic failures stop
  // leaking one trial per round forever.
  int max_invalid_measures = 3;
  // Static verification level (src/analysis/program_verifier.h): 0 = off,
  // 1 = statically-illegal candidates (failed lowering, bounds/domain/
  // ordering violations, machine resource limits) are rejected before they
  // burn a measurement trial, 2 = invariant mode — the verifier additionally
  // runs on every accepted evolution child at construction site. The
  // ANSOR_CHECK_INVARIANTS environment variable raises the effective level
  // to 2. Levels 0 and 1 are bit-identical on corpora with no statically
  // illegal candidate (see the determinism tests).
  int verify_level = 1;
  // Telemetry handle for this task's tuner: spans for sketch generation,
  // round planning (with evolution/generation children), training-feature
  // extraction, measurement and commit are attributed through it. Disabled
  // by default (one branch per would-be span); search results are
  // bit-identical either way. The TuningService stamps job/task ids on it
  // and re-parents it per round via TaskTuner::set_tracer.
  Tracer tracer;
  // Clock used for the tuner's per-phase time attribution (nullptr = the
  // process steady clock). Injected by the TuningService so every timing in
  // a job — report fields, trace spans, phase breakdowns — derives from the
  // single service clock (fake-clock testable).
  MonotonicClock* clock = nullptr;
};

// Wall-clock seconds a tuner (or a whole job) spent in each phase of the
// tuning loop, all accumulated by TaskTuner::TuneRound. measure_wall is the
// submit→complete wall time of each round's measurement batch; overlap is the
// part of it during which the round's training-feature extraction ran.
struct SearchPhaseTimes {
  double sketch_seconds = 0.0;
  double search_seconds = 0.0;   // planning: evolution + candidate filtering
  double feature_seconds = 0.0;  // training-feature extraction
  double measure_wall_seconds = 0.0;
  double commit_seconds = 0.0;   // result bookkeeping + cost-model training
  double overlap_seconds = 0.0;  // search-side work overlapped with measuring

  double TotalSeconds() const {
    return sketch_seconds + search_seconds + feature_seconds + measure_wall_seconds +
           commit_seconds;
  }
  // Fraction of measurement wall time that was hidden behind search-side
  // work.
  double OverlapFraction() const {
    return measure_wall_seconds > 0.0 ? overlap_seconds / measure_wall_seconds : 0.0;
  }
  void Add(const SearchPhaseTimes& other) {
    sketch_seconds += other.sketch_seconds;
    search_seconds += other.search_seconds;
    feature_seconds += other.feature_seconds;
    measure_wall_seconds += other.measure_wall_seconds;
    commit_seconds += other.commit_seconds;
    overlap_seconds += other.overlap_seconds;
  }
};

// Per-task tuner holding search state across rounds so the task scheduler can
// interleave tasks (paper §6: one round == "one unit of time resources").
class TaskTuner {
 public:
  TaskTuner(SearchTask task, Measurer* measurer, CostModel* model,
            SearchOptions options = SearchOptions());

  // TuneRound's `deadline_nanos` for a round without a deadline.
  static constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

  // Runs one tuning round with a budget of `num_measures` measurement trials:
  // plans candidates (evolution + epsilon-random exploration, deduplicated
  // against already-measured programs, statically filtered), submits them for
  // measurement on SearchOptions::thread_pool, extracts their training
  // features while the batch is in flight, then commits the results. Past
  // `deadline_nanos` on the tuner clock the unstarted trials are cancelled:
  // they cost no budget, no blacklist entry and no training sample. Returns
  // the best latency (seconds) found so far; infinity until a valid program
  // is measured. Must not run on a worker of the pool it measures on: the
  // caller blocks on the batch without helping.
  double TuneRound(int num_measures, int64_t deadline_nanos = kNoDeadline);

  const SearchTask& task() const { return task_; }
  double best_seconds() const { return best_seconds_; }
  double best_throughput() const { return best_throughput_; }
  const std::optional<State>& best_state() const { return best_state_; }
  int64_t total_measures() const { return total_measures_; }
  // Trials that came back invalid (counted separately: their signatures are
  // NOT blacklisted, so the program can be retried in a later round).
  int64_t invalid_measures() const { return invalid_measures_; }
  // Candidates the static program verifier rejected before measurement
  // (across evolution populations and the pre-measurement filter). Each
  // rejection is a trial that would previously have been spent discovering
  // the illegality dynamically.
  int64_t statically_rejected() const { return statically_rejected_; }
  // Number of distinct programs with a recorded valid measurement.
  size_t measured_signature_count() const { return measured_signatures_.size(); }
  // (cumulative trial count, best seconds) after each round.
  const std::vector<std::pair<int64_t, double>>& history() const { return history_; }
  // The task's compiled-program cache (owned unless injected via
  // SearchOptions::program_cache). Exposes hit/miss/eviction counters.
  const ProgramCache& program_cache() const { return *cache_; }

  // Trials whose results came back cancelled (deadline hit before start).
  int64_t cancelled_measures() const { return cancelled_measures_; }
  // Per-phase wall-time attribution accumulated across rounds (single
  // injected clock; see SearchOptions::clock).
  const SearchPhaseTimes& phase_times() const { return phase_times_; }
  // EvolutionStats summed over every round this tuner planned (the per-call
  // stats are reset by each Evolve; this is the round-spanning mirror the
  // metrics registry snapshots).
  const EvolutionStats& evolution_stats() const { return evolution_stats_; }
  // Re-attributes subsequent spans (round/parent change): the scheduler
  // points this at the current round's span before running it.
  void set_tracer(const Tracer& tracer) { tracer_ = tracer; }

 private:
  // One planned-but-not-yet-committed round: the candidates selected for
  // measurement, their precomputed signatures, and their training features.
  struct PlannedRound {
    std::vector<State> to_measure;
    std::vector<std::string> signatures;  // StepSignature per candidate
    // Per-candidate training-feature matrices, copied out of the cached
    // artifacts by ExtractFeatures. A pure function of to_measure, so it can
    // run while the batch measures.
    std::vector<FeatureMatrix> features;
  };

  std::vector<State> SampleRandomPrograms(int count);
  // Selects up to `num_measures` candidates for the round.
  PlannedRound PlanRound(int num_measures);
  // Copies the candidates' training features out of the cached artifacts
  // (safe while the round's batch measures: artifacts are immutable and the
  // cache is thread-safe).
  void ExtractFeatures(PlannedRound* round);
  // Applies the measurement results (index-aligned with round.to_measure):
  // budget, best-program tracking, blacklist bookkeeping, record sinks,
  // cost-model training, history. Returns the best latency so far.
  double CommitRound(PlannedRound round, const std::vector<MeasureResult>& results);

  SearchTask task_;
  Measurer* measurer_;
  CostModel* model_;
  SearchOptions options_;
  std::unique_ptr<ProgramCache> owned_cache_;
  ProgramCache* cache_;
  MonotonicClock* clock_;
  Tracer tracer_;  // current attribution (options_.tracer until set_tracer)
  SearchPhaseTimes phase_times_;
  EvolutionStats evolution_stats_;
  Rng rng_;
  std::vector<State> sketches_;
  // Best measured programs (population seed for the next round).
  std::vector<std::pair<double, State>> measured_best_;
  double best_seconds_ = std::numeric_limits<double>::infinity();
  double best_throughput_ = 0.0;
  std::optional<State> best_state_;
  int64_t total_measures_ = 0;
  int64_t invalid_measures_ = 0;
  int64_t cancelled_measures_ = 0;
  int64_t statically_rejected_ = 0;
  std::vector<std::pair<int64_t, double>> history_;
  // Signatures of already-measured programs: never burn a trial twice on the
  // same program (mirrors TVM's measured-state dedup). Only programs with a
  // *valid* measurement enter this set; invalid results are tallied in
  // invalid_signature_counts_ and blacklisted only after
  // SearchOptions::max_invalid_measures failed attempts.
  std::unordered_set<std::string> measured_signatures_;
  std::unordered_map<std::string, int> invalid_signature_counts_;
};

struct TuneResult {
  double best_seconds = std::numeric_limits<double>::infinity();
  double best_throughput = 0.0;
  std::optional<State> best_state;
  std::vector<std::pair<int64_t, double>> history;
};

// Tunes a single task for `num_measure_trials` trials in rounds of
// `measures_per_round`.
TuneResult TuneTask(const SearchTask& task, Measurer* measurer, CostModel* model,
                    int num_measure_trials, int measures_per_round = 16,
                    SearchOptions options = SearchOptions());

}  // namespace ansor

#endif  // ANSOR_SRC_SEARCH_SEARCH_POLICY_H_

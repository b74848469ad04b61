// Evolutionary search with a learned cost model (paper §5.1).
//
// "The evolution starts from the sampled initial generation ... the
// probability of selecting a program is proportional to its fitness predicted
// by the learned cost model ... for the selected programs, we randomly apply
// one of the evolution operations."
//
// Operators implemented (all on the rewriting-step "genes", replayed and
// verified after editing):
//   * tile size mutation      — moves a factor between tile levels, keeping
//                               the product equal (always valid);
//   * parallel granularity    — changes the fuse count feeding a parallel
//     mutation                  annotation;
//   * pragma mutation         — changes auto_unroll_max_step;
//   * vectorize mutation      — toggles the innermost vectorize annotation;
//   * computation location    — moves a fused producer to another loop level;
//   * node-based crossover    — per-DAG-node adoption of step parameters from
//                               the parent whose node scores higher.
//
// The per-generation hot path is a parallel, batched pipeline over the
// content-addressed ProgramArtifact layer (src/program):
//   1. the whole population is resolved to ProgramArtifacts in parallel
//      (lowered + feature-extracted once per distinct program, served from
//      the task-lifetime ProgramCache thereafter) and scored with one
//      batched CostModel::PredictBatch call;
//   2. child generation runs on a thread pool in waves, each slot drawing
//      from its own deterministically forked RNG stream, so results are
//      bit-identical across thread counts for a fixed seed;
//   3. crossover reads per-stage parent scores from CrossoverScoreCache,
//      whose storage is the artifacts themselves: a parent is
//      PredictStatements-scored at most once per cost-model version, and the
//      memo survives across generations and tuning rounds for as long as the
//      artifact stays cached.
#ifndef ANSOR_SRC_EVOLUTION_EVOLUTION_H_
#define ANSOR_SRC_EVOLUTION_EVOLUTION_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/costmodel/cost_model.h"
#include "src/ir/state.h"
#include "src/program/program_cache.h"
#include "src/sampler/annotation.h"
#include "src/support/thread_pool.h"
#include "src/telemetry/trace.h"

namespace ansor {

struct EvolutionOptions {
  int population = 128;
  int generations = 4;
  double crossover_probability = 0.25;  // otherwise mutate
  SamplerOptions sampler;
  // Pool running per-generation scoring and child generation. nullptr means
  // ThreadPool::Global(). Injectable so tests can prove that search results
  // are invariant to the thread count (pool size 1 vs N).
  ThreadPool* thread_pool = nullptr;
  // Compiled-program cache serving lowering/features/stage-scores. nullptr
  // means Evolve uses a private per-call cache; the search policy injects
  // its task-lifetime cache here so artifacts (and their crossover score
  // memos) survive across generations and tuning rounds. Results are
  // bit-identical for any cache and any capacity, including 0 = disabled.
  ProgramCache* program_cache = nullptr;
  // Consumer id tagged onto every program_cache lookup so a cache shared
  // across tasks can attribute cross-task reuse (ProgramCache::GetOrBuild).
  // 0 = anonymous. Counters only; results are identical for any id.
  uint64_t cache_client_id = 0;
  // Static verification level (see src/analysis/program_verifier.h):
  //   0 — off: only the legacy lowerability test (empty features) filters;
  //   1 — population members whose artifact fails the static verifier are
  //       rejected before they can be selected as parents or returned;
  //   2 — invariant mode: every accepted mutation/crossover child is
  //       additionally verified at construction site, so a primitive that
  //       builds an illegal state is caught in the generation that ran it.
  // The ANSOR_CHECK_INVARIANTS environment variable raises the effective
  // level to 2. For corpora containing no lowerable-but-illegal program,
  // levels 0 and 1 produce bit-identical results.
  int verify_level = 1;
  // Telemetry handle: when enabled, Evolve records an "evolution" span with
  // one "generation" child per generation plus "model_predict" and
  // "artifact_build" descendants. Disabled (the default) costs one branch
  // per would-be span; results are bit-identical either way — tracing only
  // reads clocks.
  Tracer tracer;
};

// Counters for the child-generation hot path, reset by each Evolve() call.
struct EvolutionStats {
  int64_t child_attempts = 0;      // mutation/crossover slots executed
  int64_t children_generated = 0;  // valid offspring admitted to a population
  // Candidates rejected by the static program verifier (failed lowering,
  // bounds/domain/ordering violations, resource limits) before any
  // measurement: population members zero-weighted during scoring and, in
  // invariant mode, children discarded at construction site.
  int64_t statically_rejected = 0;
  // Crossover parent stage-score lookups served from a memo (same wave, an
  // earlier generation, or an earlier round at the same model version) vs
  // computed fresh (bounded by one scoring per population member per
  // generation; the serial code recomputed both parents every call).
  int64_t crossover_score_hits = 0;
  int64_t crossover_score_misses = 0;
  // ProgramCache activity observed during the Evolve() call (counter deltas;
  // approximate if the injected cache is shared with concurrent users).
  int64_t program_cache_hits = 0;
  int64_t program_cache_misses = 0;
  int64_t program_cache_evictions = 0;

  double CacheHitRate() const {
    int64_t total = crossover_score_hits + crossover_score_misses;
    return total == 0 ? 0.0 : static_cast<double>(crossover_score_hits) /
                                  static_cast<double>(total);
  }
  double ProgramCacheHitRate() const {
    int64_t total = program_cache_hits + program_cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(program_cache_hits) /
                                  static_cast<double>(total);
  }
};

// Adds `delta`'s counters into `total`: stats() resets per Evolve() call, so
// round-spanning consumers (TaskTuner, the metrics registry) accumulate.
void AccumulateEvolutionStats(const EvolutionStats& delta, EvolutionStats* total);

// Per-stage cost-model scores for crossover parents, stored on the parents'
// ProgramArtifacts: a score memo is stamped with the cost-model version it
// was computed under and lives as long as the artifact stays in the task's
// ProgramCache, so parents reappearing in a later generation or tuning round
// are not re-scored until the model retrains. `artifacts` holds the
// population's resolved artifacts (borrowed; must outlive the cache). Misses
// are queued by Request() and computed by Flush() in one batched model call;
// after Flush(), Get() is lock-free and safe from worker threads.
class CrossoverScoreCache {
 public:
  using StageScores = std::unordered_map<std::string, double>;

  CrossoverScoreCache(const std::vector<ProgramArtifactPtr>* artifacts, CostModel* model);

  // Declares that member `i` is needed as a crossover parent: counts a cache
  // hit when its scores are already memoized or queued, a miss otherwise.
  void Request(size_t i);
  // Scores all queued misses with one CostModel::PredictStatementsBatch call
  // and installs the memos on the artifacts.
  void Flush();
  // Scores for member `i`; Request+Flush must have covered it. Read-only.
  const StageScores& Get(size_t i) const;

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  const std::vector<ProgramArtifactPtr>* artifacts_;
  CostModel* model_;
  // Resolved memo per member (null until Request/Flush covered it).
  std::vector<std::shared_ptr<const ScoredStages>> resolved_;
  // 0 = absent, 1 = queued for the next Flush, 2 = resolved.
  std::vector<uint8_t> status_;
  std::vector<size_t> pending_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

class EvolutionarySearch {
 public:
  EvolutionarySearch(const ComputeDAG* dag, CostModel* model, Rng rng,
                     EvolutionOptions options = EvolutionOptions());

  // Runs evolution from the initial population; returns up to `num_out`
  // distinct best states by predicted fitness.
  std::vector<State> Evolve(const std::vector<State>& init, int num_out);

  // Hot-path counters of the most recent Evolve() call.
  const EvolutionStats& stats() const { return stats_; }

  // Individual operators, exposed for tests and baselines. Each draws from
  // the given RNG stream (child generation gives every slot its own, so it
  // parallelizes deterministically) and returns the canonical State::Failure
  // on an invalid edit (callers discard); a partially-replayed state is never
  // returned.
  State MutateTileSize(const State& state, Rng* rng);
  State MutatePragma(const State& state, Rng* rng);
  State MutateParallelGranularity(const State& state, Rng* rng);
  State MutateVectorize(const State& state, Rng* rng);
  State MutateComputeLocation(const State& state, Rng* rng);
  // Node-based crossover scoring both parents' stages with the cost model
  // (through the program cache's per-artifact memo when one is injected).
  State Crossover(const State& a, const State& b, Rng* rng);

  // Replays `steps` with SplitStep lengths rewritten by `edit(step_index,
  // extent, lengths*)`; other steps replay verbatim. Exposed for tests: a
  // mid-replay failure must normalize to State::Failure (empty step history).
  State ReplayWithSplitEdit(
      const std::vector<Step>& steps,
      const std::function<void(size_t, int64_t, std::vector<int64_t>*)>& edit);

 private:
  State RandomMutation(const State& state, Rng* rng);
  // Crossover with both parents' per-stage scores supplied by the caller
  // (from the per-generation cache on the hot path).
  State Crossover(const State& a, const State& b,
                  const CrossoverScoreCache::StageScores& score_a,
                  const CrossoverScoreCache::StageScores& score_b, Rng* rng);
  // Lowers + feature-extracts + scores one state from scratch (used by the
  // public Crossover; the hot path reads the CrossoverScoreCache instead).
  CrossoverScoreCache::StageScores ComputeStageScores(const State& state);
  // Normalizes any failed state to the canonical State::Failure.
  State Normalized(State state) const;

  const ComputeDAG* dag_;
  CostModel* model_;
  Rng rng_;
  EvolutionOptions options_;
  EvolutionStats stats_;
};

}  // namespace ansor

#endif  // ANSOR_SRC_EVOLUTION_EVOLUTION_H_

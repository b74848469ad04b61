#include "src/evolution/evolution.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "src/analysis/program_verifier.h"
#include "src/support/util.h"

namespace ansor {
namespace {

// Crossover requires the parents to share a sketch skeleton: the same
// (kind, stage) step sequence. Checked before scoring so incompatible pairs
// never cost a model call.
bool SkeletonsMatch(const State& a, const State& b) {
  const std::vector<Step>& sa = a.steps();
  const std::vector<Step>& sb = b.steps();
  if (sa.size() != sb.size()) {
    return false;
  }
  for (size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].kind != sb[i].kind || sa[i].stage != sb[i].stage) {
      return false;
    }
  }
  return true;
}

// Sums per-row statement predictions into per-stage scores. The bound over
// both sizes defends against a model returning the wrong row count.
void AccumulateStageScores(const std::vector<double>& preds,
                           const std::vector<std::string>& row_stages,
                           CrossoverScoreCache::StageScores* scores) {
  for (size_t r = 0; r < preds.size() && r < row_stages.size(); ++r) {
    (*scores)[row_stages[r]] += preds[r];
  }
}

}  // namespace

// --- CrossoverScoreCache ------------------------------------------------------

void AccumulateEvolutionStats(const EvolutionStats& delta, EvolutionStats* total) {
  total->child_attempts += delta.child_attempts;
  total->children_generated += delta.children_generated;
  total->statically_rejected += delta.statically_rejected;
  total->crossover_score_hits += delta.crossover_score_hits;
  total->crossover_score_misses += delta.crossover_score_misses;
  total->program_cache_hits += delta.program_cache_hits;
  total->program_cache_misses += delta.program_cache_misses;
  total->program_cache_evictions += delta.program_cache_evictions;
}

CrossoverScoreCache::CrossoverScoreCache(const std::vector<ProgramArtifactPtr>* artifacts,
                                         CostModel* model)
    : artifacts_(artifacts), model_(model) {
  resolved_.resize(artifacts_->size());
  status_.assign(artifacts_->size(), 0);
}

void CrossoverScoreCache::Request(size_t i) {
  CHECK_LT(i, status_.size());
  if (status_[i] != 0) {
    ++hits_;
    return;
  }
  // A memo installed by an earlier generation or tuning round counts as a
  // hit too, as long as the model has not retrained since.
  if (auto memo = (*artifacts_)[i]->stage_scores(model_->model_id(), model_->version())) {
    resolved_[i] = std::move(memo);
    status_[i] = 2;
    ++hits_;
    return;
  }
  ++misses_;
  status_[i] = 1;
  pending_.push_back(i);
}

void CrossoverScoreCache::Flush() {
  if (pending_.empty()) {
    return;
  }
  std::vector<const FeatureMatrix*> programs;
  programs.reserve(pending_.size());
  for (size_t i : pending_) {
    programs.push_back(&(*artifacts_)[i]->features());
  }
  std::vector<std::vector<double>> preds = model_->PredictStatementsBatch(programs);
  for (size_t p = 0; p < pending_.size(); ++p) {
    size_t i = pending_[p];
    auto scored = std::make_shared<ScoredStages>();
    scored->model_id = model_->model_id();
    scored->model_version = model_->version();
    AccumulateStageScores(preds[p], (*artifacts_)[i]->row_stages(), &scored->scores);
    (*artifacts_)[i]->set_stage_scores(scored);
    resolved_[i] = std::move(scored);
    status_[i] = 2;
  }
  pending_.clear();
}

const CrossoverScoreCache::StageScores& CrossoverScoreCache::Get(size_t i) const {
  CHECK_LT(i, status_.size());
  CHECK_EQ(status_[i], 2);
  return resolved_[i]->scores;
}

// --- EvolutionarySearch -------------------------------------------------------

EvolutionarySearch::EvolutionarySearch(const ComputeDAG* dag, CostModel* model, Rng rng,
                                       EvolutionOptions options)
    : dag_(dag), model_(model), rng_(rng), options_(options) {}

State EvolutionarySearch::Normalized(State state) const {
  if (!state.failed()) {
    return state;
  }
  return State::Failure(dag_, state.error().empty() ? "invalid edit" : state.error());
}

State EvolutionarySearch::ReplayWithSplitEdit(
    const std::vector<Step>& steps,
    const std::function<void(size_t, int64_t, std::vector<int64_t>*)>& edit) {
  State state(dag_);
  for (size_t idx = 0; idx < steps.size(); ++idx) {
    Step step = steps[idx];
    if (step.kind == StepKind::kSplit) {
      int stage_idx = state.StageIndex(step.stage);
      if (stage_idx < 0 || step.iter < 0 ||
          step.iter >= static_cast<int>(state.stage(stage_idx).iters.size())) {
        return State::Failure(dag_, "split edit targets a missing iterator");
      }
      int64_t extent = state.stage(stage_idx).iters[static_cast<size_t>(step.iter)].extent;
      edit(idx, extent, &step.lengths);
      if (!state.Split(step.stage, step.iter, step.lengths)) {
        return Normalized(std::move(state));
      }
      continue;
    }
    bool ok = true;
    switch (step.kind) {
      case StepKind::kFollowSplit:
        ok = state.FollowSplit(step.stage, step.iter, step.src_step, step.n_parts);
        break;
      case StepKind::kFuse:
        ok = state.Fuse(step.stage, step.iter, step.fuse_count);
        break;
      case StepKind::kReorder:
        ok = state.Reorder(step.stage, step.order);
        break;
      case StepKind::kComputeAt:
        ok = state.ComputeAt(step.stage, step.target_stage, step.target_iter);
        break;
      case StepKind::kComputeInline:
        ok = state.ComputeInline(step.stage);
        break;
      case StepKind::kComputeRoot:
        ok = state.ComputeRoot(step.stage);
        break;
      case StepKind::kCacheWrite:
        ok = state.CacheWrite(step.stage, nullptr);
        break;
      case StepKind::kRfactor:
        ok = state.Rfactor(step.stage, step.iter, nullptr);
        break;
      case StepKind::kAnnotation:
        ok = state.Annotate(step.stage, step.iter, step.annotation);
        break;
      case StepKind::kPragma:
        ok = state.Pragma(step.stage, step.pragma_value);
        break;
      case StepKind::kSplit:
        break;
    }
    if (!ok) {
      // Every State primitive sets failed() when it returns false (audited by
      // tests/ir); normalize so the partial replay can never leak.
      return Normalized(std::move(state));
    }
  }
  return state;
}

State EvolutionarySearch::MutateTileSize(const State& state, Rng* rng) {
  // Pick a random split step with at least two levels, divide one level by a
  // random factor and multiply another level by it (paper: "keeps the product
  // of tile sizes equal to the original loop length").
  std::vector<size_t> candidates;
  for (size_t i = 0; i < state.steps().size(); ++i) {
    const Step& s = state.steps()[i];
    if (s.kind == StepKind::kSplit && !s.lengths.empty()) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    return State::Failure(dag_, "no split step to mutate");
  }
  size_t target = candidates[rng->Index(candidates.size())];

  return ReplayWithSplitEdit(state.steps(), [&](size_t idx, int64_t extent,
                                                std::vector<int64_t>* lengths) {
    if (idx != target) {
      return;
    }
    // Levels: 0 = implicit outer, 1..n = lengths.
    size_t n = lengths->size();
    int64_t prod = 1;
    for (int64_t l : *lengths) {
      prod *= l;
    }
    int64_t outer = extent / std::max<int64_t>(prod, 1);
    // Source level must have a factor > 1 to give away.
    std::vector<size_t> sources;
    if (outer > 1) {
      sources.push_back(0);
    }
    for (size_t j = 0; j < n; ++j) {
      if ((*lengths)[j] > 1) {
        sources.push_back(j + 1);
      }
    }
    if (sources.empty()) {
      return;
    }
    size_t src = sources[rng->Index(sources.size())];
    size_t dst = rng->Index(n + 1);
    if (dst == src) {
      dst = (dst + 1) % (n + 1);
    }
    int64_t src_value = src == 0 ? outer : (*lengths)[src - 1];
    std::vector<int64_t> divisors = Divisors(src_value);
    // Exclude 1 (no-op).
    if (divisors.size() <= 1) {
      return;
    }
    int64_t f = divisors[1 + rng->Index(divisors.size() - 1)];
    if (src != 0) {
      (*lengths)[src - 1] /= f;
    }
    if (dst != 0) {
      (*lengths)[dst - 1] *= f;
    }
    // src == 0 or dst == 0: the implicit outer absorbs the change.
  });
}

State EvolutionarySearch::MutatePragma(const State& state, Rng* rng) {
  std::vector<size_t> candidates;
  for (size_t i = 0; i < state.steps().size(); ++i) {
    if (state.steps()[i].kind == StepKind::kPragma) {
      candidates.push_back(i);
    }
  }
  std::vector<Step> steps = state.steps();
  const auto& unroll_options = options_.sampler.unroll_options;
  if (candidates.empty() || unroll_options.empty()) {
    return State::Failure(dag_, "no pragma step to mutate");
  }
  size_t target = candidates[rng->Index(candidates.size())];
  steps[target].pragma_value = unroll_options[rng->Index(unroll_options.size())];
  return Normalized(State::Replay(dag_, steps));
}

State EvolutionarySearch::MutateParallelGranularity(const State& state, Rng* rng) {
  // Find a fuse step whose stage later receives a parallel annotation and
  // change its granularity by one level ("changes the granularity by either
  // fusing its adjacent loop levels or splitting it").
  std::vector<Step> steps = state.steps();
  std::unordered_set<std::string> parallel_stages;
  for (const Step& s : steps) {
    if (s.kind == StepKind::kAnnotation && s.annotation == IterAnnotation::kParallel) {
      parallel_stages.insert(s.stage);
    }
  }
  std::vector<size_t> candidates;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].kind == StepKind::kFuse && parallel_stages.count(steps[i].stage) > 0) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    return State::Failure(dag_, "no parallel fuse step to mutate");
  }
  size_t target = candidates[rng->Index(candidates.size())];
  int delta = rng->Bernoulli(0.5) ? 1 : -1;
  steps[target].fuse_count += delta;
  if (steps[target].fuse_count < 2) {
    return State::Failure(dag_, "fuse count below minimum");
  }
  return Normalized(State::Replay(dag_, steps));
}

State EvolutionarySearch::MutateVectorize(const State& state, Rng* rng) {
  std::vector<Step> steps = state.steps();
  std::vector<size_t> vec_steps;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].kind == StepKind::kAnnotation &&
        steps[i].annotation == IterAnnotation::kVectorize) {
      vec_steps.push_back(i);
    }
  }
  if (!vec_steps.empty() && rng->Bernoulli(0.5)) {
    // Drop one vectorize annotation.
    steps.erase(steps.begin() + static_cast<long>(vec_steps[rng->Index(vec_steps.size())]));
    return Normalized(State::Replay(dag_, steps));
  }
  // Add a vectorize annotation to the innermost iterator of a random stage.
  std::vector<std::string> stages;
  for (const Stage& s : state.stages()) {
    if (s.loc.kind != ComputeLocKind::kInlined && !s.iters.empty() &&
        s.iters.back().annotation == IterAnnotation::kNone) {
      stages.push_back(s.name());
    }
  }
  if (stages.empty()) {
    return State::Failure(dag_, "no stage to vectorize");
  }
  const std::string& stage = stages[rng->Index(stages.size())];
  int idx = state.StageIndex(stage);
  steps.push_back(MakeAnnotationStep(
      stage, static_cast<int>(state.stage(idx).iters.size()) - 1, IterAnnotation::kVectorize));
  return Normalized(State::Replay(dag_, steps));
}

State EvolutionarySearch::MutateComputeLocation(const State& state, Rng* rng) {
  std::vector<size_t> candidates;
  for (size_t i = 0; i < state.steps().size(); ++i) {
    if (state.steps()[i].kind == StepKind::kComputeAt) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    return State::Failure(dag_, "no compute_at step to mutate");
  }
  std::vector<Step> steps = state.steps();
  Step& step = steps[candidates[rng->Index(candidates.size())]];
  int target_idx = state.StageIndex(step.target_stage);
  if (target_idx < 0) {
    return State::Failure(dag_, "compute_at target missing");
  }
  int n_iters = static_cast<int>(state.stage(target_idx).iters.size());
  if (n_iters == 0) {
    return State::Failure(dag_, "compute_at target has no iterators");
  }
  step.target_iter = static_cast<int>(rng->Int(0, n_iters - 1));
  return Normalized(State::Replay(dag_, steps));
}

CrossoverScoreCache::StageScores EvolutionarySearch::ComputeStageScores(const State& s) {
  CrossoverScoreCache::StageScores scores;
  ProgramArtifactPtr artifact = options_.program_cache != nullptr
                                    ? options_.program_cache->GetOrBuild(s, options_.cache_client_id)
                                    : std::make_shared<const ProgramArtifact>(s);
  if (!artifact->ok()) {
    return scores;
  }
  // Honor and feed the same memo the hot path uses, so the public Crossover
  // also scores a parent at most once per cost-model version.
  if (auto memo = artifact->stage_scores(model_->model_id(), model_->version())) {
    return memo->scores;
  }
  AccumulateStageScores(model_->PredictStatements(artifact->features()),
                        artifact->row_stages(), &scores);
  auto scored = std::make_shared<ScoredStages>();
  scored->model_id = model_->model_id();
  scored->model_version = model_->version();
  scored->scores = scores;
  artifact->set_stage_scores(std::move(scored));
  return scores;
}

State EvolutionarySearch::Crossover(const State& a, const State& b, Rng* rng) {
  if (!SkeletonsMatch(a, b)) {
    return State::Failure(dag_, "crossover skeleton mismatch");
  }
  auto score_a = ComputeStageScores(a);
  auto score_b = ComputeStageScores(b);
  return Crossover(a, b, score_a, score_b, rng);
}

State EvolutionarySearch::Crossover(const State& a, const State& b,
                                    const CrossoverScoreCache::StageScores& score_a,
                                    const CrossoverScoreCache::StageScores& score_b,
                                    Rng* rng) {
  // Node-based crossover: the child adopts, per DAG node, the step parameters
  // of the parent whose node the cost model scores higher (with randomized
  // tie-breaking for exploration). Precondition: SkeletonsMatch(a, b) — every
  // caller checks it before paying for parent scores.
  const std::vector<Step>& sa = a.steps();
  const std::vector<Step>& sb = b.steps();

  std::unordered_map<std::string, bool> take_b;
  auto choose = [&](const std::string& stage) {
    auto it = take_b.find(stage);
    if (it != take_b.end()) {
      return it->second;
    }
    auto ita = score_a.find(stage);
    auto itb = score_b.find(stage);
    double va = ita != score_a.end() ? ita->second : 0.0;
    double vb = itb != score_b.end() ? itb->second : 0.0;
    // Prefer the higher-scoring parent, explore with probability 0.2.
    bool pick_b = vb > va;
    if (rng->Bernoulli(0.2)) {
      pick_b = !pick_b;
    }
    take_b[stage] = pick_b;
    return pick_b;
  };

  std::vector<Step> child;
  child.reserve(sa.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    child.push_back(choose(sa[i].stage) ? sb[i] : sa[i]);
  }
  // Replay verifies dependency consistency; invalid merges are discarded
  // ("Ansor further verifies the merged programs").
  return Normalized(State::Replay(dag_, child));
}

State EvolutionarySearch::RandomMutation(const State& state, Rng* rng) {
  switch (rng->Int(0, 4)) {
    case 0:
      return MutateTileSize(state, rng);
    case 1:
      return MutatePragma(state, rng);
    case 2:
      return MutateParallelGranularity(state, rng);
    case 3:
      return MutateVectorize(state, rng);
    default:
      return MutateComputeLocation(state, rng);
  }
}

std::vector<State> EvolutionarySearch::Evolve(const std::vector<State>& init, int num_out) {
  stats_ = EvolutionStats();
  const int verify_level = EffectiveVerifyLevel(options_.verify_level);
  ThreadPool& pool = ThreadPool::OrGlobal(options_.thread_pool);
  TraceSpan evo_span(options_.tracer, "evolution", "search");

  // Resolve the compiled-program cache: the search policy injects its
  // task-lifetime cache; standalone callers get a private per-call one so
  // each distinct program still compiles once.
  std::optional<ProgramCache> local_cache;
  ProgramCache* cache = options_.program_cache;
  if (cache == nullptr) {
    local_cache.emplace();
    cache = &*local_cache;
  }
  const ProgramCacheStats cache_before = cache->stats();

  std::vector<State> population;
  for (const State& s : init) {
    if (!s.failed()) {
      population.push_back(s);
    }
  }
  if (population.empty()) {
    return {};
  }

  // Best-so-far heap across all generations, deduplicated.
  std::vector<std::pair<double, State>> best;
  std::unordered_set<std::string> best_sigs;

  for (int gen = 0; gen <= options_.generations; ++gen) {
    TraceSpan gen_span(evo_span.enabled()
                           ? evo_span.child().WithGeneration(gen)
                           : Tracer(),
                       "generation", "search");
    Tracer gen_tracer = gen_span.child();
    const Tracer* gen_ptr = gen_span.enabled() ? &gen_tracer : nullptr;
    // Stage 1 (batched): resolve the whole population to ProgramArtifacts in
    // parallel — a cache hit serves the lowering + feature matrix compiled by
    // an earlier generation, round, or consumer — then score everything with
    // one batched model call over the borrowed feature matrices.
    const size_t pop = population.size();
    gen_span.Arg("count", static_cast<int64_t>(pop));
    std::vector<ProgramArtifactPtr> artifacts(pop);
    pool.ParallelFor(pop, [&](size_t i) {
      artifacts[i] = cache->GetOrBuild(population[i], options_.cache_client_id, gen_ptr);
    });
    std::vector<const FeatureMatrix*> feature_ptrs(pop);
    for (size_t i = 0; i < pop; ++i) {
      feature_ptrs[i] = &artifacts[i]->features();
    }
    std::vector<double> scores;
    {
      TraceSpan predict(gen_ptr, "model_predict", "costmodel");
      scores = model_->PredictBatch(feature_ptrs);
      predict.Arg("count", static_cast<int64_t>(pop));
    }

    // Admissibility: the state lowered (non-empty features) and, when static
    // verification is on, the verifier proved it legal. Rejected members can
    // never be selected as parents or returned, so they drop out of the next
    // population; the reports come stamped on the cached artifacts, so each
    // distinct program is verified once per task.
    std::vector<char> admissible(pop, 0);
    for (size_t i = 0; i < pop; ++i) {
      bool ok = !artifacts[i]->features().empty();
      if (verify_level >= 1 && !artifacts[i]->statically_legal()) {
        ok = false;
        ++stats_.statically_rejected;
      }
      admissible[i] = ok ? 1 : 0;
    }

    for (size_t i = 0; i < pop; ++i) {
      if (!admissible[i]) {
        continue;
      }
      if (best_sigs.insert(artifacts[i]->signature()).second) {
        best.emplace_back(scores[i], population[i]);
      }
    }
    std::sort(best.begin(), best.end(),
              [](const auto& x, const auto& y) { return x.first > y.first; });
    if (best.size() > static_cast<size_t>(2 * num_out)) {
      for (size_t i = static_cast<size_t>(2 * num_out); i < best.size(); ++i) {
        best_sigs.erase(StepSignature(best[i].second));
      }
      best.resize(static_cast<size_t>(2 * num_out));
    }
    if (gen == options_.generations) {
      break;
    }

    // Selection weights proportional to (shifted) fitness. Inadmissible
    // states (failed lowering / feature extraction, or statically illegal)
    // get zero weight: they can never be picked as parents.
    size_t n_valid = 0;
    double min_score = 0.0;
    for (size_t i = 0; i < pop; ++i) {
      if (!admissible[i]) {
        continue;
      }
      min_score = n_valid == 0 ? scores[i] : std::min(min_score, scores[i]);
      ++n_valid;
    }
    if (n_valid == 0) {
      break;
    }
    std::vector<double> weights(pop, 0.0);
    for (size_t i = 0; i < pop; ++i) {
      if (admissible[i]) {
        weights[i] = scores[i] - min_score + 1e-3;
      }
    }

    // Stage 2 (parallel waves): generate children on the pool. Slots are
    // planned serially — each forks its own RNG stream and draws its
    // operator and parents — so the result is independent of thread count;
    // workers then run the replay-heavy operators concurrently.
    CrossoverScoreCache score_cache(&artifacts, model_);
    struct Slot {
      Rng rng{0};
      bool crossover = false;
      bool dead = false;  // skeleton mismatch: fails without dispatching
      size_t pa = 0;
      size_t pb = 0;
    };
    std::vector<State> next;
    next.reserve(static_cast<size_t>(options_.population));
    int attempts = 0;
    int max_attempts = options_.population * 8;
    while (static_cast<int>(next.size()) < options_.population &&
           attempts < max_attempts) {
      size_t wave =
          std::min<size_t>(static_cast<size_t>(options_.population) - next.size(),
                           static_cast<size_t>(max_attempts - attempts));
      std::vector<Slot> slots(wave);
      for (Slot& slot : slots) {
        slot.rng = rng_.Fork();
        slot.crossover =
            slot.rng.Uniform() < options_.crossover_probability && n_valid >= 2;
        slot.pa = slot.rng.WeightedIndex(weights);
        if (slot.crossover) {
          slot.pb = slot.rng.WeightedIndex(weights);
          slot.dead = !SkeletonsMatch(population[slot.pa], population[slot.pb]);
          if (!slot.dead) {
            score_cache.Request(slot.pa);
            score_cache.Request(slot.pb);
          }
        }
      }
      {
        TraceSpan flush(gen_ptr, "model_predict", "costmodel");
        score_cache.Flush();
      }
      std::vector<State> children(wave, State());
      // Invariant mode: every accepted child is verified at construction
      // site, in the wave that produced it. A lowerable-but-illegal child
      // means a schedule primitive or operator built a broken state — worth a
      // diagnostic — while a lowering failure is a routine discard.
      std::vector<char> wave_rejected(wave, 0);
      std::vector<std::string> wave_diag(wave);
      pool.ParallelFor(wave, [&](size_t s) {
        Slot& slot = slots[s];
        if (slot.dead) {
          children[s] = State::Failure(dag_, "crossover skeleton mismatch");
        } else if (slot.crossover) {
          children[s] = Crossover(population[slot.pa], population[slot.pb],
                                  score_cache.Get(slot.pa), score_cache.Get(slot.pb),
                                  &slot.rng);
        } else {
          children[s] = RandomMutation(population[slot.pa], &slot.rng);
        }
        if (verify_level >= 2 && !children[s].failed()) {
          ProgramArtifactPtr artifact =
              cache->GetOrBuild(children[s], options_.cache_client_id, gen_ptr);
          if (!artifact->statically_legal()) {
            wave_rejected[s] = 1;
            if (artifact->ok()) {
              wave_diag[s] = artifact->verifier_report().ToString();
            }
          }
        }
      });
      for (size_t s = 0; s < wave; ++s) {
        ++attempts;
        ++stats_.child_attempts;
        if (wave_rejected[s]) {
          ++stats_.statically_rejected;
          if (!wave_diag[s].empty()) {
            LOG(WARNING) << "ANSOR_CHECK_INVARIANTS: discarding illegal child at construction "
                            "site:\n"
                         << wave_diag[s];
          }
          continue;
        }
        if (!children[s].failed() &&
            static_cast<int>(next.size()) < options_.population) {
          next.push_back(std::move(children[s]));
          ++stats_.children_generated;
        }
      }
    }
    stats_.crossover_score_hits += score_cache.hits();
    stats_.crossover_score_misses += score_cache.misses();
    if (next.empty()) {
      break;
    }
    population = std::move(next);
  }

  const ProgramCacheStats cache_after = cache->stats();
  stats_.program_cache_hits = cache_after.hits - cache_before.hits;
  stats_.program_cache_misses = cache_after.misses - cache_before.misses;
  stats_.program_cache_evictions = cache_after.evictions - cache_before.evictions;

  std::vector<State> out;
  for (const auto& [score, state] : best) {
    if (static_cast<int>(out.size()) >= num_out) {
      break;
    }
    out.push_back(state);
  }
  return out;
}

}  // namespace ansor

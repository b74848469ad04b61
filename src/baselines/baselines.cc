#include "src/baselines/baselines.h"

#include <algorithm>

#include "src/evolution/evolution.h"
#include "src/sampler/annotation.h"
#include "src/sketch/sketch.h"
#include "src/support/util.h"

namespace ansor {
namespace {

// Deterministically fills pending SplitSteps with the vendor library's FIXED
// blocking: `inner_cap` innermost, 4 at the next level. Real vendor kernels
// ship one blocking per ISA, not per shape — when the fixed size does not
// divide the extent the lowered code pays guard/remainder costs, which is
// exactly where shape-adaptive search wins (paper §7.1).
State FillTileSizesHeuristic(const State& sketch, const ComputeDAG* dag, int64_t inner_cap) {
  State state(dag);
  for (Step step : sketch.steps()) {
    if (step.kind == StepKind::kSplit) {
      int stage_idx = state.StageIndex(step.stage);
      if (stage_idx < 0) {
        return state;
      }
      int64_t remaining =
          state.stage(stage_idx).iters[static_cast<size_t>(step.iter)].extent;
      for (size_t j = step.lengths.size(); j > 0; --j) {
        int64_t cap = j == step.lengths.size() ? inner_cap : 4;
        int64_t pick = std::min(cap, remaining);
        step.lengths[j - 1] = pick;
        remaining = std::max<int64_t>(1, remaining / pick);
      }
      if (!state.Split(step.stage, step.iter, step.lengths)) {
        return state;
      }
      continue;
    }
    switch (step.kind) {
      case StepKind::kFollowSplit:
        if (!state.FollowSplit(step.stage, step.iter, step.src_step, step.n_parts))
          return state;
        break;
      case StepKind::kFuse:
        if (!state.Fuse(step.stage, step.iter, step.fuse_count)) return state;
        break;
      case StepKind::kReorder:
        if (!state.Reorder(step.stage, step.order)) return state;
        break;
      case StepKind::kComputeAt:
        if (!state.ComputeAt(step.stage, step.target_stage, step.target_iter)) return state;
        break;
      case StepKind::kComputeInline:
        if (!state.ComputeInline(step.stage)) return state;
        break;
      case StepKind::kComputeRoot:
        if (!state.ComputeRoot(step.stage)) return state;
        break;
      case StepKind::kCacheWrite:
        if (!state.CacheWrite(step.stage, nullptr)) return state;
        break;
      case StepKind::kRfactor:
        if (!state.Rfactor(step.stage, step.iter, nullptr)) return state;
        break;
      case StepKind::kAnnotation:
        if (!state.Annotate(step.stage, step.iter, step.annotation)) return state;
        break;
      case StepKind::kPragma:
        if (!state.Pragma(step.stage, step.pragma_value)) return state;
        break;
      case StepKind::kSplit:
        break;
    }
  }
  return state;
}

// Deterministic expert annotation. CPU: fuse+parallel outer space loops of
// every root stage, vectorize the innermost loop, unroll pragma 16. GPU:
// fuse all outer space loops, split off 256 threads, bind block/thread.
void AnnotateExpert(State* state, bool gpu) {
  std::vector<std::pair<std::string, bool>> stages;
  for (const Stage& s : state->stages()) {
    if (s.loc.kind == ComputeLocKind::kInlined) {
      continue;
    }
    stages.emplace_back(s.name(), s.loc.kind == ComputeLocKind::kRoot);
  }
  for (const auto& [name, is_root] : stages) {
    int idx = state->StageIndex(name);
    const Stage& snapshot = state->stage(idx);
    if (is_root) {
      int leading = 0;
      for (const Iterator& it : snapshot.iters) {
        if (it.kind != IterKind::kSpace) {
          break;
        }
        ++leading;
      }
      if (gpu) {
        // GPU kernel: fuse everything, peel 256 threads, bind.
        if (leading > 1) {
          state->Fuse(name, 0, leading);
        }
        if (leading >= 1) {
          int idx_now = state->StageIndex(name);
          int64_t fused = state->stage(idx_now).iters[0].extent;
          if (fused % 256 == 0) {
            state->Split(name, 0, {256});
            state->Annotate(name, 0, IterAnnotation::kBlockX);
            state->Annotate(name, 1, IterAnnotation::kThreadX);
          } else {
            state->Annotate(name, 0, IterAnnotation::kBlockX);
          }
        }
      } else {
        // Fuse enough leading space loops to feed all cores (vendor kernels
        // parallelize aggressively over batch/channel/row dimensions).
        int n_fuse = 0;
        int64_t extent = 1;
        while (n_fuse < leading && extent < 256) {
          extent *= snapshot.iters[static_cast<size_t>(n_fuse)].extent;
          ++n_fuse;
        }
        if (n_fuse > 1) {
          state->Fuse(name, 0, n_fuse);
        }
        if (n_fuse >= 1) {
          state->Annotate(name, 0, IterAnnotation::kParallel);
        }
      }
    }
    idx = state->StageIndex(name);
    const Stage& current = state->stage(idx);
    if (!gpu && !current.iters.empty()) {
      int last = static_cast<int>(current.iters.size()) - 1;
      if (current.iters[static_cast<size_t>(last)].annotation == IterAnnotation::kNone &&
          current.iters[static_cast<size_t>(last)].extent >= 2) {
        state->Annotate(name, last, IterAnnotation::kVectorize);
      }
    }
    if (HasReduce(state->stage(state->StageIndex(name)).op->body)) {
      state->Pragma(name, 16);
    }
  }
}

}  // namespace

TuneResult VendorLibrary(const SearchTask& task, Measurer* measurer) {
  TuneResult result;
  SketchOptions sketch_options;
  auto sketches = GenerateSketches(task.dag.get(), sketch_options);
  // The library ships a few fixed kernels (different register blockings);
  // pick the best of a small fixed set — no shape-specific search.
  for (const State& sketch : sketches) {
    for (int64_t inner_cap : {8, 16}) {
      State state = FillTileSizesHeuristic(sketch, task.dag.get(), inner_cap);
      if (state.failed()) {
        continue;
      }
      AnnotateExpert(&state, measurer->machine().kind == MachineKind::kGpu);
      if (state.failed()) {
        continue;
      }
      MeasureResult r = measurer->Measure(state);
      if (r.valid && r.seconds < result.best_seconds) {
        result.best_seconds = r.seconds;
        result.best_throughput = r.throughput;
        result.best_state = state;
        result.best_state->RetainDag(task.dag);
      }
    }
  }
  return result;
}

TuneResult TemplateSearch(const SearchTask& task, Measurer* measurer,
                          int num_measure_trials, TemplateSearchOptions options) {
  TuneResult result;
  SketchOptions sketch_options;
  sketch_options.enable_fusion = options.enable_fusion;
  sketch_options.enable_cache_write = false;  // manual templates lack rule 5
  sketch_options.enable_rfactor = false;      // ... and rule 6 (§7.1 NRM case)
  sketch_options.space_levels = options.space_levels;
  sketch_options.reduce_levels = options.reduce_levels;
  auto sketches = GenerateSketches(task.dag.get(), sketch_options);
  if (sketches.empty()) {
    return result;
  }
  Rng rng(options.seed ^ task.task_id());
  SamplerOptions sampler;
  // Fixed unrolling policy; no random compute-location changes (the paper's
  // stated FlexTensor/AutoTVM limitations).
  sampler.gpu = options.gpu;
  sampler.unroll_options = {options.fixed_unroll};
  sampler.location_tweak_probability = 0.0;

  int64_t trials = 0;
  std::vector<std::pair<double, State>> pool;  // measured (seconds, state)
  while (trials < num_measure_trials) {
    std::vector<State> batch;
    int want = static_cast<int>(
        std::min<int64_t>(options.measures_per_round, num_measure_trials - trials));
    // Half random template instantiations, half hill-climbing mutations of
    // the best known configurations (simulated-annealing flavor).
    int attempts = 0;
    while (static_cast<int>(batch.size()) < want && attempts < want * 8) {
      ++attempts;
      if (!pool.empty() && rng.Bernoulli(0.5)) {
        // Tile-size mutation of a good configuration.
        RandomCostModel dummy;
        EvolutionOptions evo;
        evo.sampler = sampler;
        Rng mutation_rng = rng.Fork();
        EvolutionarySearch es(task.dag.get(), &dummy, Rng(), evo);
        size_t pick = rng.Index(std::min<size_t>(pool.size(), 4));
        State mutated = es.MutateTileSize(pool[pick].second, &mutation_rng);
        if (!mutated.failed()) {
          batch.push_back(std::move(mutated));
        }
      } else {
        State s = SampleCompleteProgram(sketches[rng.Index(sketches.size())],
                                        task.dag.get(), &rng, sampler);
        if (!s.failed()) {
          batch.push_back(std::move(s));
        }
      }
    }
    if (batch.empty()) {
      break;
    }
    std::vector<MeasureResult> results = measurer->SubmitBatch(batch).Wait();
    trials += static_cast<int64_t>(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!results[i].valid) {
        continue;
      }
      pool.emplace_back(results[i].seconds, batch[i]);
      if (results[i].seconds < result.best_seconds) {
        result.best_seconds = results[i].seconds;
        result.best_throughput = results[i].throughput;
        result.best_state = batch[i];
        result.best_state->RetainDag(task.dag);
      }
    }
    std::sort(pool.begin(), pool.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    if (pool.size() > 8) {
      pool.resize(8);
    }
    result.history.emplace_back(trials, result.best_seconds);
  }
  return result;
}

TuneResult BeamSearch(const SearchTask& task, Measurer* measurer, CostModel* model,
                      int num_measure_trials, BeamSearchOptions options) {
  TuneResult result;
  Rng rng(options.seed ^ task.task_id());

  std::vector<SketchRule> rules = {RuleAlwaysInline(), RuleAddRfactor(),
                                   RuleMultiLevelTilingWithFusion(), RuleAddCacheStage(),
                                   RuleMultiLevelTiling(), RuleSkip()};

  int64_t trials = 0;
  while (trials < num_measure_trials) {
    // One pass of sequential construction over the DAG nodes.
    State init(task.dag.get());
    int last = static_cast<int>(init.stages().size()) - 1;
    std::vector<std::pair<State, int>> beam;
    beam.emplace_back(std::move(init), last);

    bool active = true;
    while (active) {
      active = false;
      std::vector<std::pair<State, int>> expanded;
      for (auto& [state, i] : beam) {
        if (i < 0) {
          expanded.emplace_back(std::move(state), i);
          continue;
        }
        active = true;
        for (const SketchRule& rule : rules) {
          if (!rule.condition(state, i, AnalysisConfig())) {
            continue;
          }
          for (auto& [next, next_i] : rule.apply(state, i)) {
            // Make the decisions for this node concrete immediately: sample
            // tile sizes for the freshly added pending splits.
            for (int e = 0; e < options.expansions_per_state; ++e) {
              State filled = SampleTileSizes(next, task.dag.get(), &rng, options.sampler);
              if (!filled.failed()) {
                expanded.emplace_back(std::move(filled), next_i);
              }
            }
          }
          if (rule.exclusive) {
            break;
          }
        }
      }
      if (expanded.empty()) {
        break;
      }
      // Prune incomplete programs with the cost model (the paper's §2
      // failure mode: the model was trained on complete programs only).
      std::vector<FeatureMatrix> features(expanded.size());
      for (size_t e = 0; e < expanded.size(); ++e) {
        features[e] = ExtractStateFeatures(expanded[e].first);
      }
      std::vector<double> scores = model->Predict(features);
      std::vector<size_t> order(expanded.size());
      for (size_t e = 0; e < order.size(); ++e) {
        order[e] = e;
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) { return scores[a] > scores[b]; });
      std::vector<std::pair<State, int>> pruned;
      for (size_t e = 0; e < order.size() &&
                         pruned.size() < static_cast<size_t>(options.beam_width);
           ++e) {
        pruned.push_back(std::move(expanded[order[e]]));
      }
      beam = std::move(pruned);
    }

    // Annotate survivors, measure, train the model on the completed programs.
    std::vector<State> to_measure;
    for (auto& [state, i] : beam) {
      State annotated = state;
      AnnotateState(&annotated, &rng, options.sampler);
      if (!annotated.failed()) {
        to_measure.push_back(std::move(annotated));
      }
      if (static_cast<int>(to_measure.size()) >=
          static_cast<int>(std::min<int64_t>(options.measures_per_round,
                                             num_measure_trials - trials))) {
        break;
      }
    }
    if (to_measure.empty()) {
      break;
    }
    std::vector<MeasureResult> results = measurer->SubmitBatch(to_measure).Wait();
    trials += static_cast<int64_t>(to_measure.size());
    std::vector<FeatureMatrix> features(to_measure.size());
    std::vector<double> throughputs(to_measure.size(), 0.0);
    for (size_t i = 0; i < to_measure.size(); ++i) {
      features[i] = ExtractStateFeatures(to_measure[i]);
      if (results[i].valid) {
        throughputs[i] = results[i].throughput;
        if (results[i].seconds < result.best_seconds) {
          result.best_seconds = results[i].seconds;
          result.best_throughput = results[i].throughput;
          result.best_state = to_measure[i];
          result.best_state->RetainDag(task.dag);
        }
      }
    }
    model->Update(task.task_id(), features, throughputs);
    result.history.emplace_back(trials, result.best_seconds);
  }
  return result;
}

}  // namespace ansor

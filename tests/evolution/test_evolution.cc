#include <gtest/gtest.h>

#include "src/evolution/evolution.h"
#include "src/hwsim/measurer.h"
#include "src/exec/interpreter.h"
#include "src/sketch/sketch.h"
#include "tests/testing.h"

namespace ansor {
namespace {

std::vector<State> InitPopulation(const ComputeDAG* dag, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<State> init = SampleLowerablePopulation(dag, count, &rng);
  EXPECT_EQ(init.size(), static_cast<size_t>(count));
  return init;
}

TEST(Evolution, TileSizeMutationPreservesProductAndSemantics) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 4, 1);
  RandomCostModel model(1);
  Rng rng(2);
  EvolutionarySearch es(&dag, &model, rng);
  int mutated_ok = 0;
  for (const State& parent : init) {
    for (int trial = 0; trial < 5; ++trial) {
      State child = es.MutateTileSize(parent, &rng);
      if (child.failed()) {
        continue;
      }
      ++mutated_ok;
      EXPECT_EQ(VerifyAgainstNaive(child), "") << child.ToString();
    }
  }
  EXPECT_GT(mutated_ok, 10);
}

TEST(Evolution, PragmaMutationChangesValue) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 8, 3);
  RandomCostModel model(1);
  Rng rng(4);
  EvolutionarySearch es(&dag, &model, rng);
  bool changed = false;
  for (const State& parent : init) {
    State child = es.MutatePragma(parent, &rng);
    if (child.failed()) {
      continue;
    }
    // Same steps except possibly a pragma value.
    ASSERT_EQ(child.steps().size(), parent.steps().size());
    for (size_t i = 0; i < child.steps().size(); ++i) {
      if (child.steps()[i].kind == StepKind::kPragma &&
          child.steps()[i].pragma_value != parent.steps()[i].pragma_value) {
        changed = true;
      }
    }
  }
  EXPECT_TRUE(changed);
}

TEST(Evolution, VectorizeMutationTogglesAnnotation) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 4, 5);
  RandomCostModel model(1);
  Rng rng(6);
  EvolutionarySearch es(&dag, &model, rng);
  int ok = 0;
  for (const State& parent : init) {
    for (int t = 0; t < 4; ++t) {
      State child = es.MutateVectorize(parent, &rng);
      if (!child.failed()) {
        ++ok;
        EXPECT_EQ(VerifyAgainstNaive(child), "");
      }
    }
  }
  EXPECT_GT(ok, 4);
}

TEST(Evolution, ComputeLocationMutationVerifies) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 6, 7);
  RandomCostModel model(1);
  Rng rng(8);
  EvolutionarySearch es(&dag, &model, rng);
  int ok = 0;
  for (const State& parent : init) {
    State child = es.MutateComputeLocation(parent, &rng);
    if (child.failed() || !Lower(child).ok) {
      continue;  // unsupported placements are rejected downstream
    }
    EXPECT_EQ(VerifyAgainstNaive(child), "") << child.ToString();
    ++ok;
  }
  EXPECT_GT(ok, 0);
}

TEST(Evolution, CrossoverMergesAndVerifies) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto sketches = GenerateSketches(&dag);
  Rng rng(9);
  // Parents sampled from the SAME sketch so skeletons match.
  const State& sketch = sketches[0];
  std::vector<State> parents;
  while (parents.size() < 2) {
    State s = SampleCompleteProgram(sketch, &dag, &rng);
    if (!s.failed() && Lower(s).ok && !s.steps().empty()) {
      // Crossover requires matching step skeletons.
      if (parents.empty() || s.steps().size() == parents[0].steps().size()) {
        parents.push_back(std::move(s));
      }
    }
  }
  RandomCostModel model(1);
  Rng crossover_rng(10);
  EvolutionarySearch es(&dag, &model, crossover_rng);
  int ok = 0;
  for (int t = 0; t < 10; ++t) {
    State child = es.Crossover(parents[0], parents[1], &crossover_rng);
    if (child.failed() || !Lower(child).ok) {
      continue;
    }
    EXPECT_EQ(VerifyAgainstNaive(child), "") << child.ToString();
    ++ok;
  }
  EXPECT_GT(ok, 5);
}

TEST(Evolution, CrossoverRejectsMismatchedSkeletons) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  auto sketches = GenerateSketches(&dag);
  ASSERT_GE(sketches.size(), 2u);
  Rng rng(11);
  State a = SampleCompleteProgram(sketches[0], &dag, &rng);
  State b = SampleCompleteProgram(sketches[1], &dag, &rng);
  if (a.failed() || b.failed() || a.steps().size() == b.steps().size()) {
    GTEST_SKIP() << "could not construct mismatched parents";
  }
  RandomCostModel model(1);
  Rng crossover_rng(12);
  EvolutionarySearch es(&dag, &model, crossover_rng);
  State child = es.Crossover(a, b, &crossover_rng);
  EXPECT_TRUE(child.failed());
}

TEST(Evolution, EvolveImprovesPredictedFitness) {
  // With a cost model that prefers programs whose innermost loops are
  // vectorized, evolution should enrich the population accordingly. We use
  // the GBDT model trained on simulator data for realism.
  ComputeDAG dag = testing::Matmul(64, 64, 64);
  auto init = InitPopulation(&dag, 16, 13);

  // Train the model on the initial population's simulated throughput.
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<FeatureMatrix> features;
  std::vector<double> throughputs;
  for (const State& s : init) {
    features.push_back(ExtractStateFeatures(s));
    MeasureResult r = measurer.Measure(s);
    throughputs.push_back(r.valid ? r.throughput : 0.0);
  }
  model.Update(dag.CanonicalHash(), features, throughputs);

  EvolutionOptions options;
  options.population = 32;
  options.generations = 3;
  EvolutionarySearch es(&dag, &model, Rng(14), options);
  auto best = es.Evolve(init, 8);
  ASSERT_FALSE(best.empty());

  // The evolved best (by prediction) should measure at least as fast as the
  // median of the initial random population.
  std::vector<double> init_seconds;
  for (const State& s : init) {
    init_seconds.push_back(measurer.Measure(s).seconds);
  }
  double evolved_best = 1e30;
  for (const State& s : best) {
    MeasureResult r = measurer.Measure(s);
    if (r.valid) {
      evolved_best = std::min(evolved_best, r.seconds);
    }
  }
  std::sort(init_seconds.begin(), init_seconds.end());
  EXPECT_LT(evolved_best, init_seconds[init_seconds.size() / 2] * 1.05);
}

TEST(Evolution, FailedMutationsNormalizeToEmptyStepHistory) {
  // Regression: a mid-replay failure used to return the partially-replayed
  // state. Any failed result must be the canonical State::Failure with an
  // empty step history, so partial states can never leak into a population.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 6, 21);
  RandomCostModel model(1);
  Rng rng(22);
  EvolutionarySearch es(&dag, &model, rng);
  for (const State& parent : init) {
    for (int t = 0; t < 8; ++t) {
      for (const State& child :
           {es.MutateTileSize(parent, &rng), es.MutatePragma(parent, &rng),
            es.MutateParallelGranularity(parent, &rng), es.MutateVectorize(parent, &rng),
            es.MutateComputeLocation(parent, &rng), es.Crossover(parent, init[0], &rng)}) {
        if (child.failed()) {
          EXPECT_TRUE(child.steps().empty()) << child.error();
          EXPECT_FALSE(child.error().empty());
        }
      }
    }
  }
}

TEST(Evolution, ReplayWithSplitEditNormalizesMidReplayFailure) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  RandomCostModel model(1);
  EvolutionarySearch es(&dag, &model, Rng(23));
  // Valid split, then a fuse whose range is out of bounds: the replay fails
  // on the second step and must not return the one-step partial state.
  std::vector<Step> steps;
  steps.push_back(MakeSplitStep("C", 0, {4}));
  steps.push_back(MakeFuseStep("C", 5, 3));
  State result = es.ReplayWithSplitEdit(
      steps, [](size_t, int64_t, std::vector<int64_t>*) {});
  EXPECT_TRUE(result.failed());
  EXPECT_TRUE(result.steps().empty());
  EXPECT_FALSE(result.error().empty());
}

TEST(Evolution, UnlowerableStatesGetNoSelectionWeight) {
  // Regression: states whose lowering/feature extraction fails used to keep
  // selection weight and could be picked as parents. With the fix, a
  // population of only unlowerable states terminates without generating a
  // single child.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  // Valid step application (C is a real stage, iterator 0 exists) whose
  // lowering fails: C does not read D, so compute_at cannot be lowered.
  State bad(&dag);
  ASSERT_TRUE(bad.ComputeAt("D", "C", 0));
  ASSERT_FALSE(bad.failed());
  ASSERT_FALSE(Lower(bad).ok);

  RandomCostModel model(1);
  EvolutionOptions options;
  options.population = 8;
  options.generations = 2;
  EvolutionarySearch es(&dag, &model, Rng(24), options);
  auto best = es.Evolve({bad, bad, bad, bad}, 4);
  EXPECT_TRUE(best.empty());
  EXPECT_EQ(es.stats().child_attempts, 0);
}

TEST(Evolution, EvolveDeterministicAcrossThreadCounts) {
  // Same seed => bit-identical populations and stats whether child generation
  // runs on one thread or four (per-slot forked RNG streams).
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 8, 25);
  ThreadPool pool1(1);
  ThreadPool pool4(4);

  auto run = [&](ThreadPool* pool) {
    RandomCostModel model(7);
    EvolutionOptions options;
    options.population = 16;
    options.generations = 3;
    options.thread_pool = pool;
    EvolutionarySearch es(&dag, &model, Rng(26), options);
    auto best = es.Evolve(init, 6);
    std::vector<std::string> sigs;
    for (const State& s : best) {
      sigs.push_back(StepSignature(s));
    }
    return std::make_pair(sigs, es.stats());
  };

  auto [sigs1, stats1] = run(&pool1);
  auto [sigs4, stats4] = run(&pool4);
  EXPECT_EQ(sigs1, sigs4);
  EXPECT_GT(stats1.children_generated, 0);
  EXPECT_EQ(stats1.children_generated, stats4.children_generated);
  EXPECT_EQ(stats1.child_attempts, stats4.child_attempts);
  EXPECT_EQ(stats1.crossover_score_hits, stats4.crossover_score_hits);
  EXPECT_EQ(stats1.crossover_score_misses, stats4.crossover_score_misses);
}

TEST(Evolution, CrossoverScoreCacheScoresEachMemberOnce) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 2, 27);

  std::vector<ProgramArtifactPtr> artifacts;
  for (const State& s : init) {
    artifacts.push_back(std::make_shared<const ProgramArtifact>(s));
    ASSERT_TRUE(artifacts.back()->ok());
    ASSERT_FALSE(artifacts.back()->features().empty());
  }

  // Two identically seeded models: the cache must produce exactly the scores
  // direct per-program scoring would.
  RandomCostModel cache_model(5);
  RandomCostModel direct_model(5);
  CrossoverScoreCache cache(&artifacts, &cache_model);

  cache.Request(0);
  cache.Request(0);  // second request of a queued member is a hit
  cache.Request(1);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 1);
  cache.Flush();

  for (size_t i = 0; i < init.size(); ++i) {
    std::unordered_map<std::string, double> expect;
    auto preds = direct_model.PredictStatements(artifacts[i]->features());
    for (size_t r = 0; r < preds.size(); ++r) {
      expect[artifacts[i]->row_stages()[r]] += preds[r];
    }
    EXPECT_EQ(cache.Get(i), expect);
  }

  cache.Request(1);  // already computed: a hit, no new model call
  cache.Flush();
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 2);

  // The memos live on the artifacts: a fresh cache over the same artifacts
  // (a later generation or round) starts with hits, not misses.
  CrossoverScoreCache second(&artifacts, &cache_model);
  second.Request(0);
  second.Request(1);
  EXPECT_EQ(second.hits(), 2);
  EXPECT_EQ(second.misses(), 0);
  EXPECT_EQ(second.Get(0), cache.Get(0));
}

TEST(Evolution, CrossoverScoreMemoInvalidatedByModelUpdate) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 2, 28);
  std::vector<ProgramArtifactPtr> artifacts;
  for (const State& s : init) {
    artifacts.push_back(std::make_shared<const ProgramArtifact>(s));
  }

  GbdtCostModel model;
  {
    CrossoverScoreCache cache(&artifacts, &model);
    cache.Request(0);
    cache.Flush();
    EXPECT_EQ(cache.misses(), 1);
  }
  {
    // Same model version: the memo survives.
    CrossoverScoreCache cache(&artifacts, &model);
    cache.Request(0);
    EXPECT_EQ(cache.hits(), 1);
  }
  // Retraining bumps the model version, so stale memos read as absent.
  Measurer measurer(MachineModel::IntelCpu20Core());
  model.Update(dag.CanonicalHash(), {artifacts[0]->features()},
               {measurer.Measure(init[0]).throughput});
  {
    CrossoverScoreCache cache(&artifacts, &model);
    cache.Request(0);
    EXPECT_EQ(cache.misses(), 1);
    cache.Flush();  // recomputes under the new version
  }
  // A different model instance never matches another model's memo, even at
  // an equal version number.
  GbdtCostModel other;
  CrossoverScoreCache cache(&artifacts, &other);
  cache.Request(1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(Evolution, EvolveReportsCacheStats) {
  ComputeDAG dag = testing::Matmul(32, 32, 32);
  auto init = InitPopulation(&dag, 8, 29);
  RandomCostModel model(3);
  EvolutionOptions options;
  options.population = 24;
  options.generations = 2;
  options.crossover_probability = 1.0;  // crossover-only: exercise the cache
  EvolutionarySearch es(&dag, &model, Rng(30), options);
  es.Evolve(init, 4);
  const EvolutionStats& stats = es.stats();
  EXPECT_GT(stats.child_attempts, 0);
  // Each compatible crossover makes exactly two parent requests, and misses
  // are bounded by one scoring per population member per generation.
  EXPECT_EQ((stats.crossover_score_hits + stats.crossover_score_misses) % 2, 0);
  EXPECT_LE(stats.crossover_score_misses,
            static_cast<int64_t>(options.population + 8) * options.generations);
  // Population scoring went through the (per-call) ProgramCache: at minimum
  // every generation's population resolution is counted.
  EXPECT_GT(stats.program_cache_hits + stats.program_cache_misses, 0);
}

TEST(Evolution, EvolveReturnsDistinctStates) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto init = InitPopulation(&dag, 8, 15);
  RandomCostModel model(3);
  EvolutionOptions options;
  options.population = 16;
  options.generations = 2;
  EvolutionarySearch es(&dag, &model, Rng(16), options);
  auto best = es.Evolve(init, 6);
  std::set<std::string> sigs;
  for (const State& s : best) {
    EXPECT_TRUE(sigs.insert(StepSignature(s)).second);
  }
}

}  // namespace
}  // namespace ansor

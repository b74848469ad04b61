#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <unordered_map>

#include "src/baselines/baselines.h"
#include "src/exec/interpreter.h"
#include "src/search/search_policy.h"
#include "src/workloads/operators.h"
#include "tests/testing.h"

namespace ansor {
namespace {

SearchTask MakeTask(ComputeDAG dag, const std::string& name = "t") {
  return MakeSearchTask(name, std::move(dag));
}


TEST(SearchPolicy, TuneFindsValidProgram) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  SearchTask task = MakeTask(testing::Matmul(64, 64, 64));
  SearchOptions options = testing::SmallSearchOptions();
  TuneResult result = TuneTask(task, &measurer, &model, /*trials=*/32, 16, options);
  ASSERT_TRUE(result.best_state.has_value());
  EXPECT_GT(result.best_throughput, 0.0);
  EXPECT_LT(result.best_seconds, 1.0);
  EXPECT_FALSE(result.history.empty());
}

TEST(SearchPolicy, TuneTaskHistoryGolden) {
  // Fixed-seed (trials, best seconds) history pinned bit for bit. 45 trials in
  // rounds of 8 ends on a short batch of 5.
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  SearchTask task = MakeTask(testing::Matmul(64, 64, 64));
  TuneResult result = TuneTask(task, &measurer, &model, /*trials=*/45,
                               /*measures_per_round=*/8, testing::SmallSearchOptions());
  const std::vector<std::pair<int64_t, double>> golden = {
      {8, 0x1.777a24d9e0864p-15},  {16, 0x1.777a24d9e0864p-15},
      {24, 0x1.777a24d9e0864p-15}, {32, 0x1.fc4ddefff1c25p-16},
      {40, 0x1.fc4ddefff1c25p-16}, {45, 0x1.fc4ddefff1c25p-16}};
  EXPECT_EQ(result.history, golden);
  EXPECT_EQ(result.best_seconds, 0x1.fc4ddefff1c25p-16);
  EXPECT_EQ(measurer.trial_count(), 45);
}

TEST(SearchPolicy, SearchImprovesOverRounds) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  SearchTask task = MakeTask(testing::Matmul(128, 128, 128));
  SearchOptions options = testing::SmallSearchOptions();
  TaskTuner tuner(task, &measurer, &model, options);
  double first = tuner.TuneRound(12);
  for (int r = 0; r < 4; ++r) {
    tuner.TuneRound(12);
  }
  double last = tuner.best_seconds();
  EXPECT_LE(last, first);  // best-so-far is monotone
  EXPECT_EQ(tuner.history().size(), 5u);
  EXPECT_GE(tuner.total_measures(), 48);
}

TEST(SearchPolicy, FineTuningBeatsRandomOnSameBudget) {
  // Fig. 7 "No fine-tuning" ablation: with the same trial budget, evolution +
  // learned model should find at least as good a program as random sampling.
  // Budget 48 (not 32): below that the comparison is decided by seed luck —
  // at 32 trials roughly 3 of 10 seeds fail the 10%-slack assertion, at 48
  // all pass, so the test checks the algorithm rather than one trajectory.
  SearchTask task = MakeTask(MakeConv2d(4, 64, 14, 14, 64, 3, 3, 1, 1));
  int budget = 48;

  Measurer m1(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  SearchOptions tuned = testing::SmallSearchOptions();
  TuneResult with_tuning = TuneTask(task, &m1, &model, budget, 16, tuned);

  Measurer m2(MachineModel::IntelCpu20Core());
  GbdtCostModel dummy;
  SearchOptions random_only = tuned;
  random_only.enable_fine_tuning = false;
  TuneResult random_result = TuneTask(task, &m2, &dummy, budget, 16, random_only);

  ASSERT_TRUE(with_tuning.best_state.has_value());
  ASSERT_TRUE(random_result.best_state.has_value());
  EXPECT_LE(with_tuning.best_seconds, random_result.best_seconds * 1.10);
}

TEST(SearchPolicy, InvalidMeasurementsAreNotBlacklisted) {
  // Regression: TuneRound used to record a candidate's signature before
  // measuring, so one transient invalid measurement permanently blacklisted
  // the program. Inject failures for every measurement of round one: nothing
  // may enter the measured-signature set, and after the transient condition
  // clears, the same programs must be measurable again.
  bool fail_all = true;
  MeasureOptions mopts;
  mopts.fail_injector = [&fail_all](const State&) { return fail_all; };
  Measurer measurer(MachineModel::IntelCpu20Core(), mopts);
  GbdtCostModel model;
  SearchTask task = MakeTask(testing::Matmul(16, 16, 16));
  TaskTuner tuner(task, &measurer, &model, testing::SmallSearchOptions());

  tuner.TuneRound(8);
  int64_t first = tuner.total_measures();
  EXPECT_GT(first, 0);
  EXPECT_EQ(tuner.invalid_measures(), first);  // every trial failed...
  EXPECT_EQ(tuner.measured_signature_count(), 0u);  // ...and none is blacklisted
  EXPECT_TRUE(std::isinf(tuner.best_seconds()));
  // Transient failures must not become zero-throughput training samples.
  EXPECT_EQ(model.num_samples(), 0u);

  fail_all = false;  // the transient condition clears
  tuner.TuneRound(8);
  EXPECT_GT(tuner.total_measures(), first);
  EXPECT_GT(tuner.measured_signature_count(), 0u);
  EXPECT_TRUE(std::isfinite(tuner.best_seconds()));
}

TEST(SearchPolicy, DeterministicallyInvalidProgramsStopConsumingBudget) {
  // A program that always fails measurement must not leak one trial per round
  // forever: after max_invalid_measures failed attempts its signature is
  // blacklisted like a measured program. The injector fails everything and
  // records how often each program is measured.
  std::mutex mu;  // SubmitBatch calls the injector from pool threads
  std::unordered_map<std::string, int> measured_count;
  MeasureOptions mopts;
  mopts.fail_injector = [&](const State& s) {
    std::lock_guard<std::mutex> lock(mu);
    measured_count[StepSignature(s)] += 1;
    return true;
  };
  Measurer measurer(MachineModel::IntelCpu20Core(), mopts);
  GbdtCostModel model;
  SearchTask task = MakeTask(testing::Matmul(16, 16, 16));
  SearchOptions options = testing::SmallSearchOptions();
  // Threshold 1: the first failure already confirms the program as
  // deterministically bad, so every program is measured at most once and
  // trains a zero-throughput sample.
  options.max_invalid_measures = 1;
  TaskTuner tuner(task, &measurer, &model, options);
  for (int round = 0; round < 6; ++round) {
    tuner.TuneRound(8);
  }
  EXPECT_GT(tuner.invalid_measures(), 0);
  for (const auto& [sig, count] : measured_count) {
    EXPECT_LE(count, options.max_invalid_measures) << sig;
  }
  // Confirmed-deterministic failures (those that hit the threshold) DO train
  // zero-throughput samples so the model learns to avoid their family.
  EXPECT_GT(model.num_samples(), 0u);
}

TEST(SearchPolicy, ValidMeasurementsAreRecordedOnce) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  SearchTask task = MakeTask(testing::Matmul(16, 16, 16));
  TaskTuner tuner(task, &measurer, &model, testing::SmallSearchOptions());
  tuner.TuneRound(8);
  EXPECT_GT(tuner.measured_signature_count(), 0u);
  EXPECT_LE(static_cast<int64_t>(tuner.measured_signature_count()),
            tuner.total_measures() - tuner.invalid_measures());
}

TEST(SearchPolicy, HistoryInvariantToThreadCount) {
  // Same SearchOptions::seed must yield a bit-identical TuneResult whether
  // the whole round (evolution, feature extraction, batch measurement) runs
  // on a 1-thread or a 4-thread pool.
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  auto run = [&](ThreadPool* pool) {
    MeasureOptions mopts;
    mopts.thread_pool = pool;
    Measurer measurer(MachineModel::IntelCpu20Core(), mopts);
    GbdtCostModel model;
    SearchTask task = MakeTask(testing::Matmul(64, 64, 64));
    SearchOptions options = testing::SmallSearchOptions();
    options.thread_pool = pool;
    return TuneTask(task, &measurer, &model, /*trials=*/32, 16, options);
  };
  TuneResult r1 = run(&pool1);
  TuneResult r4 = run(&pool4);
  ASSERT_EQ(r1.history.size(), r4.history.size());
  for (size_t i = 0; i < r1.history.size(); ++i) {
    EXPECT_EQ(r1.history[i].first, r4.history[i].first);
    EXPECT_EQ(r1.history[i].second, r4.history[i].second);  // bit-identical
  }
  EXPECT_EQ(r1.best_seconds, r4.best_seconds);
  ASSERT_TRUE(r1.best_state.has_value() && r4.best_state.has_value());
  EXPECT_EQ(StepSignature(*r1.best_state), StepSignature(*r4.best_state));
}

TEST(SearchPolicy, BestStateVerifiesSemantics) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  SearchTask task = MakeTask(testing::MatmulRelu(16, 16, 16));
  SearchOptions options = testing::SmallSearchOptions();
  TuneResult result = TuneTask(task, &measurer, &model, 24, 16, options);
  ASSERT_TRUE(result.best_state.has_value());
  EXPECT_EQ(VerifyAgainstNaive(*result.best_state), "");
}

TEST(SearchPolicy, LimitedSpaceFindsWorseOrEqualPrograms) {
  // Fig. 7 "Limited space": restricting the sketch space must not find better
  // programs than the full space under a generous budget.
  // Needs the seed budget: with a trimmed search the full space does not
  // reliably beat the limited one and the Fig. 7 claim cannot be asserted.
  SearchTask task = MakeTask(MakeTransposedConv2d(1, 64, 8, 8, 32, 4, 4, 2, 1));
  int budget = 64;

  Measurer m1(MachineModel::IntelCpu20Core());
  GbdtCostModel model1;
  SearchOptions full;
  full.population = 24;
  full.generations = 3;
  TuneResult full_result = TuneTask(task, &m1, &model1, budget, 16, full);

  Measurer m2(MachineModel::IntelCpu20Core());
  GbdtCostModel model2;
  SearchOptions limited = full;
  limited.sketch.enable_cache_write = false;
  limited.sketch.enable_rfactor = false;
  limited.sketch.space_levels = 2;
  limited.sketch.reduce_levels = 1;
  limited.sampler.unroll_options = {16};
  TuneResult limited_result = TuneTask(task, &m2, &model2, budget, 16, limited);

  ASSERT_TRUE(full_result.best_state.has_value());
  ASSERT_TRUE(limited_result.best_state.has_value());
  EXPECT_LE(full_result.best_seconds, limited_result.best_seconds * 1.15);
}

TEST(SearchPolicy, TaskIdStableAcrossConstruction) {
  SearchTask a = MakeTask(testing::Matmul(32, 32, 32));
  SearchTask b = MakeTask(testing::Matmul(32, 32, 32));
  EXPECT_EQ(a.task_id(), b.task_id());
  EXPECT_GT(a.flop_count(), 0.0);
}

TEST(Baselines, VendorLibraryProducesValidSchedule) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  SearchTask task = MakeTask(testing::Matmul(64, 64, 64));
  TuneResult r = VendorLibrary(task, &measurer);
  ASSERT_TRUE(r.best_state.has_value());
  EXPECT_LT(r.best_seconds, 1.0);
  EXPECT_EQ(VerifyAgainstNaive(*r.best_state), "");
}

TEST(Baselines, VendorLibraryIsDeterministic) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  SearchTask task = MakeTask(MakeConv2d(1, 32, 14, 14, 32, 3, 3, 1, 1));
  TuneResult a = VendorLibrary(task, &measurer);
  TuneResult b = VendorLibrary(task, &measurer);
  EXPECT_DOUBLE_EQ(a.best_seconds, b.best_seconds);
}

TEST(Baselines, TemplateSearchRespectsBudgetAndFindsPrograms) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  SearchTask task = MakeTask(testing::Matmul(64, 64, 64));
  TuneResult r = TemplateSearch(task, &measurer, 32);
  ASSERT_TRUE(r.best_state.has_value());
  EXPECT_LE(measurer.trial_count(), 32 + 16);
  EXPECT_EQ(VerifyAgainstNaive(*r.best_state), "");
}

TEST(Baselines, AnsorBeatsTemplateSearchOnT2D) {
  // The headline qualitative claim of Fig. 6: Ansor's larger space wins on
  // the transposed convolution (zero-multiplication elimination is outside
  // the template space).
  // Needs the seed budget: beating template search on T2D relies on the
  // evolutionary phase having room to discover the zero-multiplication trick.
  SearchTask task = MakeTask(MakeTransposedConv2d(1, 128, 8, 8, 64, 4, 4, 2, 1));
  int budget = 64;

  Measurer m1(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  SearchOptions options;
  options.population = 24;
  options.generations = 3;
  TuneResult ansor = TuneTask(task, &m1, &model, budget, 16, options);

  Measurer m2(MachineModel::IntelCpu20Core());
  TuneResult tmpl = TemplateSearch(task, &m2, budget);

  ASSERT_TRUE(ansor.best_state.has_value());
  ASSERT_TRUE(tmpl.best_state.has_value());
  EXPECT_LT(ansor.best_seconds, tmpl.best_seconds * 1.02);
}

TEST(Baselines, BeamSearchProducesValidPrograms) {
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  SearchTask task = MakeTask(testing::MatmulRelu(16, 16, 16));
  BeamSearchOptions options;
  options.beam_width = 4;
  options.expansions_per_state = 2;
  TuneResult r = BeamSearch(task, &measurer, &model, 24, options);
  ASSERT_TRUE(r.best_state.has_value());
  EXPECT_EQ(VerifyAgainstNaive(*r.best_state), "");
}

}  // namespace
}  // namespace ansor

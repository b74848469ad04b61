#include <gtest/gtest.h>

#include <cstdio>

#include "src/exec/interpreter.h"
#include "src/sampler/annotation.h"
#include "src/search/record_log.h"
#include "src/search/search_policy.h"
#include "src/sketch/sketch.h"
#include "src/store/bytes.h"
#include "tests/testing.h"

namespace ansor {
namespace {

TEST(RecordLogTest, BestForPicksLowestLatency) {
  RecordLog log;
  log.Add({1, 5e-3, 0.0, {}});
  log.Add({1, 2e-3, 0.0, {}});
  log.Add({2, 1e-3, 0.0, {}});
  auto best = log.BestFor(1);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->seconds, 2e-3);
  EXPECT_FALSE(log.BestFor(99).has_value());
}

TEST(RecordLogTest, SerializeDeserializeAll) {
  RecordLog log;
  log.Add({7, 1e-3, 0.0, {MakeSplitStep("C", 0, {4})}});
  log.Add({8, 2e-3, 0.0, {MakeCacheWriteStep("C")}});
  RecordLog copy;
  RecordLoadStats stats = copy.Deserialize(log.Serialize());
  EXPECT_TRUE(stats.index_ok);
  EXPECT_EQ(stats.loaded, 2u);
  ASSERT_EQ(copy.records().size(), 2u);
  EXPECT_EQ(copy.records()[0].task_id, 7u);
  EXPECT_EQ(copy.records()[1].steps[0].kind, StepKind::kCacheWrite);
}

TEST(RecordLogTest, LoadFromFileReportsLoadedAndSkipped) {
  // Four records, file cut where the third one starts: the load must surface
  // exactly what it kept and what it dropped instead of silently shrinking
  // the log.
  std::string path = ::testing::TempDir() + "/ansor_records_truncated.bin";
  {
    RecordLog good;
    good.Add({1, 1e-3, 0.0, {MakeSplitStep("C", 0, {4})}});
    good.Add({2, 2e-3, 0.0, {MakeCacheWriteStep("C")}});
    good.Add({3, 3e-3, 0.0, {MakeSplitStep("C", 0, {8})}});
    good.Add({4, 4e-3, 0.0, {MakeComputeInlineStep("B")}});
    std::string bytes = good.Serialize();
    // The footer index (u64 index offset + 8-byte magic at the tail) lists
    // each record's offset as delta varints after the record count.
    ByteReader tail(bytes.data() + bytes.size() - 16, 8);
    uint64_t index_offset = tail.GetU64();
    ByteReader index(bytes.data() + index_offset, bytes.size() - index_offset);
    ASSERT_EQ(index.GetVarint(), 4u);
    uint64_t third = 0;
    for (int i = 0; i < 3; ++i) {
      third += index.GetVarint();
    }
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(WriteFileBytes(path, bytes.substr(0, third)));
  }
  RecordLog loaded;
  RecordLoadStats stats = loaded.LoadFromFile(path);
  EXPECT_TRUE(stats);
  EXPECT_FALSE(stats.index_ok);
  EXPECT_EQ(stats.loaded, 2u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(loaded.records().size(), 2u);

  RecordLoadStats missing = loaded.LoadFromFile(path + ".does_not_exist");
  EXPECT_FALSE(missing);
  EXPECT_EQ(missing.loaded, 0u);
  std::remove(path.c_str());
}

TEST(RecordLogTest, ReadsBinaryStores) {
  // A log reads files written by a deduplicating fleet store: both are the
  // same RecordStore container.
  RecordStore store;
  TuningRecord r;
  r.task_id = 9;
  r.seconds = 4e-3;
  r.throughput = 2e9;
  r.steps = {MakeSplitStep("C", 0, {2})};
  store.Add(std::move(r));
  std::string path = ::testing::TempDir() + "/ansor_records_binary.bin";
  ASSERT_TRUE(store.SaveToFile(path));

  RecordLog log;
  RecordLoadStats stats = log.LoadFromFile(path);
  EXPECT_TRUE(stats);
  EXPECT_TRUE(stats.index_ok);
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].task_id, 9u);
  EXPECT_DOUBLE_EQ(log.records()[0].throughput, 2e9);
  std::remove(path.c_str());
}

TEST(RecordLogTest, FileRoundTrip) {
  RecordLog log;
  log.Add({42, 3e-3, 1.5e9, {MakeSplitStep("C", 1, {2, 2})}});
  std::string path = ::testing::TempDir() + "/ansor_records_test.bin";
  ASSERT_TRUE(log.SaveToFile(path));
  RecordLog loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path));
  ASSERT_EQ(loaded.records().size(), 1u);
  EXPECT_EQ(loaded.records()[0].task_id, 42u);
  EXPECT_EQ(loaded.records()[0].seconds, 3e-3);
  EXPECT_EQ(loaded.records()[0].throughput, 1.5e9);
  EXPECT_EQ(StepSignature(loaded.records()[0].steps), StepSignature(log.records()[0].steps));
  std::remove(path.c_str());
}

TEST(RecordLogTest, ReplayBestReconstructsProgram) {
  // Tune briefly with logging enabled, then replay the best program from the
  // log and verify it measures identically.
  ComputeDAG dag = testing::Matmul(32, 32, 32);
  SearchTask task = MakeSearchTask("mm", dag);
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  RecordLog log;
  SearchOptions options;
  options.population = 12;
  options.generations = 1;
  options.record_log = &log;
  TuneResult result = TuneTask(task, &measurer, &model, 16, 8, options);
  ASSERT_TRUE(result.best_state.has_value());
  EXPECT_GT(log.records().size(), 0u);

  State replayed = log.ReplayBest(task.dag.get());
  ASSERT_FALSE(replayed.failed());
  MeasureResult again = measurer.Measure(replayed);
  ASSERT_TRUE(again.valid);
  EXPECT_DOUBLE_EQ(again.seconds, result.best_seconds);
  EXPECT_EQ(VerifyAgainstNaive(replayed), "");
}

TEST(RecordLogTest, ReplayBestFailsForUnknownTask) {
  RecordLog log;
  ComputeDAG dag = testing::Matmul(8, 8, 8);
  State replayed = log.ReplayBest(&dag);
  EXPECT_TRUE(replayed.failed());
}

TEST(RecordLogTest, SampledProgramsRoundTripThroughSerialization) {
  // Property: any sampled program's step list survives serialize ->
  // deserialize -> replay with identical structure.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto sketches = GenerateSketches(&dag);
  Rng rng(31);
  int checked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())], &dag, &rng);
    if (program.failed()) {
      continue;
    }
    RecordLog log;
    log.Add({1, 1e-3, 0.0, program.steps()});
    RecordLog loaded;
    ASSERT_EQ(loaded.Deserialize(log.Serialize()).loaded, 1u);
    const std::vector<Step>& round_tripped = loaded.records()[0].steps;
    State replayed = State::Replay(&dag, round_tripped);
    ASSERT_FALSE(replayed.failed());
    ASSERT_EQ(replayed.stages().size(), program.stages().size());
    for (size_t s = 0; s < program.stages().size(); ++s) {
      EXPECT_EQ(replayed.stages()[s].iters.size(), program.stages()[s].iters.size());
    }
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

}  // namespace
}  // namespace ansor

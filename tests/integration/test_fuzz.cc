// Fuzz-style robustness tests: the schedule machinery must never abort on
// arbitrary step sequences — invalid programs fail gracefully (failed state /
// failed lowering / failed measurement), because the evolutionary search
// routinely produces and discards such candidates.
#include <gtest/gtest.h>

#include <cmath>

#include "src/costmodel/cost_model.h"
#include "src/exec/interpreter.h"
#include "src/hwsim/measurer.h"
#include "src/program/program_cache.h"
#include "src/sampler/annotation.h"
#include "src/search/record_log.h"
#include "src/sketch/sketch.h"
#include "src/store/artifact_store.h"
#include "src/store/bytes.h"
#include "src/store/record_store.h"
#include "src/store/serde.h"
#include "tests/testing.h"

namespace ansor {
namespace {

// Generates a random (frequently invalid) step targeting random stages and
// iterators.
Step RandomStep(Rng* rng, const std::vector<std::string>& stage_names) {
  const std::string& stage = stage_names[rng->Index(stage_names.size())];
  switch (rng->Int(0, 9)) {
    case 0:
      return MakeSplitStep(stage, static_cast<int>(rng->Int(0, 6)),
                           {rng->Int(1, 8), rng->Int(1, 4)});
    case 1:
      return MakeFollowSplitStep(stage, static_cast<int>(rng->Int(0, 6)),
                                 static_cast<int>(rng->Int(0, 4)),
                                 static_cast<int>(rng->Int(2, 4)));
    case 2:
      return MakeFuseStep(stage, static_cast<int>(rng->Int(0, 5)),
                          static_cast<int>(rng->Int(2, 4)));
    case 3: {
      std::vector<int> order;
      size_t n = rng->Index(6) + 1;
      for (size_t i = 0; i < n; ++i) {
        order.push_back(static_cast<int>(rng->Int(0, static_cast<int64_t>(n) - 1)));
      }
      return MakeReorderStep(stage, order);
    }
    case 4:
      return MakeComputeAtStep(stage, stage_names[rng->Index(stage_names.size())],
                               static_cast<int>(rng->Int(0, 8)));
    case 5:
      return MakeComputeInlineStep(stage);
    case 6:
      return MakeCacheWriteStep(stage);
    case 7:
      return MakeRfactorStep(stage, static_cast<int>(rng->Int(0, 6)));
    case 8:
      return MakeAnnotationStep(stage, static_cast<int>(rng->Int(0, 8)),
                                static_cast<IterAnnotation>(rng->Int(0, 6)));
    default:
      return MakePragmaStep(stage, static_cast<int>(rng->Int(0, 600)));
  }
}

class StepFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StepFuzz, RandomStepSequencesNeverAbort) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 77 + 5);
  ComputeDAG dag = testing::MatmulRelu(12, 12, 12);
  std::vector<std::string> stage_names = {"C", "D", "C.cache", "C.rf", "nonexistent"};
  Measurer measurer(MachineModel::IntelCpu20Core());

  for (int seq = 0; seq < 20; ++seq) {
    std::vector<Step> steps;
    int n_steps = static_cast<int>(rng.Int(1, 10));
    for (int i = 0; i < n_steps; ++i) {
      steps.push_back(RandomStep(&rng, stage_names));
    }
    State state = State::Replay(&dag, steps);
    if (state.failed()) {
      continue;  // graceful rejection
    }
    // Valid replays must lower-or-fail gracefully and, when they lower and
    // execute, must preserve semantics.
    LoweredProgram prog = Lower(state);
    if (!prog.ok) {
      continue;
    }
    EXPECT_EQ(VerifyAgainstNaive(state), "") << state.ToString();
    MeasureResult r = measurer.Measure(state);
    if (r.valid) {
      EXPECT_GT(r.seconds, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepFuzz, ::testing::Range(0, 10));

// A well-formed binary record container to mutate: a few tasks, realistic
// step lists, known totals.
std::string SeedRecordBytes() {
  RecordStore store;
  for (uint64_t task = 1; task <= 3; ++task) {
    for (int i = 0; i < 5; ++i) {
      TuningRecord r;
      r.task_id = task;
      r.seconds = 1e-3 / (1 + i);
      r.throughput = 1e9 * (1 + i);
      r.steps = {MakeSplitStep("C", 0, {4, static_cast<int64_t>(i + 1)}),
                 MakeAnnotationStep("C", 0, IterAnnotation::kParallel),
                 MakePragmaStep("C", 16 * (i + 1))};
      store.Add(std::move(r));
    }
  }
  return store.Serialize();
}

class BinaryRecordFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BinaryRecordFuzz, MutatedContainersNeverAbort) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1013 + 17);
  const std::string seed = SeedRecordBytes();

  // Truncation at arbitrary offsets: loaded + skipped never exceeds the
  // record count the intact file carries, and nothing crashes.
  for (int trial = 0; trial < 40; ++trial) {
    std::string cut = seed.substr(0, rng.Index(seed.size() + 1));
    RecordStore store(RecordStore::Options{false});
    RecordLoadStats stats = store.Deserialize(cut);
    EXPECT_EQ(store.size(), stats.loaded);
    EXPECT_LE(stats.loaded + stats.skipped, 15u);
  }

  // Random byte corruption (1-8 flips): decode must stay graceful, and
  // whatever does load must survive a re-encode and re-decode unchanged
  // (i.e. the decoder never fabricates records the encoder cannot write).
  for (int trial = 0; trial < 40; ++trial) {
    std::string bytes = seed;
    int flips = static_cast<int>(rng.Int(1, 8));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.Index(bytes.size())] ^= static_cast<char>(rng.Int(1, 255));
    }
    RecordStore::ForEachRecord(bytes, [](TuningRecord r) {
      RecordStore single(RecordStore::Options{false});
      single.Add(r);
      std::vector<TuningRecord> round;
      RecordLoadStats stats = RecordStore::ForEachRecord(
          single.Serialize(), [&round](TuningRecord back) { round.push_back(std::move(back)); });
      EXPECT_TRUE(stats.ok && stats.index_ok);
      ASSERT_EQ(round.size(), 1u);
      EXPECT_EQ(round[0].task_id, r.task_id);
      EXPECT_EQ(round[0].seconds, r.seconds);
      // The container stores throughput only when positive.
      EXPECT_EQ(round[0].throughput, r.throughput > 0.0 ? r.throughput : 0.0);
      EXPECT_EQ(StepSignature(round[0].steps), StepSignature(r.steps));
    });
  }

  // Pure garbage, with and without a valid magic prefix.
  for (int trial = 0; trial < 40; ++trial) {
    std::string bytes;
    size_t len = rng.Index(400);
    for (size_t c = 0; c < len; ++c) {
      bytes += static_cast<char>(rng.Int(0, 255));
    }
    RecordStore store;
    store.Deserialize(bytes);                  // must not crash
    store.Deserialize("ANSRREC1" + bytes);     // recognized container, junk body
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryRecordFuzz, ::testing::Range(0, 4));

class ArtifactFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ArtifactFuzz, MutatedSnapshotsNeverAbort) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 271 + 31);
  ComputeDAG dag = testing::Matmul(12, 12, 12);
  ProgramCache cache(16, 1);
  {
    State a(&dag);
    ASSERT_TRUE(a.Split("C", 0, {4}));
    cache.GetOrBuild(a);
    State b(&dag);
    ASSERT_TRUE(b.Fuse("C", 0, 2));
    cache.GetOrBuild(b);
  }
  ArtifactStore seed_store;
  seed_store.CaptureCache(cache);
  const std::string seed = seed_store.Serialize();

  for (int trial = 0; trial < 60; ++trial) {
    std::string bytes = seed;
    switch (trial % 3) {
      case 0:
        bytes = bytes.substr(0, rng.Index(bytes.size() + 1));
        break;
      case 1:
        for (int f = 0; f < 4; ++f) {
          bytes[rng.Index(bytes.size())] ^= static_cast<char>(rng.Int(1, 255));
        }
        break;
      default: {
        bytes.clear();
        size_t len = rng.Index(300);
        for (size_t c = 0; c < len; ++c) {
          bytes += static_cast<char>(rng.Int(0, 255));
        }
        bytes = "ANSRART1" + bytes;
        break;
      }
    }
    ArtifactStore store;
    ArtifactLoadStats stats = store.Deserialize(bytes);  // must not crash
    EXPECT_EQ(store.size(), stats.loaded);
    // Whatever survived must be coherent enough to warm a cache.
    ProgramCache warm(16, 1);
    store.WarmCache(&warm, std::make_shared<const ComputeDAG>(dag));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArtifactFuzz, ::testing::Range(0, 4));

class ModelFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ModelFuzz, MutatedModelFilesNeverAbort) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 613 + 7);
  GbdtCostModel seed_model;
  std::vector<FeatureMatrix> programs;
  for (int p = 0; p < 6; ++p) {
    FeatureMatrix m;
    std::vector<float> row(8);
    for (auto& v : row) {
      v = static_cast<float>(rng.Uniform());
    }
    m.AppendRow(row);
    programs.push_back(std::move(m));
  }
  seed_model.Update(1, programs, {1e9, 2e9, 3e9, 4e9, 5e9, 6e9});
  const std::string seed = seed_model.Serialize();

  for (int trial = 0; trial < 60; ++trial) {
    std::string bytes = seed;
    if (trial % 2 == 0) {
      bytes = bytes.substr(0, rng.Index(bytes.size() + 1));
    } else {
      for (int f = 0; f < 4; ++f) {
        bytes[rng.Index(bytes.size())] ^= static_cast<char>(rng.Int(1, 255));
      }
    }
    GbdtCostModel model;
    if (model.Deserialize(bytes)) {
      // A load that claims success must leave a usable model.
      std::vector<double> scores = model.Predict(programs);
      for (double s : scores) {
        EXPECT_TRUE(std::isfinite(s));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelFuzz, ::testing::Range(0, 4));

// A model file assembled field by field in the GbdtCostModel::Serialize
// layout around hand-built trees, so a test can plant structures that Train
// never emits. Every sample is labelled 1e9 under task 1.
std::string CraftModelFile(const std::vector<std::vector<TreeNode>>& trees,
                           const std::vector<FeatureMatrix>& samples) {
  GbdtParams params;
  StringTable strings;
  ByteWriter body;
  body.PutZigzag(params.num_trees);
  body.PutZigzag(params.max_depth);
  body.PutF64(params.learning_rate);
  body.PutF64(params.lambda);
  body.PutZigzag(params.max_bins);
  body.PutZigzag(params.min_rows_per_leaf);
  body.PutF64(params.min_gain);
  body.PutF64(/*base_score=*/0.5);
  body.PutVarint(trees.size());
  for (const std::vector<TreeNode>& nodes : trees) {
    body.PutVarint(nodes.size());
    for (const TreeNode& node : nodes) {
      body.PutZigzag(node.feature);
      body.PutF32(node.threshold);
      body.PutZigzag(node.left);
      body.PutZigzag(node.right);
      body.PutF64(node.value);
    }
  }
  body.PutVarint(samples.size());
  for (const FeatureMatrix& m : samples) {
    EncodeFeatureMatrix(m, &strings, &body);
    body.PutF64(1e9);
    body.PutU64(1);
  }
  body.PutVarint(1);
  body.PutU64(1);
  body.PutF64(1e9);
  ByteWriter w;
  w.PutRaw("ANSRGBM1", 8);
  strings.Encode(&w);
  w.PutRaw(body.buffer().data(), body.size());
  return w.Take();
}

TreeNode Split(int feature, int left, int right) {
  TreeNode node;
  node.feature = feature;
  node.threshold = 0.5f;
  node.left = left;
  node.right = right;
  return node;
}

TreeNode Leaf(double value) {
  TreeNode node;
  node.value = value;
  return node;
}

TEST(CraftedModelFile, SplitFeatureMustFitSampleWidth) {
  std::vector<FeatureMatrix> samples = {FeatureMatrix::FromRows({std::vector<float>(8, 0.25f)})};
  GbdtCostModel model;
  // The last column is fine (this also shows the crafted layout is sound).
  ASSERT_TRUE(model.Deserialize(
      CraftModelFile({{Split(7, 1, 2), Leaf(1.0), Leaf(2.0)}}, samples)));
  EXPECT_DOUBLE_EQ(model.Predict(samples)[0], 0.5 + GbdtParams().learning_rate * 1.0);
  // A split on a column the samples lack would read past the end of every
  // row the model is asked to score.
  EXPECT_FALSE(model.Deserialize(
      CraftModelFile({{Split(100000, 1, 2), Leaf(1.0), Leaf(2.0)}}, samples)));
  EXPECT_FALSE(model.Deserialize(
      CraftModelFile({{Split(8, 1, 2), Leaf(1.0), Leaf(2.0)}}, samples)));
  // Trees without samples leave no width to check splits against.
  EXPECT_FALSE(model.Deserialize(CraftModelFile({{Leaf(1.0)}}, {})));
  // Retrain concatenates samples, so their widths must agree.
  std::vector<FeatureMatrix> mixed = {samples[0],
                                      FeatureMatrix::FromRows({std::vector<float>(4, 0.25f)})};
  EXPECT_FALSE(model.Deserialize(CraftModelFile({{Leaf(1.0)}}, mixed)));
}

TEST(CraftedModelFile, CyclicTreeRejected) {
  // A split whose children point back at itself (or at an earlier node)
  // would make the tree walk loop forever; children must follow the parent.
  std::vector<FeatureMatrix> samples = {FeatureMatrix::FromRows({std::vector<float>(8, 0.25f)})};
  GbdtCostModel model;
  EXPECT_FALSE(model.Deserialize(CraftModelFile({{Split(0, 0, 0)}}, samples)));
  EXPECT_FALSE(model.Deserialize(
      CraftModelFile({{Split(0, 1, 2), Split(0, 0, 2), Leaf(1.0)}}, samples)));
}

TEST(SamplerFuzz, HighTweakProbabilityStaysSound) {
  // Force the compute-location tweak on every sample: many placements are
  // invalid and must be rejected by lowering, never crash; valid ones verify.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  auto sketches = GenerateSketches(&dag);
  SamplerOptions options;
  options.location_tweak_probability = 1.0;
  Rng rng(123);
  int valid = 0;
  for (int trial = 0; trial < 30; ++trial) {
    State program = SampleCompleteProgram(sketches[rng.Index(sketches.size())], &dag, &rng,
                                          options);
    if (program.failed() || !Lower(program).ok) {
      continue;
    }
    EXPECT_EQ(VerifyAgainstNaive(program), "") << program.ToString();
    ++valid;
  }
  EXPECT_GT(valid, 5);
}

TEST(MeasurerFuzz, BatchWithMixedValidity) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  Measurer measurer(MachineModel::IntelCpu20Core());
  std::vector<State> batch;
  for (int i = 0; i < 6; ++i) {
    State s(&dag);
    if (i % 2 == 1) {
      s.Split("C", 99, {2});  // poison half the batch
    }
    batch.push_back(std::move(s));
  }
  std::vector<MeasureResult> results = measurer.SubmitBatch(batch).Wait();
  ASSERT_EQ(results.size(), 6u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].valid, i % 2 == 0);
  }
}

}  // namespace
}  // namespace ansor

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "src/costmodel/cost_model.h"
#include "src/costmodel/gbdt.h"
#include "src/costmodel/metrics.h"
#include "src/dag/compute_dag.h"
#include "src/features/feature_extraction.h"
#include "src/ir/state.h"
#include "src/ir/steps.h"
#include "src/program/program_cache.h"
#include "src/store/artifact_store.h"
#include "src/store/bytes.h"
#include "src/store/record_store.h"
#include "src/support/rng.h"
#include "tests/testing.h"

namespace ansor {
namespace {

// Synthetic dataset: program score is a linear function of two features.
GbdtDataset MakeSyntheticDataset(int n_programs, int rows_per_program, Rng* rng) {
  GbdtDataset data;
  for (int p = 0; p < n_programs; ++p) {
    double label = 0.0;
    for (int r = 0; r < rows_per_program; ++r) {
      std::vector<float> row(8, 0.0f);
      for (auto& v : row) {
        v = static_cast<float>(rng->Uniform());
      }
      label += 0.6 * row[0] + 0.4 * row[3];
      data.rows.AppendRow(row);
      data.group.push_back(p);
    }
    label /= rows_per_program;
    data.labels.push_back(label);
    data.weights.push_back(std::max(label, 0.1));
  }
  return data;
}

// One single-row program as a FeatureMatrix.
FeatureMatrix OneRowProgram(const std::vector<float>& row) {
  return FeatureMatrix::FromRows({row});
}

TEST(Gbdt, LearnsSyntheticFunction) {
  Rng rng(3);
  GbdtDataset train = MakeSyntheticDataset(200, 2, &rng);
  Gbdt model;
  model.Train(train);
  ASSERT_TRUE(model.trained());

  GbdtDataset test = MakeSyntheticDataset(100, 2, &rng);
  std::vector<double> preds;
  std::vector<double> truth;
  size_t row = 0;
  for (int p = 0; p < test.num_programs(); ++p) {
    double score = model.base_score();
    while (row < test.rows.rows() && test.group[row] == p) {
      score += model.PredictRow(test.rows.row(row));
      ++row;
    }
    preds.push_back(score);
    truth.push_back(test.labels[static_cast<size_t>(p)]);
  }
  double acc = PairwiseComparisonAccuracy(preds, truth);
  EXPECT_GT(acc, 0.85) << "GBDT failed to learn a simple linear ranking";
}

TEST(Gbdt, EmptyDatasetIsSafe) {
  Gbdt model;
  model.Train(GbdtDataset{});
  EXPECT_FALSE(model.trained());
  std::vector<float> row(8, 0.0f);
  EXPECT_DOUBLE_EQ(model.PredictRow(row.data()), 0.0);
}

TEST(Gbdt, WeightedLossPrioritizesFastPrograms) {
  // Two clusters: fast programs distinguished by feature 0, slow ones by
  // feature 1 with conflicting signal. With throughput weighting the model
  // must rank the fast cluster correctly.
  Rng rng(11);
  GbdtDataset data;
  int p = 0;
  for (int i = 0; i < 150; ++i) {
    std::vector<float> row(4, 0.0f);
    row[0] = static_cast<float>(rng.Uniform());
    double label = 0.7 + 0.3 * row[0];  // fast cluster
    data.rows.AppendRow(row);
    data.group.push_back(p);
    data.labels.push_back(label);
    data.weights.push_back(label);
    ++p;
  }
  Gbdt model;
  model.Train(data);
  std::vector<float> hi(4, 0.0f);
  hi[0] = 0.95f;
  std::vector<float> lo(4, 0.0f);
  lo[0] = 0.05f;
  EXPECT_GT(model.PredictRow(hi.data()), model.PredictRow(lo.data()));
}

TEST(Gbdt, MaxBinsOutOfRangeDies) {
  // Bin indices are uint8_t; max_bins outside [2, 256] would silently wrap.
  Rng rng(1);
  GbdtDataset data = MakeSyntheticDataset(10, 1, &rng);
  GbdtParams params;
  params.max_bins = 300;
  EXPECT_DEATH(Gbdt(params).Train(data), "max_bins");
  params.max_bins = 1;
  EXPECT_DEATH(Gbdt(params).Train(data), "max_bins");
}

TEST(CostModelTest, GbdtModelRanksAfterUpdate) {
  Rng rng(5);
  GbdtCostModel model;
  std::vector<FeatureMatrix> programs;
  std::vector<double> throughputs;
  for (int i = 0; i < 120; ++i) {
    std::vector<float> row(static_cast<size_t>(6), 0.0f);
    for (auto& v : row) {
      v = static_cast<float>(rng.Uniform());
    }
    throughputs.push_back(1e9 * (0.2 + row[2]));
    programs.push_back(OneRowProgram(row));
  }
  model.Update(/*task_id=*/1, programs, throughputs);
  EXPECT_EQ(model.num_samples(), 120u);
  auto preds = model.Predict(programs);
  EXPECT_GT(PairwiseComparisonAccuracy(preds, throughputs), 0.8);
}

TEST(CostModelTest, InvalidProgramsScoreLowest) {
  GbdtCostModel model;
  std::vector<FeatureMatrix> programs;
  programs.emplace_back();  // failed lowering: empty matrix
  programs.push_back(OneRowProgram(std::vector<float>(4, 1.0f)));
  auto preds = model.Predict(programs);
  EXPECT_LT(preds[0], preds[1]);
}

TEST(CostModelTest, NormalizationAcrossTasks) {
  // Two tasks with very different raw throughputs; after per-task
  // normalization the model should treat both tasks' best programs alike.
  Rng rng(9);
  GbdtCostModel model;
  for (uint64_t task = 0; task < 2; ++task) {
    std::vector<FeatureMatrix> programs;
    std::vector<double> throughputs;
    double scale = task == 0 ? 1e12 : 1e6;
    for (int i = 0; i < 60; ++i) {
      std::vector<float> row(static_cast<size_t>(6), 0.0f);
      row[1] = static_cast<float>(rng.Uniform());
      throughputs.push_back(scale * (0.1 + row[1]));
      programs.push_back(OneRowProgram(row));
    }
    model.Update(task, programs, throughputs);
  }
  // Prediction should rank by feature 1 regardless of the raw scale.
  std::vector<float> hi(6, 0.0f);
  hi[1] = 0.9f;
  std::vector<float> lo(6, 0.0f);
  lo[1] = 0.1f;
  std::vector<FeatureMatrix> probe;
  probe.push_back(OneRowProgram(hi));
  probe.push_back(OneRowProgram(lo));
  auto preds = model.Predict(probe);
  EXPECT_GT(preds[0], preds[1]);
}

TEST(CostModelTest, BatchedPredictionsMatchUnbatched) {
  // A program's score must not depend on the batch it is scored in: the
  // per-program sums must equal the one-at-a-time path bit for bit (the
  // determinism matrix depends on batched == unbatched).
  Rng rng(21);
  GbdtCostModel model;
  std::vector<FeatureMatrix> programs;
  std::vector<double> throughputs;
  for (int i = 0; i < 80; ++i) {
    std::vector<std::vector<float>> rows;
    for (int r = 0; r < 1 + i % 3; ++r) {
      std::vector<float> row(6, 0.0f);
      for (auto& v : row) {
        v = static_cast<float>(rng.Uniform());
      }
      rows.push_back(std::move(row));
    }
    programs.push_back(FeatureMatrix::FromRows(rows));
    throughputs.push_back(1e9 * rng.Uniform());
  }
  model.Update(/*task_id=*/2, programs, throughputs);

  std::vector<const FeatureMatrix*> ptrs;
  for (const FeatureMatrix& m : programs) {
    ptrs.push_back(&m);
  }
  std::vector<double> batched = model.PredictBatch(ptrs);
  for (size_t p = 0; p < programs.size(); ++p) {
    std::vector<double> single = model.PredictBatch({ptrs[p]});
    EXPECT_EQ(batched[p], single[0]) << "program " << p;
  }
  // Statement-level batch agrees with the per-program form.
  std::vector<std::vector<double>> stmt_batch = model.PredictStatementsBatch(ptrs);
  for (size_t p = 0; p < programs.size(); ++p) {
    EXPECT_EQ(stmt_batch[p], model.PredictStatements(programs[p])) << "program " << p;
  }
}

TEST(CostModelTest, ConcurrentPredictBatchIsSafe) {
  // Prediction is read-only on the trained model: concurrent PredictBatch /
  // PredictStatementsBatch calls from several threads must race-free agree
  // with the serial result (run under tsan in CI).
  Rng rng(17);
  GbdtCostModel model;
  std::vector<FeatureMatrix> programs;
  std::vector<double> throughputs;
  for (int i = 0; i < 60; ++i) {
    std::vector<float> row(6, 0.0f);
    for (auto& v : row) {
      v = static_cast<float>(rng.Uniform());
    }
    programs.push_back(OneRowProgram(row));
    throughputs.push_back(1e9 * (0.1 + rng.Uniform()));
  }
  model.Update(/*task_id=*/3, programs, throughputs);

  std::vector<const FeatureMatrix*> ptrs;
  for (const FeatureMatrix& m : programs) {
    ptrs.push_back(&m);
  }
  std::vector<double> expected = model.PredictBatch(ptrs);
  std::vector<std::vector<double>> expected_stmt = model.PredictStatementsBatch(ptrs);

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::vector<char> ok(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      bool agree = true;
      for (int iter = 0; iter < 8; ++iter) {
        agree = agree && model.PredictBatch(ptrs) == expected;
        agree = agree && model.PredictStatementsBatch(ptrs) == expected_stmt;
      }
      ok[static_cast<size_t>(t)] = agree ? 1 : 0;
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ok[static_cast<size_t>(t)], 1) << "thread " << t;
  }
}

// Hex-float rendering so a golden mismatch prints a paste-ready literal.
std::string HexFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

TEST(CostModelTest, PinnedPredictionsGolden) {
  // Scores of a model trained on fixed synthetic data, pinned bit for bit:
  // any change to training, the tree walk, or the base + s0 + s1 + ...
  // accumulation order shows up here. Statement scores exclude the base.
  Rng rng(29);
  auto random_program = [&rng](int rows) {
    FeatureMatrix m;
    for (int r = 0; r < rows; ++r) {
      std::vector<float> row(6);
      for (auto& v : row) {
        v = static_cast<float>(rng.Uniform());
      }
      m.AppendRow(row);
    }
    return m;
  };
  GbdtCostModel model;
  std::vector<FeatureMatrix> train;
  std::vector<double> throughputs;
  for (int i = 0; i < 60; ++i) {
    train.push_back(random_program(1 + i % 3));
    const float* row = train.back().row(0);
    throughputs.push_back(1e9 * (0.1 + row[1] + 0.5 * row[4]));
  }
  model.Update(/*task_id=*/5, train, throughputs);

  std::vector<FeatureMatrix> probes = {random_program(1), random_program(2),
                                       random_program(3), FeatureMatrix(),
                                       random_program(2)};
  std::vector<const FeatureMatrix*> ptrs;
  for (const FeatureMatrix& m : probes) {
    ptrs.push_back(&m);
  }
  const std::vector<double> kPrograms = {0x1.81f2d834a3224p-2, 0x1.008f2cd3ebcf7p-1,
                                         0x1.9ab21a97c83bcp-1, CostModel::kInvalidScore,
                                         0x1.41b58213cde04p-1};
  const std::vector<std::vector<double>> kStatements = {
      {-0x1.1cc378b545faap-2},
      {-0x1.a39e7f680fdaap-4, -0x1.a582bb406c3b7p-5},
      {-0x1.c86f0adde7fb2p-6, -0x1.c03a3580049b6p-7, 0x1.826d4d3f0bfe8p-3},
      {},
      {-0x1.a86b5fdf34b49p-9, -0x1.7fa76028ef2fbp-6}};

  std::vector<double> programs = model.PredictBatch(ptrs);
  ASSERT_EQ(programs.size(), kPrograms.size());
  for (size_t p = 0; p < programs.size(); ++p) {
    EXPECT_EQ(programs[p], kPrograms[p]) << "program " << p << ": " << HexFloat(programs[p]);
  }
  std::vector<std::vector<double>> statements = model.PredictStatementsBatch(ptrs);
  ASSERT_EQ(statements.size(), kStatements.size());
  for (size_t p = 0; p < statements.size(); ++p) {
    ASSERT_EQ(statements[p].size(), kStatements[p].size()) << "program " << p;
    for (size_t s = 0; s < statements[p].size(); ++s) {
      EXPECT_EQ(statements[p][s], kStatements[p][s])
          << "program " << p << " statement " << s << ": " << HexFloat(statements[p][s]);
    }
  }
}

TEST(CostModelTest, RandomModelIsUniform) {
  RandomCostModel model(1);
  std::vector<FeatureMatrix> programs;
  programs.push_back(OneRowProgram(std::vector<float>(4, 0.0f)));
  programs.push_back(OneRowProgram(std::vector<float>(4, 0.0f)));
  programs.emplace_back();
  auto preds = model.Predict(programs);
  EXPECT_NE(preds[0], preds[1]);
  EXPECT_LT(preds[2], 0.0);  // invalid program
}

TEST(Gbdt, BinaryCodecRoundTripsBitExact) {
  Rng rng(11);
  GbdtDataset train = MakeSyntheticDataset(100, 2, &rng);
  Gbdt model;
  model.Train(train);
  ASSERT_TRUE(model.trained());

  ByteWriter w;
  model.EncodeTo(&w);
  std::string bytes = w.buffer();
  ByteReader r(bytes);
  Gbdt decoded;
  ASSERT_TRUE(decoded.DecodeFrom(&r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded.trees().size(), model.trees().size());
  EXPECT_EQ(decoded.base_score(), model.base_score());
  for (int i = 0; i < 50; ++i) {
    std::vector<float> row(8);
    for (auto& v : row) {
      v = static_cast<float>(rng.Uniform());
    }
    EXPECT_EQ(decoded.PredictRow(row.data()), model.PredictRow(row.data()));  // bit-identical
  }
}

// A FeatureDim()-wide training set that reaches every binning path: constant
// columns (no edges, so never split on), columns with few distinct values
// (midpoint edges), and quantized continuous columns with more distinct
// values than bins (quantile edges taken from the data, so rows sit exactly
// on an edge). Programs hold 1-4 rows and carry unequal weights.
GbdtDataset MixedColumnDataset() {
  Rng rng(41);
  size_t dim = FeatureDim();
  GbdtDataset data;
  for (int p = 0; p < 160; ++p) {
    double label = 0.0;
    int n_rows = 1 + p % 4;
    for (int r = 0; r < n_rows; ++r) {
      std::vector<float> row(dim);
      for (size_t f = 0; f < dim; ++f) {
        switch (f % 4) {
          case 0:  // constant: a dead feature
            row[f] = static_cast<float>(f);
            break;
          case 1:  // few distinct values
            row[f] = static_cast<float>(rng.Int(0, static_cast<int64_t>(1 + f % 7)));
            break;
          case 2:  // continuous, many ties on a 1/512 grid
            row[f] = static_cast<float>(rng.Int(0, 511)) / 512.0f;
            break;
          default:  // continuous
            row[f] = static_cast<float>(rng.Uniform(-2.0, 2.0));
            break;
        }
      }
      label += 0.5 * row[2] + 0.1 * row[5] - 0.2 * row[7] + 0.05 * row[13];
      data.rows.AppendRow(row);
      data.group.push_back(p);
    }
    data.labels.push_back(label / n_rows + 0.2 * rng.Uniform());  // plus unlearnable noise
    data.weights.push_back(0.25 + static_cast<double>(p % 5));
  }
  return data;
}

TEST(Gbdt, TrainedForestBytesGolden) {
  // Pins the trained forest byte for byte (params, base score, every split
  // feature, threshold and leaf value) across the bin-count range: any change
  // to binning, the histogram sums or the split scan shows up here.
  GbdtDataset data = MixedColumnDataset();
  struct Case {
    int max_bins;
    size_t size;
    uint64_t fnv;
  };
  const Case kCases[] = {{2, 79936u, 0xfc2f06227041b5d5ULL},
                         {32, 17417u, 0x90abf0624bc3ffd0ULL},
                         {256, 5585u, 0x7e58c71eaa5e7bc8ULL}};
  for (const Case& c : kCases) {
    GbdtParams params;
    params.max_bins = c.max_bins;
    Gbdt model(params);
    model.Train(data);
    ByteWriter w;
    model.EncodeTo(&w);
    const std::string& bytes = w.buffer();
    char fnv[32];
    std::snprintf(fnv, sizeof(fnv), "0x%016llxULL",
                  static_cast<unsigned long long>(Fnv1a64(bytes.data(), bytes.size())));
    EXPECT_EQ(bytes.size(), c.size) << "max_bins " << c.max_bins;
    EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), c.fnv)
        << "max_bins " << c.max_bins << ": " << fnv;
  }
}

TEST(Gbdt, CorruptedCodecInputRejected) {
  Rng rng(12);
  GbdtDataset train = MakeSyntheticDataset(40, 1, &rng);
  Gbdt model;
  model.Train(train);
  ByteWriter w;
  model.EncodeTo(&w);
  std::string bytes = w.buffer();
  for (size_t cut = 0; cut < bytes.size(); cut += 13) {
    ByteReader r(bytes.data(), cut);
    Gbdt decoded;
    EXPECT_FALSE(decoded.DecodeFrom(&r)) << "cut=" << cut;  // must not crash
  }
}

TEST(CostModelTest, SaveLoadContinuesTrainingExactly) {
  Rng rng(21);
  auto random_program = [&rng](int rows) {
    FeatureMatrix m;
    for (int r = 0; r < rows; ++r) {
      std::vector<float> row(8);
      for (auto& v : row) {
        v = static_cast<float>(rng.Uniform());
      }
      m.AppendRow(row);
    }
    return m;
  };
  GbdtCostModel original;
  std::vector<FeatureMatrix> batch1 = {random_program(2), random_program(3),
                                       random_program(1)};
  original.Update(7, batch1, {1e9, 3e9, 2e9});

  GbdtCostModel loaded;
  ASSERT_TRUE(loaded.Deserialize(original.Serialize()));
  EXPECT_EQ(loaded.num_samples(), original.num_samples());

  std::vector<FeatureMatrix> probes = {random_program(2), random_program(4)};
  EXPECT_EQ(loaded.Predict(probes), original.Predict(probes));  // bit-identical

  // Updating both with the same new measurements must keep them identical:
  // the load restored the full training state, not just the forest.
  std::vector<FeatureMatrix> batch2 = {random_program(2)};
  original.Update(8, batch2, {5e9});
  loaded.Update(8, batch2, {5e9});
  EXPECT_EQ(loaded.Predict(probes), original.Predict(probes));

  GbdtCostModel garbage;
  EXPECT_FALSE(garbage.Deserialize("not a model file"));
  EXPECT_FALSE(garbage.Deserialize(std::string()));
}

TEST(CostModelTest, TrainFromStoreMatchesLiveUpdates) {
  auto dag = std::make_shared<const ComputeDAG>(testing::Matmul(16, 16, 16));
  std::vector<State> programs;
  {
    State s(dag.get());
    ASSERT_TRUE(s.Split("C", 0, {4}));
    programs.push_back(std::move(s));
  }
  {
    State s(dag.get());
    ASSERT_TRUE(s.Split("C", 1, {8}));
    programs.push_back(std::move(s));
  }
  {
    State s(dag.get());
    ASSERT_TRUE(s.Fuse("C", 0, 2));
    programs.push_back(std::move(s));
  }
  ProgramCache cache(16, 1);
  std::vector<FeatureMatrix> features;
  for (const State& s : programs) {
    features.push_back(cache.GetOrBuild(s)->features());
  }
  std::vector<double> throughputs = {1e9, 4e9, 2e9};

  // The fleet's persisted view of the same measurements.
  ArtifactStore artifacts;
  artifacts.CaptureCache(cache);
  RecordStore records;
  for (size_t i = 0; i < programs.size(); ++i) {
    TuningRecord r;
    r.task_id = dag->CanonicalHash();
    r.seconds = 1e-3 / (1.0 + static_cast<double>(i));
    r.throughput = throughputs[i];
    r.steps = programs[i].steps();
    records.Add(std::move(r));
  }

  GbdtCostModel live;
  live.Update(dag->CanonicalHash(), features, throughputs);
  GbdtCostModel transfer;
  TrainFromStoreStats stats = transfer.TrainFromStore(records, artifacts);
  EXPECT_EQ(stats.used, 3u);
  EXPECT_EQ(stats.missing_features, 0u);
  EXPECT_EQ(transfer.num_samples(), live.num_samples());
  EXPECT_EQ(transfer.Predict(features), live.Predict(features));  // bit-identical
}

TEST(CostModelTest, TrainFromStoreCountsMissingFeatures) {
  RecordStore records;
  TuningRecord r;
  r.task_id = 123;
  r.seconds = 1e-3;
  r.steps = {MakeSplitStep("C", 0, {4})};
  records.Add(std::move(r));
  ArtifactStore artifacts;  // empty: no features for anything
  GbdtCostModel model;
  TrainFromStoreStats stats = model.TrainFromStore(records, artifacts);
  EXPECT_EQ(stats.used, 0u);
  EXPECT_EQ(stats.missing_features, 1u);
  EXPECT_EQ(model.num_samples(), 0u);
}

TEST(Metrics, PairwiseAccuracy) {
  EXPECT_DOUBLE_EQ(PairwiseComparisonAccuracy({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(PairwiseComparisonAccuracy({3, 2, 1}, {1, 2, 3}), 0.0);
  // Constant predictions cannot distinguish: 0.5 (random).
  EXPECT_DOUBLE_EQ(PairwiseComparisonAccuracy({1, 1, 1}, {1, 2, 3}), 0.5);
  // Ties in truth are skipped.
  EXPECT_DOUBLE_EQ(PairwiseComparisonAccuracy({1, 2}, {5, 5}), 0.5);
}

TEST(Metrics, RecallAtK) {
  std::vector<double> truth = {10, 9, 8, 1, 2, 3};
  std::vector<double> perfect = {10, 9, 8, 1, 2, 3};
  std::vector<double> inverted = {1, 2, 3, 10, 9, 8};
  EXPECT_DOUBLE_EQ(RecallAtK(perfect, truth, 3), 1.0);
  EXPECT_DOUBLE_EQ(RecallAtK(inverted, truth, 3), 0.0);
  std::vector<double> half = {10, 9, 1, 8, 2, 3};
  EXPECT_NEAR(RecallAtK(half, truth, 2), 1.0, 1e-9);
}

}  // namespace
}  // namespace ansor

// Learned cost model interface (paper §5.2).
//
// "A single model is trained for all tensor programs coming from all DAGs, and
// we normalize the throughput of all programs come from the same DAG to be in
// the range of [0, 1]." The model accumulates measurement records across
// tasks and retrains on every update.
//
// All entry points speak FeatureMatrix — the flat row-major features cached
// on ProgramArtifacts — so prediction walks the GBDT over each borrowed
// matrix's rows in place without copying a float.
#ifndef ANSOR_SRC_COSTMODEL_COST_MODEL_H_
#define ANSOR_SRC_COSTMODEL_COST_MODEL_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/costmodel/gbdt.h"
#include "src/features/feature_extraction.h"
#include "src/support/rng.h"
#include "src/telemetry/metrics.h"

namespace ansor {

class RecordStore;
class ArtifactStore;

// Accounting for GbdtCostModel::TrainFromStore: how many stored records
// became training samples vs lacked a persisted feature matrix.
struct TrainFromStoreStats {
  size_t used = 0;
  size_t missing_features = 0;
};

class CostModel {
 public:
  // The invalid-program contract, in one place:
  //  * Prediction side: Predict/PredictBatch score a program with an empty
  //    feature matrix (failed lowering) as kInvalidScore — far below any
  //    real prediction, so fitness-proportional selection can never pick it.
  //  * Training side: Update receives invalid measurements as throughput 0;
  //    callers clear the feature matrix of possibly-transient failures so
  //    the model only learns zero-throughput from confirmed-bad programs.
  static constexpr double kInvalidScore = -1e9;

  CostModel();
  virtual ~CostModel() = default;

  // Non-copyable: a copy would duplicate the (model_id, version) stamp and
  // could alias stage-score memos between models whose training diverged.
  CostModel(const CostModel&) = delete;
  CostModel& operator=(const CostModel&) = delete;

  // Adds measured programs for the given task and retrains. `task_id`
  // identifies the DAG for per-task throughput normalization; `throughputs`
  // are raw FLOPS, reported as 0 for invalid measurements (see the
  // kInvalidScore contract above).
  virtual void Update(uint64_t task_id, const std::vector<FeatureMatrix>& program_features,
                      const std::vector<double>& throughputs) = 0;

  // Predicted fitness per program (higher is better). Scores are comparable
  // within one task; programs with empty features score kInvalidScore.
  virtual std::vector<double> Predict(const std::vector<FeatureMatrix>& program_features) = 0;

  // Predict over borrowed feature matrices: the evolution hot path scores a
  // population without copying features out of cached ProgramArtifacts.
  // Entries are non-null. The default implementation materializes a copy and
  // calls Predict; GbdtCostModel overrides it copy-free.
  virtual std::vector<double> PredictBatch(const std::vector<const FeatureMatrix*>& programs);

  // Per-statement scores for one program (used by node-based crossover to
  // score the rewriting steps of individual DAG nodes). Implementations must
  // be pure functions of (rows, model state): the ProgramCache memoizes the
  // result keyed by (model_id, version), so a hidden per-call state (e.g. a
  // shared RNG stream) would make search results depend on cache capacity.
  virtual std::vector<double> PredictStatements(const FeatureMatrix& rows) = 0;

  // Batched form of PredictStatements: scores several programs in one call
  // (evolutionary search batches all crossover-parent scoring of a wave).
  // Entries are non-null; a program with no rows (failed lowering) yields an
  // empty score vector. The default implementation loops PredictStatements.
  virtual std::vector<std::vector<double>> PredictStatementsBatch(
      const std::vector<const FeatureMatrix*>& programs);

  // Cache stamp for memoized predictions (ProgramArtifact stage scores):
  // model_id is unique per instance for the lifetime of the process, version
  // bumps on every Update that may change predictions. A memo computed under
  // a matching (model_id, version) stamp equals a fresh prediction.
  uint64_t model_id() const { return model_id_; }
  uint64_t version() const { return version_; }

  // Call-volume counters, incremented by implementations via CountTrain /
  // CountPredict: how many Update calls retrained, and how many programs
  // were scored across all Predict* entry points (thread-safe).
  int64_t train_calls() const { return train_calls_.load(std::memory_order_relaxed); }
  int64_t programs_predicted() const {
    return programs_predicted_.load(std::memory_order_relaxed);
  }

  // Mirrors version/train/predict counters into `registry` as gauges named
  // <prefix>.version / .train_calls / .programs_predicted. Subclasses extend
  // (GbdtCostModel adds .samples).
  virtual void ExportMetrics(MetricsRegistry* registry, const std::string& prefix) const;

 protected:
  void BumpVersion() { ++version_; }
  void CountTrain() { train_calls_.fetch_add(1, std::memory_order_relaxed); }
  void CountPredict(int64_t programs) {
    programs_predicted_.fetch_add(programs, std::memory_order_relaxed);
  }

 private:
  uint64_t model_id_;
  uint64_t version_ = 1;
  std::atomic<int64_t> train_calls_{0};
  std::atomic<int64_t> programs_predicted_{0};
};

// The learned GBDT model of §5.2.
class GbdtCostModel : public CostModel {
 public:
  explicit GbdtCostModel(GbdtParams params = GbdtParams());

  void Update(uint64_t task_id, const std::vector<FeatureMatrix>& program_features,
              const std::vector<double>& throughputs) override;
  std::vector<double> Predict(const std::vector<FeatureMatrix>& program_features) override;
  std::vector<double> PredictBatch(
      const std::vector<const FeatureMatrix*>& programs) override;
  std::vector<double> PredictStatements(const FeatureMatrix& rows) override;
  std::vector<std::vector<double>> PredictStatementsBatch(
      const std::vector<const FeatureMatrix*>& programs) override;

  size_t num_samples() const { return labels_raw_.size(); }
  // The trained model (bench / introspection).
  const Gbdt& gbdt() const { return model_; }

  void ExportMetrics(MetricsRegistry* registry, const std::string& prefix) const override;

  // Transfer learning from the persistence layer (the paper's "single model
  // trained for all programs coming from all DAGs", across process
  // lifetimes): joins every stored TuningRecord against its persisted
  // feature matrix in `artifacts` (ArtifactStore::Find by task + step
  // signature) and retrains once over the union. Labels use the record's
  // measured throughput; records without one (0) fall back to 1/seconds,
  // which the per-task normalization maps to the same [0, 1] labels for any
  // single task. Appends to existing training data, so the result equals
  // having Updated with the same samples live.
  TrainFromStoreStats TrainFromStore(const RecordStore& records,
                                     const ArtifactStore& artifacts);

  // Binary round trip of the whole model state: params, trained forest (bit
  // -identical predictions after load), and the accumulated training data +
  // per-task bests, so Update after a load continues exactly where the saved
  // model stopped. Loading bumps version() (memoized stage scores go stale).
  std::string Serialize() const;
  bool Deserialize(const std::string& bytes);
  bool SaveToFile(const std::string& path) const;
  bool LoadFromFile(const std::string& path);

 private:
  void Retrain();
  // The one inference loop behind every Predict* entry point: the
  // statement score of each row of `rows`, in row order.
  std::vector<double> StatementScores(const FeatureMatrix& rows) const;

  GbdtParams params_;
  Gbdt model_;
  // Accumulated training data: one feature matrix per measured program.
  std::vector<FeatureMatrix> samples_;
  std::vector<double> labels_raw_;  // raw throughput
  std::vector<uint64_t> task_ids_;
  std::unordered_map<uint64_t, double> task_best_;
};

// A model returning uniform random scores: the exploration floor used by
// tests and the "random" ablations. Predict draws from a seeded stream;
// PredictStatements is stateless (scores derive from hashing the row
// contents with the seed) so that statement-score memoization in the
// ProgramCache cannot perturb later predictions through the stream.
class RandomCostModel : public CostModel {
 public:
  explicit RandomCostModel(uint64_t seed = 0) : seed_(seed), rng_(seed) {}

  void Update(uint64_t, const std::vector<FeatureMatrix>&,
              const std::vector<double>&) override {}
  std::vector<double> Predict(const std::vector<FeatureMatrix>& program_features) override;
  std::vector<double> PredictBatch(
      const std::vector<const FeatureMatrix*>& programs) override;
  std::vector<double> PredictStatements(const FeatureMatrix& rows) override;

 private:
  uint64_t seed_;
  Rng rng_;
};

}  // namespace ansor

#endif  // ANSOR_SRC_COSTMODEL_COST_MODEL_H_

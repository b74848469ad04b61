#include "src/costmodel/cost_model.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "src/ir/state.h"
#include "src/store/artifact_store.h"
#include "src/store/record_store.h"
#include "src/store/serde.h"
#include "src/support/logging.h"
#include "src/support/util.h"

namespace ansor {

CostModel::CostModel() {
  static std::atomic<uint64_t> next_id{1};
  model_id_ = next_id.fetch_add(1);
}

void CostModel::ExportMetrics(MetricsRegistry* registry, const std::string& prefix) const {
  registry->SetGauge(prefix + ".version", static_cast<double>(version()));
  registry->SetGauge(prefix + ".train_calls", static_cast<double>(train_calls()));
  registry->SetGauge(prefix + ".programs_predicted",
                     static_cast<double>(programs_predicted()));
}

std::vector<double> CostModel::PredictBatch(
    const std::vector<const FeatureMatrix*>& programs) {
  std::vector<FeatureMatrix> copy;
  copy.reserve(programs.size());
  for (const FeatureMatrix* m : programs) {
    copy.push_back(*m);
  }
  return Predict(copy);
}

std::vector<std::vector<double>> CostModel::PredictStatementsBatch(
    const std::vector<const FeatureMatrix*>& programs) {
  std::vector<std::vector<double>> scores;
  scores.reserve(programs.size());
  for (const FeatureMatrix* m : programs) {
    scores.push_back(PredictStatements(*m));
  }
  return scores;
}

GbdtCostModel::GbdtCostModel(GbdtParams params) : params_(params), model_(params) {}

void GbdtCostModel::Update(uint64_t task_id,
                           const std::vector<FeatureMatrix>& program_features,
                           const std::vector<double>& throughputs) {
  CHECK_EQ(program_features.size(), throughputs.size());
  for (size_t i = 0; i < program_features.size(); ++i) {
    if (program_features[i].empty()) {
      continue;  // failed lowering: nothing to learn from
    }
    samples_.push_back(program_features[i]);
    labels_raw_.push_back(std::max(0.0, throughputs[i]));
    task_ids_.push_back(task_id);
    double& best = task_best_[task_id];
    best = std::max(best, throughputs[i]);
  }
  Retrain();
  CountTrain();
  BumpVersion();  // invalidates stage-score memos on cached artifacts
}

void GbdtCostModel::Retrain() {
  GbdtDataset data;
  for (size_t p = 0; p < samples_.size(); ++p) {
    double best = task_best_[task_ids_[p]];
    double label = best > 0.0 ? labels_raw_[p] / best : 0.0;
    int group = static_cast<int>(data.labels.size());
    data.labels.push_back(label);
    // Weighted squared error with the (normalized) throughput as the weight;
    // failed programs keep a small weight so the model learns to avoid them.
    data.weights.push_back(std::max(label, 0.1));
    data.rows.AppendMatrix(samples_[p]);  // one block copy per program
    data.group.insert(data.group.end(), samples_[p].rows(), group);
  }
  model_ = Gbdt(params_);
  model_.Train(data);
}

TrainFromStoreStats GbdtCostModel::TrainFromStore(const RecordStore& records,
                                                  const ArtifactStore& artifacts) {
  TrainFromStoreStats stats;
  for (const TuningRecord& record : records.Snapshot()) {
    const ArtifactSnapshot* artifact =
        artifacts.Find(record.task_id, StepSignature(record.steps));
    if (artifact == nullptr || artifact->features.empty()) {
      ++stats.missing_features;
      continue;
    }
    // Live measurements persist their FLOPS throughput; records without one
    // only carry seconds. 1/seconds differs from FLOPS by the task's
    // constant flop count, which the per-task normalization divides away.
    double throughput = record.throughput > 0.0
                            ? record.throughput
                            : (record.seconds > 0.0 ? 1.0 / record.seconds : 0.0);
    samples_.push_back(artifact->features);
    labels_raw_.push_back(std::max(0.0, throughput));
    task_ids_.push_back(record.task_id);
    double& best = task_best_[record.task_id];
    best = std::max(best, throughput);
    ++stats.used;
  }
  if (stats.used > 0) {
    Retrain();
    CountTrain();
    BumpVersion();
  }
  return stats;
}

void GbdtCostModel::ExportMetrics(MetricsRegistry* registry,
                                  const std::string& prefix) const {
  CostModel::ExportMetrics(registry, prefix);
  registry->SetGauge(prefix + ".samples", static_cast<double>(num_samples()));
}

namespace {

constexpr char kModelMagic[8] = {'A', 'N', 'S', 'R', 'G', 'B', 'M', '1'};
constexpr size_t kModelMagicSize = sizeof(kModelMagic);
constexpr uint64_t kMaxModelSamples = 1u << 28;

}  // namespace

std::string GbdtCostModel::Serialize() const {
  // Body first so the string table (stage names interned by the feature
  // codec) is complete before it is written ahead of the body.
  StringTable strings;
  ByteWriter body;
  model_.EncodeTo(&body);
  body.PutVarint(samples_.size());
  for (size_t i = 0; i < samples_.size(); ++i) {
    EncodeFeatureMatrix(samples_[i], &strings, &body);
    body.PutF64(labels_raw_[i]);
    body.PutU64(task_ids_[i]);
  }
  // task_best_ in sorted task order: identical state must serialize to
  // identical bytes regardless of hash-map iteration order.
  std::vector<std::pair<uint64_t, double>> bests(task_best_.begin(), task_best_.end());
  std::sort(bests.begin(), bests.end());
  body.PutVarint(bests.size());
  for (const auto& [task, best] : bests) {
    body.PutU64(task);
    body.PutF64(best);
  }
  ByteWriter w;
  w.PutRaw(kModelMagic, kModelMagicSize);
  strings.Encode(&w);
  w.PutRaw(body.buffer().data(), body.size());
  return w.Take();
}

bool GbdtCostModel::Deserialize(const std::string& bytes) {
  if (bytes.size() < kModelMagicSize ||
      bytes.compare(0, kModelMagicSize, kModelMagic, kModelMagicSize) != 0) {
    return false;
  }
  ByteReader r(bytes);
  r.Skip(kModelMagicSize);
  StringTable strings;
  if (!strings.Decode(&r)) {
    return false;
  }
  Gbdt model;
  if (!model.DecodeFrom(&r)) {
    return false;
  }
  uint64_t num_samples = r.GetVarint();
  if (!r.ok() || num_samples > kMaxModelSamples) {
    return false;
  }
  std::vector<FeatureMatrix> samples;
  std::vector<double> labels;
  std::vector<uint64_t> task_ids;
  samples.reserve(num_samples);
  labels.reserve(num_samples);
  task_ids.reserve(num_samples);
  for (uint64_t i = 0; i < num_samples; ++i) {
    FeatureMatrix m;
    if (!DecodeFeatureMatrix(&r, strings.strings(), &m)) {
      return false;
    }
    double label = r.GetF64();
    uint64_t task = r.GetU64();
    // Retrain concatenates every sample into one matrix: widths must agree.
    if (!r.ok() || !std::isfinite(label) || label < 0.0 ||
        (!samples.empty() && m.dim() != samples.front().dim())) {
      return false;
    }
    samples.push_back(std::move(m));
    labels.push_back(label);
    task_ids.push_back(task);
  }
  // Prediction rows come from the extractor that produced the samples, so a
  // split on a column the samples lack would read past the end of every row.
  size_t dim = samples.empty() ? 0 : samples.front().dim();
  if (model.trained() && samples.empty()) {
    return false;
  }
  for (const Tree& tree : model.trees()) {
    for (const TreeNode& node : tree.nodes) {
      if (node.feature >= 0 && static_cast<size_t>(node.feature) >= dim) {
        return false;
      }
    }
  }
  uint64_t num_bests = r.GetVarint();
  if (!r.ok() || num_bests > kMaxModelSamples) {
    return false;
  }
  std::unordered_map<uint64_t, double> bests;
  for (uint64_t i = 0; i < num_bests; ++i) {
    uint64_t task = r.GetU64();
    double best = r.GetF64();
    if (!r.ok() || !std::isfinite(best)) {
      return false;
    }
    bests[task] = best;
  }
  if (!r.AtEnd()) {
    return false;  // trailing garbage: refuse, the container is inconsistent
  }
  params_ = model.params();
  model_ = std::move(model);
  samples_ = std::move(samples);
  labels_raw_ = std::move(labels);
  task_ids_ = std::move(task_ids);
  task_best_ = std::move(bests);
  BumpVersion();  // any memoized stage scores elsewhere are now stale
  return true;
}

bool GbdtCostModel::SaveToFile(const std::string& path) const {
  return WriteFileBytes(path, Serialize());
}

bool GbdtCostModel::LoadFromFile(const std::string& path) {
  std::string bytes;
  return ReadFileBytes(path, &bytes) && Deserialize(bytes);
}

std::vector<double> GbdtCostModel::Predict(
    const std::vector<FeatureMatrix>& program_features) {
  std::vector<const FeatureMatrix*> ptrs;
  ptrs.reserve(program_features.size());
  for (const FeatureMatrix& m : program_features) {
    ptrs.push_back(&m);
  }
  return PredictBatch(ptrs);
}

std::vector<double> GbdtCostModel::PredictBatch(
    const std::vector<const FeatureMatrix*>& programs) {
  CountPredict(static_cast<int64_t>(programs.size()));
  std::vector<double> scores;
  scores.reserve(programs.size());
  for (const FeatureMatrix* m : programs) {
    if (m->empty()) {
      scores.push_back(kInvalidScore);  // empty features: failed lowering
      continue;
    }
    // base + s0 + s1 + ... in row order, so a program's score never depends
    // on which batch it was scored in.
    double score = model_.trained() ? model_.base_score() : 0.0;
    for (double s : StatementScores(*m)) {
      score += s;
    }
    scores.push_back(score);
  }
  return scores;
}

std::vector<double> GbdtCostModel::PredictStatements(const FeatureMatrix& rows) {
  CountPredict(1);
  return StatementScores(rows);
}

std::vector<std::vector<double>> GbdtCostModel::PredictStatementsBatch(
    const std::vector<const FeatureMatrix*>& programs) {
  CountPredict(static_cast<int64_t>(programs.size()));
  std::vector<std::vector<double>> scores;
  scores.reserve(programs.size());
  for (const FeatureMatrix* m : programs) {
    scores.push_back(StatementScores(*m));
  }
  return scores;
}

std::vector<double> GbdtCostModel::StatementScores(const FeatureMatrix& rows) const {
  std::vector<double> scores(rows.rows());
  for (size_t r = 0; r < scores.size(); ++r) {
    scores[r] = model_.PredictRow(rows.row(r));  // 0.0 while untrained
  }
  return scores;
}

std::vector<double> RandomCostModel::Predict(
    const std::vector<FeatureMatrix>& program_features) {
  CountPredict(static_cast<int64_t>(program_features.size()));
  std::vector<double> scores;
  scores.reserve(program_features.size());
  for (const FeatureMatrix& m : program_features) {
    scores.push_back(m.empty() ? kInvalidScore : rng_.Uniform());
  }
  return scores;
}

std::vector<double> RandomCostModel::PredictBatch(
    const std::vector<const FeatureMatrix*>& programs) {
  // Same draws as Predict, without the default implementation's deep copy of
  // feature matrices it would never read.
  CountPredict(static_cast<int64_t>(programs.size()));
  std::vector<double> scores;
  scores.reserve(programs.size());
  for (const FeatureMatrix* m : programs) {
    scores.push_back(m->empty() ? kInvalidScore : rng_.Uniform());
  }
  return scores;
}

std::vector<double> RandomCostModel::PredictStatements(const FeatureMatrix& rows) {
  // Stateless by design (see the class comment): each row's score derives
  // from its contents and the seed, never from how many rows were scored
  // before, so memoized statement scores replay bit-identically.
  std::vector<double> scores;
  scores.reserve(rows.rows());
  for (size_t r = 0; r < rows.rows(); ++r) {
    const float* row = rows.row(r);
    uint64_t h = seed_ ^ 0x517cc1b727220a95ULL;
    for (size_t f = 0; f < rows.dim(); ++f) {
      uint32_t bits = 0;
      std::memcpy(&bits, &row[f], sizeof(bits));
      HashCombine(&h, bits);
    }
    scores.push_back(Rng(h).Uniform());
  }
  return scores;
}

}  // namespace ansor

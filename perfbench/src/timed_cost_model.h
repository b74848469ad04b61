// A forwarding CostModel that times every call into the model it wraps.
//
// The search memoizes crossover stage scores on cached artifacts under the
// (model_id, version) stamp of the model it talks to — here, the decorator.
// The decorator therefore bumps its own version after every forwarded
// Update; without that, memos computed before a retrain would be served as
// fresh and search results would change silently.
#ifndef PERFBENCH_SRC_TIMED_COST_MODEL_H_
#define PERFBENCH_SRC_TIMED_COST_MODEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/costmodel/cost_model.h"

namespace perfbench {

class TimedCostModel : public ansor::CostModel {
 public:
  explicit TimedCostModel(ansor::CostModel* inner) : inner_(inner) {}

  void Update(uint64_t task_id, const std::vector<ansor::FeatureMatrix>& features,
              const std::vector<double>& throughputs) override {
    const int64_t start = NowNanos();
    inner_->Update(task_id, features, throughputs);
    const int64_t elapsed = NowNanos() - start;
    BumpVersion();
    CountTrain();
    train_nanos_.fetch_add(elapsed, std::memory_order_relaxed);
    train_last_nanos_.store(elapsed, std::memory_order_relaxed);
  }

  std::vector<double> Predict(const std::vector<ansor::FeatureMatrix>& features) override {
    const int64_t start = NowNanos();
    std::vector<double> scores = inner_->Predict(features);
    Charge(start, static_cast<int64_t>(features.size()));
    return scores;
  }

  std::vector<double> PredictBatch(
      const std::vector<const ansor::FeatureMatrix*>& programs) override {
    const int64_t start = NowNanos();
    std::vector<double> scores = inner_->PredictBatch(programs);
    Charge(start, static_cast<int64_t>(programs.size()));
    return scores;
  }

  std::vector<double> PredictStatements(const ansor::FeatureMatrix& rows) override {
    const int64_t start = NowNanos();
    std::vector<double> scores = inner_->PredictStatements(rows);
    Charge(start, 1);
    return scores;
  }

  std::vector<std::vector<double>> PredictStatementsBatch(
      const std::vector<const ansor::FeatureMatrix*>& programs) override {
    const int64_t start = NowNanos();
    std::vector<std::vector<double>> scores = inner_->PredictStatementsBatch(programs);
    Charge(start, static_cast<int64_t>(programs.size()));
    return scores;
  }

  // Seconds spent in forwarded calls, summed over the threads that made them.
  double train_seconds() const { return 1e-9 * static_cast<double>(train_nanos_.load()); }
  double train_last_seconds() const {
    return 1e-9 * static_cast<double>(train_last_nanos_.load());
  }
  double predict_seconds() const {
    return 1e-9 * static_cast<double>(predict_nanos_.load());
  }

 private:
  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void Charge(int64_t start, int64_t programs) {
    predict_nanos_.fetch_add(NowNanos() - start, std::memory_order_relaxed);
    CountPredict(programs);
  }

  ansor::CostModel* inner_;
  std::atomic<int64_t> train_nanos_{0};
  std::atomic<int64_t> train_last_nanos_{0};
  std::atomic<int64_t> predict_nanos_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMED_COST_MODEL_H_

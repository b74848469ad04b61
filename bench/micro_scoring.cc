// Micro-benchmark for the scoring stack (paper §5.2): feature-extraction
// throughput over the flat FeatureMatrix path, GBDT prediction throughput
// through GbdtCostModel::PredictBatch (the evolution hot path), and GBDT
// training throughput from scratch at ~1k and ~4k statement rows of history
// (the per-round retrain). Emits one "BENCH_JSON {...}" line for
// bench/BENCH_micro_scoring.json.
#include <chrono>

#include "bench/bench_util.h"
#include "src/program/program_cache.h"

namespace ansor {
namespace bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int Run() {
  ComputeDAG dag = MakeMatmul(64, 64, 64);
  Rng init_rng(1);
  ProgramCache cache;
  auto population = SampleLowerablePopulation(&dag, 16, &init_rng, SamplerOptions(),
                                              SketchOptions(), &cache);

  PrintHeader("micro_scoring: feature extraction + GBDT statement prediction");

  // --- Feature extraction over pre-lowered programs -------------------------
  std::vector<LoweredProgram> lowered;
  lowered.reserve(population.size());
  for (const State& s : population) {
    lowered.push_back(Lower(s));
  }
  int extract_repeats = std::max(1, static_cast<int>(60 * Scale()));
  size_t rows_extracted = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < extract_repeats; ++r) {
    for (const LoweredProgram& prog : lowered) {
      FeatureMatrix m = ExtractFeatures(prog);
      rows_extracted += m.rows();
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  double extract_elapsed = Seconds(t0, t1);
  double extract_rows_per_sec =
      static_cast<double>(rows_extracted) / std::max(extract_elapsed, 1e-12);
  std::printf("extracted %zu rows in %.3f s (%.0f rows/sec, %d repeats x %zu programs)\n",
              rows_extracted, extract_elapsed, extract_rows_per_sec, extract_repeats,
              lowered.size());

  // --- Train the cost model on simulated measurements -----------------------
  Measurer measurer(MachineModel::IntelCpu20Core());
  GbdtCostModel model;
  std::vector<FeatureMatrix> features;
  std::vector<double> throughputs;
  for (const State& s : population) {
    features.push_back(cache.GetOrBuild(s)->features());
    MeasureResult r = measurer.Measure(s, &cache);
    throughputs.push_back(r.valid ? r.throughput : 0.0);
  }
  model.Update(dag.CanonicalHash(), features, throughputs);
  size_t n_trees = model.gbdt().trees().size();

  // --- Batch prediction -----------------------------------------------------
  // Replicate the population up to a realistic evolution-wave row count (one
  // Evolve generation scores hundreds of programs in one batch).
  std::vector<const FeatureMatrix*> batch;
  size_t rows = 0;
  while (rows < 4096) {
    for (const FeatureMatrix& m : features) {
      batch.push_back(&m);
      rows += m.rows();
    }
  }
  int predict_repeats = std::max(1, static_cast<int>(240 * Scale()));
  t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < predict_repeats; ++rep) {
    model.PredictBatch(batch);
  }
  t1 = std::chrono::steady_clock::now();
  double predict_elapsed = Seconds(t0, t1);
  double predict_rows_per_sec = static_cast<double>(rows) *
                                static_cast<double>(predict_repeats) /
                                std::max(predict_elapsed, 1e-12);
  std::printf("predicted %zu programs / %zu rows x %d repeats with %zu trees in %.3f s "
              "(%.0f rows/sec)\n",
              batch.size(), rows, predict_repeats, n_trees, predict_elapsed,
              predict_rows_per_sec);

  // --- Training from scratch vs accumulated history ------------------------
  // Every measurement round retrains the model on the whole history (paper
  // §5.2), so train time grows with the samples. Sample real programs of a
  // ConvLayer subgraph until ~4k statement rows, then time Update (one full
  // retrain) on the first ~1k rows and on all of them.
  ComputeDAG conv = MakeConvLayer(1, 64, 28, 28, 64, 3, 3, 1, 1);
  Rng train_rng(2);
  ProgramCache train_cache;
  Measurer train_measurer(MachineModel::IntelCpu20Core());
  std::vector<FeatureMatrix> history;
  std::vector<double> history_throughputs;
  size_t history_rows = 0;
  while (history_rows < 4096) {
    std::vector<State> wave = SampleLowerablePopulation(&conv, 64, &train_rng, SamplerOptions(),
                                                        SketchOptions(), &train_cache);
    if (wave.empty()) {
      break;
    }
    for (const State& s : wave) {
      history.push_back(train_cache.GetOrBuild(s)->features());
      history_rows += history.back().rows();
      MeasureResult r = train_measurer.Measure(s, &train_cache);
      history_throughputs.push_back(r.valid ? r.throughput : 0.0);
    }
  }
  int train_repeats = std::max(1, static_cast<int>(5 * Scale()));
  size_t train_rows[2] = {0, 0};
  size_t train_programs[2] = {0, 0};
  double train_s[2] = {0.0, 0.0};  // seconds per retrain
  const size_t kTrainTargets[2] = {1024, 4096};
  for (int k = 0; k < 2; ++k) {
    size_t& n = train_programs[k];
    while (n < history.size() && train_rows[k] < kTrainTargets[k]) {
      train_rows[k] += history[n++].rows();
    }
    std::vector<FeatureMatrix> programs(history.begin(), history.begin() + n);
    std::vector<double> throughputs(history_throughputs.begin(),
                                    history_throughputs.begin() + n);
    t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < train_repeats; ++rep) {
      GbdtCostModel fresh;
      fresh.Update(conv.CanonicalHash(), programs, throughputs);
    }
    t1 = std::chrono::steady_clock::now();
    train_s[k] = Seconds(t0, t1) / train_repeats;
    std::printf("trained on %zu programs / %zu rows in %.4f s (%.0f rows/sec, %d repeats)\n",
                n, train_rows[k], train_s[k],
                static_cast<double>(train_rows[k]) / std::max(train_s[k], 1e-12),
                train_repeats);
  }
  double train_rows_per_sec = static_cast<double>(train_rows[1]) / std::max(train_s[1], 1e-12);

  MetricsRegistry registry;
  registry.SetGauge("scoring.extract_rows_per_sec", extract_rows_per_sec, "rows/s");
  registry.SetGauge("scoring.predict_rows_per_sec", predict_rows_per_sec, "rows/s");
  registry.SetGauge("scoring.train_rows_per_sec", train_rows_per_sec, "rows/s");
  registry.SetGauge("scoring.train_s_1k", train_s[0], "s");
  registry.SetGauge("scoring.train_s_4k", train_s[1], "s");
  cache.ExportMetrics(&registry, "cache");
  measurer.ExportMetrics(&registry, "measurer");
  model.ExportMetrics(&registry, "model");

  std::printf("BENCH_JSON {\"bench\":\"micro_scoring\",\"extract_rows_per_sec\":%.1f,"
              "\"predict_rows_per_sec\":%.1f,\"rows\":%zu,\"trees\":%zu,"
              "\"train_rows_per_sec\":%.1f,\"train_rows\":[%zu,%zu],"
              "\"train_programs\":[%zu,%zu],\"train_s\":[%.6f,%.6f],%s}\n",
              extract_rows_per_sec, predict_rows_per_sec, rows, n_trees, train_rows_per_sec,
              train_rows[0], train_rows[1], train_programs[0], train_programs[1], train_s[0],
              train_s[1], MetricsBlock(registry).c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ansor

int main() { return ansor::bench::Run(); }

// Micro-benchmark for the persistence layer (src/store/): the three wins the
// fleet-scale store exists for, measured on one machine.
//
//  1. Codec: a >=100k-record log of real sampled programs, replicated across
//     synthetic task ids the way a fleet's history replicates structurally
//     similar tasks. Binary container size, load wall time (file -> records)
//     and store rebuild wall time (decode + re-index).
//  2. Warm start: cold artifact compilation (replay + lower + verify +
//     features) vs restoring the same artifacts from a serialized
//     ArtifactStore snapshot and serving them as cache hits.
//  3. Transfer: a GBDT pretrained from the store's history of a related task
//     (TrainFromStore) vs a cold model, same search, same fixed trial budget.
//
// Emits one "BENCH_JSON {...}" line for bench/BENCH_micro_store.json.
#include <chrono>
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "src/program/program_cache.h"
#include "src/store/artifact_store.h"
#include "src/store/bytes.h"
#include "src/store/record_store.h"

namespace ansor {
namespace bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int Run() {
  PrintHeader("micro_store: binary codec, warm start, transfer-learned model");

  // --- Build the corpus: real programs, fleet-scale record count ------------
  // ConvLayer programs carry realistic step lists (~23 steps: multi-stage
  // tiling, cache writes, annotations) — the regime the interned step table
  // is built for. The corpus replicates them across synthetic task ids the
  // way a fleet's history repeats structurally similar tasks.
  ComputeDAG corpus_dag = MakeConvLayer(1, 32, 28, 28, 32, 3, 3, 1, 1);
  Rng rng(7);
  ProgramCache corpus_cache;
  auto corpus = SampleLowerablePopulation(&corpus_dag, 24, &rng, SamplerOptions(),
                                          SketchOptions(), &corpus_cache);

  size_t target_records = std::max<size_t>(2000, static_cast<size_t>(100000 * Scale()));
  size_t tasks = (target_records + corpus.size() - 1) / corpus.size();
  RecordStore store;
  for (size_t t = 0; t < tasks; ++t) {
    uint64_t task_id = 0x9e3779b97f4a7c15ULL * (t + 1);
    for (size_t p = 0; p < corpus.size(); ++p) {
      TuningRecord record;
      record.task_id = task_id;
      record.seconds = 1e-3 * (1.0 + 0.01 * static_cast<double>(p + t % 7));
      record.throughput = corpus_dag.FlopCount() / record.seconds;
      record.steps = corpus[p].steps();
      store.Add(std::move(record));
    }
  }
  size_t n_records = store.size();

  // --- 1. Codec: size + load time -------------------------------------------
  std::string binary_path = "bench_micro_store_records.bin";
  store.SaveToFile(binary_path);
  size_t binary_bytes = store.Serialize().size();

  // Two load shapes: the streaming reader (file -> records, the codec cost
  // alone) and a full store rebuild (decode + re-index into a fresh
  // RecordStore, what a restarting service pays end to end).
  auto time_stream = [&] {
    size_t seen = 0;
    auto t0 = std::chrono::steady_clock::now();
    std::string bytes;
    RecordLoadStats stats;
    if (ReadFileBytes(binary_path, &bytes)) {
      stats = RecordStore::ForEachRecord(bytes, [&seen](TuningRecord) { ++seen; });
    }
    auto t1 = std::chrono::steady_clock::now();
    if (!stats || seen != n_records) {
      std::printf("ERROR: streamed %zu/%zu records\n", seen, n_records);
      return -1.0;
    }
    return Seconds(t0, t1);
  };
  auto time_load = [&] {
    // Dedup off: loading is a pure decode pass, matching what a restarting
    // fleet service does before dedup re-filters.
    RecordStore loaded(RecordStore::Options{false});
    auto t0 = std::chrono::steady_clock::now();
    RecordLoadStats stats = loaded.LoadFromFile(binary_path);
    auto t1 = std::chrono::steady_clock::now();
    if (!stats || stats.loaded != n_records) {
      std::printf("ERROR: loaded %zu/%zu records\n", stats.loaded, n_records);
      return -1.0;
    }
    return Seconds(t0, t1);
  };
  auto best_of = [](const std::function<double()>& run) {
    double best = run();
    double again = run();
    if (best < 0 || again < 0) {
      return -1.0;
    }
    return std::min(best, again);
  };
  double binary_load_sec = best_of(time_stream);
  double binary_rebuild_sec = best_of(time_load);
  std::remove(binary_path.c_str());
  if (binary_load_sec < 0 || binary_rebuild_sec < 0) {
    return 1;
  }
  std::printf("%zu records: %zu bytes (%.1f bytes/record)\n", n_records, binary_bytes,
              static_cast<double>(binary_bytes) /
                  static_cast<double>(std::max<size_t>(n_records, 1)));
  std::printf("load (file -> records) %.3f s, store rebuild (+ re-index) %.3f s\n",
              binary_load_sec, binary_rebuild_sec);

  // --- 2. Warm start vs cold compilation ------------------------------------
  ComputeDAG dag = MakeMatmul(64, 64, 64);
  auto shared_dag = std::make_shared<const ComputeDAG>(dag);
  ProgramCache sample_cache;
  auto population = SampleLowerablePopulation(&dag, 64, &rng, SamplerOptions(),
                                              SketchOptions(), &sample_cache);
  ProgramCache cold_cache;
  auto t0 = std::chrono::steady_clock::now();
  for (const State& s : population) {
    cold_cache.GetOrBuild(s);
  }
  auto t1 = std::chrono::steady_clock::now();
  double cold_build_sec = Seconds(t0, t1);

  ArtifactStore artifacts;
  artifacts.CaptureCache(cold_cache);
  std::string artifact_bytes = artifacts.Serialize();

  t0 = std::chrono::steady_clock::now();
  ArtifactStore restored;
  restored.Deserialize(artifact_bytes);
  ProgramCache warm_cache;
  restored.WarmCache(&warm_cache, shared_dag);
  for (const State& s : population) {
    warm_cache.GetOrBuild(s);
  }
  t1 = std::chrono::steady_clock::now();
  double warm_start_sec = Seconds(t0, t1);
  ProgramCacheStats warm_stats = warm_cache.stats();
  double warm_speedup = cold_build_sec / std::max(warm_start_sec, 1e-12);
  std::printf("artifact snapshot: %zu bytes for %zu programs\n", artifact_bytes.size(),
              population.size());
  std::printf("cold compile %.3f s, warm restore+serve %.3f s (%.2fx), misses after "
              "warm: %lld\n",
              cold_build_sec, warm_start_sec, warm_speedup,
              static_cast<long long>(warm_stats.misses));

  // --- 3. Pretrained vs cold cost model at a fixed budget -------------------
  // History task: tune a related matmul with the store attached, capturing
  // records + artifacts — the fleet state a new tenant would inherit.
  SearchOptions search = FastSearchOptions();
  search.seed = 11;
  // History gets a full tuning run; the target gets a *small* budget — the
  // regime transfer exists for (a new tenant's first rounds, before its own
  // measurements accumulate).
  int history_budget = ScaledTrials(96);
  int budget = ScaledTrials(48);
  int per_round = 16;

  RecordStore history;
  ProgramCache history_cache;
  ArtifactStore history_artifacts;
  {
    SearchTask related = MakeSearchTask("mm_history", MakeMatmul(64, 64, 64));
    Measurer measurer(MachineModel::IntelCpu20Core());
    GbdtCostModel model;
    SearchOptions opts = search;
    opts.record_store = &history;
    opts.program_cache = &history_cache;
    TuneTask(related, &measurer, &model, history_budget, per_round, opts);
    history_artifacts.CaptureCache(history_cache);
  }

  GbdtCostModel pretrained;
  TrainFromStoreStats train_stats = pretrained.TrainFromStore(history, history_artifacts);
  std::printf("pretrained from store: %zu samples (%zu without features)\n",
              train_stats.used, train_stats.missing_features);

  SearchTask target = MakeSearchTask("mm_target", MakeMatmul(96, 96, 64));
  double cold_best = 0.0;
  double pretrained_best = 0.0;
  {
    Measurer measurer(MachineModel::IntelCpu20Core());
    GbdtCostModel cold_model;
    cold_best = TuneTask(target, &measurer, &cold_model, budget, per_round, search)
                    .best_seconds;
  }
  {
    Measurer measurer(MachineModel::IntelCpu20Core());
    pretrained_best =
        TuneTask(target, &measurer, &pretrained, budget, per_round, search).best_seconds;
  }
  double transfer_gain = cold_best / std::max(pretrained_best, 1e-12);
  std::printf("fixed budget of %d trials: cold best %.6g s, pretrained best %.6g s "
              "(%.3fx)\n",
              budget, cold_best, pretrained_best, transfer_gain);

  MetricsRegistry registry;
  registry.SetGauge("store.binary_bytes", static_cast<double>(binary_bytes), "bytes");
  registry.SetGauge("store.warm_speedup", warm_speedup, "ratio");
  registry.SetGauge("store.transfer_gain", transfer_gain, "ratio");
  history.ExportMetrics(&registry, "store");
  warm_cache.ExportMetrics(&registry, "cache");
  pretrained.ExportMetrics(&registry, "model");

  std::printf(
      "BENCH_JSON {\"bench\":\"micro_store\",\"records\":%zu,"
      "\"binary_bytes\":%zu,\"binary_load_sec\":%.4f,\"binary_rebuild_sec\":%.4f,"
      "\"cold_build_sec\":%.4f,\"warm_start_sec\":%.4f,\"warm_speedup\":%.3f,"
      "\"warm_misses\":%lld,\"train_from_store_samples\":%zu,"
      "\"cold_best_seconds\":%.6g,\"pretrained_best_seconds\":%.6g,"
      "\"transfer_gain\":%.3f,%s}\n",
      n_records, binary_bytes, binary_load_sec, binary_rebuild_sec, cold_build_sec,
      warm_start_sec, warm_speedup,
      static_cast<long long>(warm_stats.misses), train_stats.used, cold_best,
      pretrained_best, transfer_gain, MetricsBlock(registry).c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ansor

int main() { return ansor::bench::Run(); }

#include "perfbench/src/probes.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/analysis/program_verifier.h"
#include "src/features/feature_extraction.h"
#include "src/hwsim/measurer.h"
#include "src/lower/loop_tree.h"
#include "src/sampler/annotation.h"
#include "src/sketch/sketch.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kSampleSize = 64;
// Each timed loop runs over the whole sample this many times.
constexpr int kRepeats = 5;
constexpr int kEvolveOut = 16;

double MicrosPer(Clock::time_point start, int64_t calls) {
  double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return calls > 0 ? 1e6 * seconds / static_cast<double>(calls) : 0.0;
}

struct SampledProgram {
  size_t job = 0;
  ansor::State state;
};

}  // namespace

ProbeResults RunProbes(const WorkloadSpec& workload, const RepResult& rep, uint64_t seed) {
  ProbeResults out;
  const PhaseResult& phase = rep.cold;
  ansor::Rng rng(seed ^ 0x70726F6265ULL);

  std::unordered_map<uint64_t, std::shared_ptr<const ansor::ComputeDAG>> dags;
  for (const ansor::NetworkTasks& net : phase.networks) {
    for (const ansor::SearchTask& task : net.tasks) {
      dags.emplace(task.task_id(), task.dag);
    }
  }
  std::vector<std::pair<size_t, const ansor::TuningRecord*>> records;
  for (size_t j = 0; j < phase.logs.size(); ++j) {
    for (const ansor::TuningRecord& r : phase.logs[j]->records()) {
      records.emplace_back(j, &r);
    }
  }
  if (records.empty()) {
    return out;
  }
  std::vector<SampledProgram> sample;
  for (size_t k = 0; k < kSampleSize; ++k) {
    auto [job, record] = records[rng.Index(records.size())];
    ansor::State state = ansor::State::Replay(dags.at(record->task_id).get(), record->steps);
    if (!state.failed()) {
      sample.push_back({job, std::move(state)});
    }
  }
  out.sample_size = static_cast<int64_t>(sample.size());
  if (sample.empty()) {
    return out;
  }

  // Sketch generation over every task of the workload.
  Clock::time_point t = Clock::now();
  int64_t calls = 0;
  for (int r = 0; r < kRepeats; ++r) {
    for (const auto& [id, dag] : dags) {
      ansor::GenerateSketches(dag.get());
      ++calls;
    }
  }
  out.sketch_generate_us = MicrosPer(t, calls);

  // Random sampling from the sketches of the sampled programs' tasks.
  std::unordered_map<const ansor::ComputeDAG*, std::vector<ansor::State>> sketches;
  for (const SampledProgram& p : sample) {
    const ansor::ComputeDAG* dag = p.state.dag();
    if (sketches.find(dag) == sketches.end()) {
      sketches.emplace(dag, ansor::GenerateSketches(dag));
    }
  }
  t = Clock::now();
  calls = 0;
  for (int r = 0; r < kRepeats; ++r) {
    for (const SampledProgram& p : sample) {
      const std::vector<ansor::State>& options = sketches.at(p.state.dag());
      if (!options.empty()) {
        ansor::SampleCompleteProgram(options[rng.Index(options.size())], p.state.dag(), &rng);
        ++calls;
      }
    }
  }
  out.sampler_sample_us = MicrosPer(t, calls);

  // Lowering, feature extraction and static verification.
  std::vector<ansor::LoweredProgram> lowered;
  t = Clock::now();
  for (int r = 0; r < kRepeats; ++r) {
    lowered.clear();
    for (const SampledProgram& p : sample) {
      lowered.push_back(ansor::Lower(p.state));
    }
  }
  out.lower_us = MicrosPer(t, kRepeats * static_cast<int64_t>(sample.size()));

  std::vector<ansor::FeatureMatrix> features;
  t = Clock::now();
  for (int r = 0; r < kRepeats; ++r) {
    features.clear();
    for (const ansor::LoweredProgram& program : lowered) {
      features.push_back(ansor::ExtractFeatures(program));
    }
  }
  out.features_us = MicrosPer(t, kRepeats * static_cast<int64_t>(sample.size()));

  t = Clock::now();
  for (int r = 0; r < kRepeats; ++r) {
    for (size_t i = 0; i < sample.size(); ++i) {
      ansor::VerifyProgram(sample[i].state, lowered[i]);
    }
  }
  out.verify_us = MicrosPer(t, kRepeats * static_cast<int64_t>(sample.size()));

  // Simulation alone: the first pass compiles into the cache, the timed
  // passes measure from it.
  ansor::Measurer measurer(ansor::MachineModel::IntelCpu20Core());
  ansor::ProgramCache cache;
  for (const SampledProgram& p : sample) {
    measurer.Measure(p.state, &cache);
  }
  t = Clock::now();
  for (int r = 0; r < kRepeats; ++r) {
    for (const SampledProgram& p : sample) {
      measurer.Measure(p.state, &cache);
    }
  }
  out.simulate_us = MicrosPer(t, kRepeats * static_cast<int64_t>(sample.size()));

  // Prediction by the first job's trained model.
  ansor::GbdtCostModel* model = phase.models.front().get();
  t = Clock::now();
  for (int r = 0; r < kRepeats; ++r) {
    model->Predict(features);
  }
  out.predict_us_per_program = MicrosPer(t, kRepeats * static_cast<int64_t>(features.size()));

  // One evolution seeded with up to a population of the first sampled
  // task's recorded programs.
  const size_t job = sample.front().job;
  const ansor::ComputeDAG* dag = sample.front().state.dag();
  const TenantSpec& tenant = workload.tenants[job];
  std::vector<ansor::State> init;
  for (const ansor::TuningRecord& r : phase.logs[job]->records()) {
    if (r.task_id == dag->CanonicalHash()) {
      init.push_back(ansor::State::Replay(dag, r.steps));
    }
  }
  rng.Shuffle(&init);
  init.resize(std::min(init.size(), static_cast<size_t>(tenant.population)));
  ansor::ThreadPool pool(static_cast<size_t>(workload.num_workers));
  ansor::EvolutionOptions options;
  options.population = tenant.population;
  options.generations = tenant.generations;
  options.thread_pool = &pool;
  ansor::EvolutionarySearch search(dag, phase.models[job].get(),
                                   ansor::Rng(seed), options);
  t = Clock::now();
  search.Evolve(init, kEvolveOut);
  out.evolution_seconds = std::chrono::duration<double>(Clock::now() - t).count();
  out.evolution = search.stats();
  return out;
}

}  // namespace perfbench

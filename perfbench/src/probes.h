// Layer probes: time single calls into each layer's public functions on a
// fixed, seeded sample of the programs a rep actually measured.
#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <cstdint>

#include "perfbench/src/workloads.h"
#include "src/evolution/evolution.h"

namespace perfbench {

struct ProbeResults {
  int64_t sample_size = 0;       // replayed programs the probes ran on
  double sketch_generate_us = 0.0;   // GenerateSketches, per task
  double sampler_sample_us = 0.0;    // SampleCompleteProgram, per call
  double lower_us = 0.0;             // Lower, per program
  double features_us = 0.0;          // ExtractFeatures, per program
  double verify_us = 0.0;            // VerifyProgram, per program
  double simulate_us = 0.0;          // Measurer::Measure on a compiled program
  double predict_us_per_program = 0.0;  // CostModel::Predict
  // One Evolve() call seeded with the sample, against the rep's trained model.
  ansor::EvolutionStats evolution;
  double evolution_seconds = 0.0;
};

ProbeResults RunProbes(const WorkloadSpec& workload, const RepResult& rep, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_

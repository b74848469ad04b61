// Micro-benchmarks of the substrate components (google-benchmark): sketch
// generation, program sampling, lowering, interpretation, feature extraction,
// cost-model prediction / training and hardware simulation. These bound the
// search overhead per candidate ("it takes about one to two seconds to
// compile one program and measure it" on real hardware — our simulated
// measurement is orders of magnitude cheaper, which is what lets the test
// suite and figure benches run quickly).
#include <benchmark/benchmark.h>

#include "src/core/ansor.h"
#include "src/exec/interpreter.h"
#include "src/sampler/annotation.h"
#include "src/sketch/sketch.h"

namespace ansor {
namespace {

const ComputeDAG& ConvDag() {
  static const ComputeDAG dag = MakeConv2d(1, 64, 28, 28, 64, 3, 3, 1, 1);
  return dag;
}

State SampledState() {
  static const std::vector<State> sketches = GenerateSketches(&ConvDag());
  Rng rng(5);
  for (;;) {
    State s = SampleCompleteProgram(sketches[0], &ConvDag(), &rng);
    if (!s.failed() && Lower(s).ok) {
      return s;
    }
  }
}

void BM_SketchGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto sketches = GenerateSketches(&ConvDag());
    benchmark::DoNotOptimize(sketches);
  }
}
BENCHMARK(BM_SketchGeneration);

void BM_SampleCompleteProgram(benchmark::State& state) {
  auto sketches = GenerateSketches(&ConvDag());
  Rng rng(7);
  for (auto _ : state) {
    State s = SampleCompleteProgram(sketches[0], &ConvDag(), &rng);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SampleCompleteProgram);

void BM_Lowering(benchmark::State& state) {
  State s = SampledState();
  for (auto _ : state) {
    LoweredProgram prog = Lower(s);
    benchmark::DoNotOptimize(prog);
  }
}
BENCHMARK(BM_Lowering);

void BM_FeatureExtraction(benchmark::State& state) {
  State s = SampledState();
  LoweredProgram prog = Lower(s);
  for (auto _ : state) {
    auto rows = ExtractFeatures(prog);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_HardwareSimulation(benchmark::State& state) {
  State s = SampledState();
  LoweredProgram prog = Lower(s);
  MachineModel machine = MachineModel::IntelCpu20Core();
  for (auto _ : state) {
    SimulatedCost cost = SimulateProgram(prog, machine);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_HardwareSimulation);

void BM_InterpreterSmallMatmul(benchmark::State& state) {
  ComputeDAG dag = MakeMatmul(16, 16, 16);
  State s(&dag);
  LoweredProgram prog = Lower(s);
  auto inputs = dag.RandomInputs(1);
  for (auto _ : state) {
    auto result = ExecuteProgram(prog, inputs);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_InterpreterSmallMatmul);

void BM_GbdtTraining(benchmark::State& state) {
  Rng rng(11);
  GbdtDataset data;
  for (int p = 0; p < 256; ++p) {
    for (int r = 0; r < 3; ++r) {
      std::vector<float> row(FeatureDim());
      for (auto& v : row) {
        v = static_cast<float>(rng.Uniform());
      }
      data.rows.AppendRow(row);
      data.group.push_back(p);
    }
    data.labels.push_back(rng.Uniform());
    data.weights.push_back(1.0);
  }
  for (auto _ : state) {
    Gbdt model;
    model.Train(data);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_GbdtTraining);

void BM_GbdtPrediction(benchmark::State& state) {
  Rng rng(13);
  GbdtDataset data;
  for (int p = 0; p < 128; ++p) {
    std::vector<float> row(FeatureDim());
    for (auto& v : row) {
      v = static_cast<float>(rng.Uniform());
    }
    data.rows.AppendRow(row);
    data.group.push_back(p);
    data.labels.push_back(rng.Uniform());
    data.weights.push_back(1.0);
  }
  Gbdt model;
  model.Train(data);
  std::vector<float> row(FeatureDim(), 0.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictRow(row.data()));
  }
}
BENCHMARK(BM_GbdtPrediction);

void BM_FullMeasurement(benchmark::State& state) {
  // One complete "trial": lower + simulate (what the paper pays 1-2 s of real
  // hardware time for).
  State s = SampledState();
  Measurer measurer(MachineModel::IntelCpu20Core());
  for (auto _ : state) {
    MeasureResult r = measurer.Measure(s);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FullMeasurement);

}  // namespace
}  // namespace ansor

BENCHMARK_MAIN();

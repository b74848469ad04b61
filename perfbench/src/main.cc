// End-to-end tuning benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>]
//
// --trace 0 repeats the workload a fixed number of times that takes about
// --seconds on an uncontended 4-vCPU machine (one tuning run through the
// TuningService per repetition, each with a seed derived from --seed), and
// reports end-to-end metrics over the repetitions.
// --trace 1 runs one traced repetition paired with an untraced one of the
// same seed (tracing overhead, and a check that tracing changes no result),
// folds the trace, runs the layer probes and reports per-layer metrics.
// Every repetition's output is checked; the report ends with one JSON line.
// Exits 1 without the JSON line when any output check fails.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/probes.h"
#include "perfbench/src/span_fold.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

// Set-up is sub-millisecond and its timing follows the host's load, so a
// run samples it this many times before the first rep and after each rep,
// and reports the median over all samples.
constexpr int kSetupSamplesPerPoint = 11;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Rep k of a run tunes with its own seed. One tuning run's cost depends on
// its seed (which tasks the scheduler favours, which programs it lowers and
// so how many statement rows the cost model trains on), so a run pools
// several seeds derived from --seed.
uint64_t RepSeed(uint64_t seed, int k) { return seed * 1000 + static_cast<uint64_t>(k); }
// Every untraced run makes at least this many reps.
constexpr int kMinReps = 3;
// No rep starts after kDeadlineFactor x --seconds (at most kDeadlineSeconds)
// of a run, so that on a slowed host a run still ends within 180 s and a
// series of runs within about 1.5 times its planned time.
constexpr double kDeadlineFactor = 1.5;
constexpr double kDeadlineSeconds = 120.0;

// The number of reps depends on --seconds alone, not on how fast this run
// goes, so every metric of a run depends only on the code, --seed and
// --seconds; a slowed host takes longer rather than measuring other seeds.
int RepsFor(const WorkloadSpec& workload, double seconds) {
  return std::max(kMinReps, static_cast<int>(std::lround(seconds / workload.rep_seconds)));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench-scratch";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value != "0";
    } else if (key == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// An ordered list of named metrics with units.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// Wall-clock throughput and turnaround of one rep.
Metrics WallClock(const RepResult& rep) {
  std::vector<double> turnarounds = rep.Turnarounds();
  return {
      {"trials_per_s", Ratio(static_cast<double>(rep.TrialsMeasured()), rep.WallSeconds()),
       "1/s"},
      {"job_turnaround_p50_s", Median(turnarounds), "s"},
      {"job_turnaround_max_s", *std::max_element(turnarounds.begin(), turnarounds.end()),
       "s"},
  };
}

double SelfSeconds(const std::map<std::string, SpanTotals>& fold,
                   std::initializer_list<const char*> names) {
  double total = 0.0;
  for (const char* name : names) {
    auto it = fold.find(name);
    if (it != fold.end()) {
      total += it->second.self_seconds;
    }
  }
  return total;
}

int64_t SpanCount(const std::map<std::string, SpanTotals>& fold, const char* name) {
  auto it = fold.find(name);
  return it == fold.end() ? 0 : it->second.count;
}

Metrics PerLayer(const RepResult& traced, const RepResult& untraced,
                 const ProbeResults& probes) {
  const std::vector<ansor::TraceEvent>& events = traced.events;
  std::map<std::string, SpanTotals> fold = FoldSelfTimes(events);
  const double wall = traced.WallSeconds();

  ansor::ProgramCacheStats cache = traced.cold.shared_cache;
  cache.hits += traced.warm.shared_cache.hits;
  cache.misses += traced.warm.shared_cache.misses;
  cache.evictions += traced.warm.shared_cache.evictions;
  cache.warm_inserts += traced.warm.shared_cache.warm_inserts;
  int64_t invalid = 0;
  int64_t cross_client_hits = 0;
  int64_t jobs = 0;
  double queue_seconds = 0.0;
  double overlap = 0.0;
  double measure_wall = 0.0;
  int64_t train_calls = 0;
  int64_t train_samples = 0;
  int64_t rounds = 0;
  double train_s = 0.0;
  double train_last_s = 0.0;
  double predict_s = 0.0;
  int64_t predicted = 0;
  for (const PhaseResult* phase : {&traced.cold, &traced.warm}) {
    for (const ansor::JobReport& r : phase->reports) {
      invalid += r.trials_invalid;
      cross_client_hits += r.cache.cross_client_hits;
      queue_seconds += r.queue_seconds;
      overlap += r.phases.overlap_seconds;
      measure_wall += r.phases.measure_wall_seconds;
      ++jobs;
    }
    for (const auto& model : phase->models) {
      train_calls += model->train_calls();
      train_samples += static_cast<int64_t>(model->num_samples());
    }
    rounds += phase->rounds_completed;
    train_s += phase->train_seconds;
    train_last_s = std::max(train_last_s, phase->train_last_seconds);
    predict_s += phase->predict_seconds;
    predicted += phase->programs_predicted;
  }
  const double lower_self = SelfSeconds(fold, {"lower"});
  const int64_t lower_calls = SpanCount(fold, "lower");
  int64_t warm_lower_calls = 0;
  if (traced.warm_start_nanos > 0) {
    for (const ansor::TraceEvent& e : events) {
      warm_lower_calls += e.name == "lower" && e.start_nanos >= traced.warm_start_nanos;
    }
  }
  const double features_self = SelfSeconds(fold, {"extract_features"});
  std::vector<double> queue_waits = NumericArgs(events, "measure_trial", "queue_seconds");
  double self_total = 0.0;
  for (const auto& [name, totals] : fold) {
    self_total += totals.self_seconds;
  }
  auto device_busy = fold.find("measure_trial");
  const StoreTimings& store = traced.store;

  Metrics out = WallClock(untraced);
  Metrics layers = {
      {"evolution.self_s", SelfSeconds(fold, {"evolution", "generation"}), "s"},
      {"evolution.children_per_s",
       Ratio(static_cast<double>(probes.evolution.children_generated),
             probes.evolution_seconds),
       "1/s"},
      {"evolution.child_accept_ratio",
       Ratio(static_cast<double>(probes.evolution.children_generated),
             static_cast<double>(probes.evolution.child_attempts)),
       "ratio"},
      {"evolution.crossover_score_hit_rate", probes.evolution.CacheHitRate(), "ratio"},
      {"search.plan_self_s", SelfSeconds(fold, {"plan_round"}), "s"},
      {"sampler.sample_us", probes.sampler_sample_us, "us"},
      {"sketch.generate_us", probes.sketch_generate_us, "us"},
      {"lower.calls", static_cast<double>(lower_calls), "count"},
      {"lower.warm_calls", static_cast<double>(warm_lower_calls), "count"},
      {"lower.self_s", lower_self, "s"},
      {"lower.us_per_call", lower_calls > 0 ? 1e6 * lower_self / lower_calls : 0.0, "us"},
      {"lower.probe_us", probes.lower_us, "us"},
      {"features.self_s", features_self, "s"},
      {"features.us_per_program",
       SpanCount(fold, "extract_features") > 0
           ? 1e6 * features_self / SpanCount(fold, "extract_features")
           : 0.0,
       "us"},
      {"features.probe_us", probes.features_us, "us"},
      {"analysis.verify_self_s", SelfSeconds(fold, {"verify_structural", "verify_resources"}),
       "s"},
      {"analysis.verify_probe_us", probes.verify_us, "us"},
      {"analysis.rejected",
       static_cast<double>(CountWithArg(events, "verify_structural", "outcome", "illegal") +
                           CountWithArg(events, "verify_structural", "outcome",
                                        "lowering_failed")),
       "count"},
      {"program.cache_hit_rate", cache.HitRate(), "ratio"},
      {"program.cache_misses", static_cast<double>(cache.misses), "count"},
      {"program.evictions", static_cast<double>(cache.evictions), "count"},
      {"program.warm_inserts", static_cast<double>(cache.warm_inserts), "count"},
      {"program.cross_client_hits", static_cast<double>(cross_client_hits), "count"},
      {"costmodel.train_s", train_s, "s"},
      {"costmodel.train_calls", static_cast<double>(train_calls), "count"},
      {"costmodel.train_samples", static_cast<double>(train_samples), "count"},
      {"costmodel.train_last_s", train_last_s, "s"},
      {"costmodel.predict_s", predict_s, "s"},
      {"costmodel.programs_predicted", static_cast<double>(predicted), "count"},
      {"costmodel.predict_us_per_program",
       predicted > 0 ? 1e6 * predict_s / static_cast<double>(predicted) : 0.0, "us"},
      {"costmodel.predict_probe_us", probes.predict_us_per_program, "us"},
      {"hwsim.trials", static_cast<double>(traced.TrialsMeasured()), "count"},
      {"hwsim.invalid", static_cast<double>(invalid), "count"},
      {"hwsim.device_busy_s",
       device_busy == fold.end() ? 0.0 : device_busy->second.inclusive_seconds, "s"},
      {"hwsim.queue_wait_p50_ms", 1e3 * Quantile(queue_waits, 0.50), "ms"},
      {"hwsim.queue_wait_p99_ms", 1e3 * Quantile(queue_waits, 0.99), "ms"},
      {"hwsim.simulate_us", probes.simulate_us, "us"},
      {"service.jobs", static_cast<double>(jobs), "count"},
      {"service.job_queue_s", queue_seconds, "s"},
      {"service.overlap_fraction", Ratio(overlap, measure_wall), "ratio"},
      {"store.save_s", store.save_seconds, "s"},
      {"store.save_bytes", static_cast<double>(store.save_bytes), "bytes"},
      {"store.load_s", store.load_seconds, "s"},
      {"store.records", static_cast<double>(store.records), "count"},
      {"store.dedup_ratio",
       Ratio(static_cast<double>(store.deduplicated),
             static_cast<double>(store.appended + store.deduplicated)),
       "ratio"},
      {"store.warm_load_s", store.warm_load_seconds, "s"},
      {"checkpoint_s", store.checkpoint_seconds, "s"},
      {"restart_s", store.restart_seconds, "s"},
      {"scheduler.rounds", static_cast<double>(rounds), "count"},
      {"support.cpu_s", untraced.cpu_seconds, "s"},
      {"support.cores_busy", Ratio(untraced.cpu_seconds, untraced.elapsed_seconds), "cores"},
      {"telemetry.overhead_frac", Ratio(wall, untraced.WallSeconds()) - 1.0, "ratio"},
      {"telemetry.self_coverage", Ratio(self_total, wall), "ratio"},
      {"trials_failed_frac",
       Ratio(static_cast<double>(traced.TrialsFailed()),
             static_cast<double>(traced.TrialsAttempted())),
       "ratio"},
  };
  out.insert(out.end(), layers.begin(), layers.end());
  return out;
}

void PrintReport(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintResultLine(int64_t attempted, int64_t failed, const Metrics& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              static_cast<long long>(attempted), static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  const Clock::time_point run_start = Clock::now();
  WorkloadSpec workload;
  if (!FindWorkload(args.workload, &workload)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.scratch, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.scratch.c_str());
    return 2;
  }
  std::vector<std::string> failures;
  int64_t attempted = 0;
  int64_t failed = 0;
  auto run_rep = [&](int k, bool traced) {
    const uint64_t seed = RepSeed(args.seed, k);
    RepResult rep = RunRep(workload, seed, traced, args.scratch);
    CheckRep(workload, rep, &failures);
    attempted += rep.TrialsAttempted();
    failed += rep.TrialsFailed();
    std::printf("rep %d seed %llu%s: best_latency_ms=%.6f wall_s=%.3f cpu_s=%.3f\n", k,
                static_cast<unsigned long long>(seed), traced ? " traced" : "",
                rep.cold.BestLatencyMs(), rep.WallSeconds(), rep.TuningCpuSeconds());
    std::fflush(stdout);
    return rep;
  };

  Metrics metrics;
  int reps = 1;  // traced runs make one untraced + traced pair
  if (!args.trace) {
    std::vector<double> setups;
    auto sample_setups = [&] {
      for (int i = 0; i < kSetupSamplesPerPoint; ++i) {
        setups.push_back(SetupSeconds(workload, args.seed));
      }
    };
    // Throughput is per CPU second of the whole process, summed over the
    // reps: on a shared host, other tenants take cores away from the run for
    // unpredictable spells, which stretches wall time (halving trials per
    // wall second on a loaded 4-vCPU VM) but not the CPU the tuning itself
    // spends. The wall-clock figures are per-layer metrics.
    int64_t trials = 0;
    double tuning_cpu_seconds = 0.0;
    std::vector<double> best_latencies;
    const int target_reps = RepsFor(workload, args.seconds);
    const double deadline = std::min(kDeadlineSeconds, kDeadlineFactor * args.seconds);
    sample_setups();
    for (reps = 0; reps < target_reps && (reps < kMinReps || SecondsSince(run_start) < deadline);
         ++reps) {
      {
        RepResult rep = run_rep(reps, /*traced=*/false);
        trials += rep.TrialsMeasured();
        tuning_cpu_seconds += rep.TuningCpuSeconds();
        best_latencies.push_back(rep.cold.BestLatencyMs());
      }
      // Hand the rep's freed heap back to the system, so that peak_rss_mb
      // is the largest rep's peak rather than a sum of allocator leftovers.
      malloc_trim(0);
      sample_setups();
    }
    if (reps < target_reps) {
      std::fprintf(stderr, "perfbench: only %d of %d reps fitted in %.0f s\n", reps,
                   target_reps, deadline);
    }
    metrics = {
        {"trials_per_cpu_s", Ratio(static_cast<double>(trials), tuning_cpu_seconds), "1/s"},
        {"best_latency_ms", Median(best_latencies), "ms"},
        {"setup_s", Median(setups), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    // Per-layer metrics carry no bound, so one traced rep is enough.
    RepResult untraced = run_rep(0, /*traced=*/false);
    RepResult traced = run_rep(0, /*traced=*/true);
    CheckSameResults(untraced, traced, "traced vs untraced", &failures);
    metrics = PerLayer(traced, untraced, RunProbes(workload, traced, RepSeed(args.seed, 0)));
  }
  if (!failures.empty()) {
    for (const std::string& f : failures) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
    }
    return 1;
  }

  std::printf("workload=%s seed=%llu reps=%d trace=%d elapsed_s=%.1f\n", workload.name.c_str(),
              static_cast<unsigned long long>(args.seed), reps, args.trace ? 1 : 0,
              SecondsSince(run_start));
  PrintReport(args.trace ? "per-layer" : "end-to-end", metrics);
  PrintResultLine(attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scratch <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}

// The benchmark's workloads and one repetition of each, driven through the
// public TuningService API.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/costmodel/cost_model.h"
#include "src/program/program_cache.h"
#include "src/search/record_log.h"
#include "src/service/tuning_service.h"
#include "src/store/artifact_store.h"
#include "src/telemetry/trace.h"
#include "src/workloads/suites.h"

namespace perfbench {

// One tenant = one tuning job over one network.
struct TenantSpec {
  ansor::NetworkTasks (*network)(int64_t batch) = nullptr;
  int total_rounds = 1;
  int measures_per_round = 16;
  int population = 64;
  int generations = 3;
};

struct WorkloadSpec {
  std::string name;
  std::vector<TenantSpec> tenants;
  // Threads doing work: the job drivers, the pool workers and, with a
  // device, its one thread; at most 4.
  int num_workers = 3;          // service pool workers
  int max_concurrent_jobs = 1;  // job drivers
  // > 0: every tenant measures on one shared single-thread device that
  // holds each trial for this long.
  double device_latency_seconds = 0.0;
  // A fleet RecordStore records every trial; after the cold phase the
  // service checkpoints, restarts warm from the checkpoint and resubmits the
  // same jobs.
  bool fleet_restart = false;
  // Wall time of one untraced rep, with its output checks, on an
  // uncontended 4-vCPU VM; sets how many reps fill --seconds.
  double rep_seconds = 5.0;
};

// Known workload names, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();
// Returns false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

// What one TuningService lifetime (a phase) produced.
struct PhaseResult {
  std::vector<ansor::NetworkTasks> networks;  // per job
  std::vector<ansor::JobReport> reports;      // per job
  std::vector<int64_t> budgets;               // per job: rounds x trials/round
  // Per-job record logs: every valid trial, for the replay checks and the
  // layer probes' program sample.
  std::vector<std::unique_ptr<ansor::RecordLog>> logs;
  // The jobs' cost models (the inner GBDT when the rep is traced).
  std::vector<std::unique_ptr<ansor::GbdtCostModel>> models;
  ansor::ProgramCacheStats shared_cache;
  double wall_seconds = 0.0;  // first Submit -> every job terminal
  double cpu_seconds = 0.0;   // process user+sys over the same interval
  int64_t rounds_completed = 0;  // the service's rounds counter
  // From the traced rep's timing decorators (zero when untraced).
  double train_seconds = 0.0;
  double train_last_seconds = 0.0;  // the slowest job's last Update
  double predict_seconds = 0.0;
  int64_t programs_predicted = 0;

  double BestLatencyMs() const;
};

struct StoreTimings {
  double checkpoint_seconds = 0.0;   // warm state + record store saves
  double restart_seconds = 0.0;      // record load + warm service construction
  double save_seconds = 0.0;         // RecordStore::SaveToFile
  double warm_save_seconds = 0.0;    // TuningService::SaveWarmState
  double load_seconds = 0.0;         // RecordStore::LoadFromFile
  double warm_load_seconds = 0.0;    // warm TuningService construction
  int64_t save_bytes = 0;            // both checkpoint files
  int64_t records = 0;               // records in the fleet store at checkpoint
  int64_t loaded = 0;                // records loaded back at restart
  ansor::ArtifactLoadStats warm_state;  // what the warm service loaded
  bool saved = false;                // both checkpoint files written
  int64_t appended = 0;              // fleet store counters after the warm phase
  int64_t deduplicated = 0;
};

struct RepResult {
  double setup_seconds = 0.0;    // rep start -> first Submit
  double elapsed_seconds = 0.0;  // the whole rep, wall clock
  double cpu_seconds = 0.0;      // process user+sys over the rep
  PhaseResult cold;
  PhaseResult warm;  // fleet_restart only
  StoreTimings store;
  std::vector<ansor::TraceEvent> events;  // traced reps only
  // Trace-clock reading when the warm phase began (fleet_restart only).
  int64_t warm_start_nanos = 0;

  // Wall time from first Submit until every job is terminal, over phases.
  double WallSeconds() const;
  // Process CPU time (every thread, user+sys) over the same intervals.
  double TuningCpuSeconds() const;
  int64_t TrialsMeasured() const;
  int64_t TrialsAttempted() const;
  int64_t TrialsFailed() const;
  std::vector<double> Turnarounds() const;
};

// Time to set a rep up without running it: build the networks, the jobs'
// measurers and models, and the service.
double SetupSeconds(const WorkloadSpec& workload, uint64_t seed);

// Runs one repetition. `scratch_dir` holds the checkpoint files. A traced
// rep records spans into its own sink and wraps every job's cost model in a
// timing decorator.
RepResult RunRep(const WorkloadSpec& workload, uint64_t seed, bool traced,
                 const std::string& scratch_dir);

// Output checks; each failure appends one line to `failures`.
//  * every job completed with its full trial budget;
//  * each task's best record replays, is legal under the static verifier and
//    re-measures on a fresh Measurer to exactly the reported best;
//  * the warm phase agrees exactly with the cold phase.
void CheckRep(const WorkloadSpec& workload, const RepResult& rep,
              std::vector<std::string>* failures);
// Two reps of one seed must agree exactly (traced vs untraced, or repeats).
void CheckSameResults(const RepResult& a, const RepResult& b, const std::string& what,
                      std::vector<std::string>* failures);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_

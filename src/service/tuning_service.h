// Tuning-as-a-service: a long-lived, multi-tenant scheduling core.
//
// Callers Submit() any number of concurrent jobs — each with its own tasks,
// Objective, trial budget, and deadline — and the service drives them over
// one shared worker pool. Each job is a TaskScheduler driven one
// TaskScheduler::RunRound at a time, between which the service checks the
// job's cancel flag and deadline. Search and measurement overlap:
//
//   * across jobs: while one job's measurement batch occupies the pool (or
//     sleeps out its emulated device latency), other jobs' drivers keep
//     searching on the same workers (ParallelFor caller participation
//     guarantees progress even on a saturated pool);
//   * within a round: TaskTuner::TuneRound extracts the round's training
//     features while its own batch is in flight.
//
// Determinism contract (enforced by the TuningService matrix tests): a job's
// results are a pure function of its spec. Fixed seeds give bit-identical
// per-task best latencies and allocation traces for any worker count, any
// max_concurrent_jobs, and any co-tenant jobs — the same as TaskScheduler::
// Tune on the spec, which runs the same RunRound. Shared caches cannot break
// this: artifacts are pure functions of (DAG, steps).
// Deadlines are the one wall-clock-dependent feature; a job that hits its
// deadline has nondeterministic cutoff by nature, but never loses budget
// accounting (cancelled trials are not spent) and never hangs.
//
// Cross-task cache sharing: tasks carrying the same nonempty similarity
// `tag` — within one job and across jobs — share one service-owned
// ProgramCache (safe: keys include the DAG hash), so a program one task
// compiled is served to every structurally similar task for free. Each
// (job, task) gets a distinct cache client id, so every job reports its own
// exact cross-task hit rate even with concurrent tenants. Tasks with an empty
// tag, or with a cache already injected via SearchOptions, keep their own.
#ifndef ANSOR_SRC_SERVICE_TUNING_SERVICE_H_
#define ANSOR_SRC_SERVICE_TUNING_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/scheduler/task_scheduler.h"
#include "src/store/artifact_store.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace ansor {

// One tuning job: a set of tasks + networks with their own objective,
// budget, and deadline. The measurer and cost model are borrowed, not owned
// — they must outlive the job, and sharing a model or measurer between jobs
// is the caller's choice (per-job instances keep jobs fully independent).
struct JobSpec {
  std::string name;
  std::vector<SearchTask> tasks;
  std::vector<NetworkSpec> networks;
  Objective objective;
  // Per-job allocation policy + search knobs (alpha/beta/eps/seed/search).
  // The service overrides search.thread_pool (shared pool), assigns
  // search.cache_client_id per task, and injects per-tag shared caches; all
  // are result-invariant.
  TaskSchedulerOptions options;
  // Trial budget: allocation rounds of options.measures_per_round trials.
  int total_rounds = 1;
  // Wall-clock deadline measured from job *start* (not submit). When it
  // passes, the in-flight measurement batch is cancelled (unstarted trials
  // return cancelled and are not charged to any budget) and the job
  // finishes with JobStatus::kDeadlineExceeded. Infinity, or a deadline too
  // far out to count in int64 nanoseconds, = no deadline.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  Measurer* measurer = nullptr;  // required; not owned
  CostModel* model = nullptr;    // required; not owned
};

enum class JobStatus {
  kQueued,            // submitted, waiting for a driver slot
  kRunning,           // rounds in progress
  kCompleted,         // spent its full round budget
  kDeadlineExceeded,  // stopped at deadline_seconds
  kCancelled,         // stopped by JobHandle::Cancel
};

inline bool IsTerminal(JobStatus s) {
  return s == JobStatus::kCompleted || s == JobStatus::kDeadlineExceeded ||
         s == JobStatus::kCancelled;
}

const char* JobStatusName(JobStatus s);

// Final accounting for one job, valid once the job reaches a terminal
// status.
struct JobReport {
  JobStatus status = JobStatus::kQueued;
  int rounds_completed = 0;
  // Measurement trials actually started (== the per-job Measurer's
  // trial_count delta; cancelled trials are excluded on both sides).
  int64_t trials = 0;
  double objective_value = 0.0;
  std::vector<double> best_seconds;  // per task
  std::vector<int> allocations;      // per task
  std::vector<int> allocation_trace; // task index per round, in order
  // Trials broken down by outcome: valid + invalid == trials (started);
  // cancelled trials never started and are charged to no budget.
  int64_t trials_valid = 0;
  int64_t trials_invalid = 0;
  int64_t trials_cancelled = 0;
  // Fleet latency view: turnaround is what a tenant experiences. All three
  // derive from the same three readings of the service's single monotonic
  // clock (TuningServiceOptions::clock), so queue + run == turnaround
  // exactly.
  double queue_seconds = 0.0;       // submit -> first round
  double run_seconds = 0.0;         // first round -> terminal
  double turnaround_seconds = 0.0;  // submit -> terminal
  // Where run_seconds went: per-phase attribution summed over the job's
  // tuners, including the measurement wall time and the feature extraction
  // overlapped with in-flight batches (phases.OverlapFraction()).
  SearchPhaseTimes phases;
  // Program-cache traffic attributed to this job's tasks (exact even when
  // the caches are shared with concurrent jobs). cross_client_hits counts
  // artifacts this job consumed that a *different* task compiled — the
  // cross-task reuse the per-tag shared caches exist for.
  ProgramCacheClientStats cache;
  // This job's contribution to the fleet record store (zeros when the
  // service has none): records it appended as new signatures vs records the
  // fleet had already seen. Exact even with concurrent tenants.
  RecordClientStats records;

  double CrossTaskHitRate() const { return cache.CrossClientHitRate(); }
};

class TuningService;
struct JobState;

// Shared-ownership handle to a submitted job. Copyable; outliving the
// service is safe (the job state is jointly owned).
class JobHandle {
 public:
  JobHandle() = default;

  int64_t id() const;
  const std::string& name() const;
  JobStatus status() const;
  // Blocks until the job reaches a terminal status (or the timeout elapses);
  // true when terminal.
  bool Wait(double timeout_seconds = std::numeric_limits<double>::infinity()) const;
  // Requests cancellation: a queued job finishes before its first round, a
  // running job after its in-flight round. Does not block.
  void Cancel();
  // The final report. CHECK-fails unless the job is terminal (Wait first).
  const JobReport& report() const;

 private:
  friend class TuningService;
  std::shared_ptr<JobState> state_;
};

struct TuningServiceOptions {
  // Shared worker pool backing every job's search and measurement.
  // 0 = hardware concurrency. Results are invariant to this.
  int num_workers = 0;
  // Jobs driven concurrently; the rest queue FIFO. Results are invariant to
  // this.
  int max_concurrent_jobs = 1;
  // Fleet-wide record store: when set, every job's valid measurements are
  // appended here (deduplicated by signature, attributed per (job, task)
  // client id — see JobReport::records). Not owned; must outlive the
  // service. Feeds the transfer-learned cost model (TrainFromStore).
  RecordStore* record_store = nullptr;
  // Artifact-store file (ArtifactStore::SaveToFile / SaveWarmState) loaded
  // at construction. Each per-tag shared cache is warm-started from it the
  // first time a task of the matching DAG runs, so a restarted service
  // re-lowers nothing the previous incarnation already compiled. Empty =
  // cold start.
  std::string warm_start_path;
  // Telemetry ---------------------------------------------------------------
  // When nonempty, the service owns a TraceSink, traces every job (spans for
  // job/round/store phases, with search/evolution/measure children via the
  // per-round tuner tracer) and writes the JSONL trace here at Shutdown.
  // Tracing only reads the clock and records events; fixed-seed results are
  // bit-identical with it on or off.
  std::string trace_path;
  // Borrowed sink alternative: trace into a caller-owned sink (tests inspect
  // it live; trace_path may still be set to also write the file). Not owned.
  TraceSink* trace_sink = nullptr;
  // The single monotonic clock every job timing derives from — report
  // queue/run/turnaround, per-phase attribution, span durations. nullptr =
  // the process steady clock. Inject a FakeClock to test timing exactly.
  MonotonicClock* clock = nullptr;
};

class TuningService {
 public:
  explicit TuningService(TuningServiceOptions options = TuningServiceOptions());
  ~TuningService();  // Shutdown()

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  // Enqueues a job; returns immediately. CHECK-fails on an empty task list,
  // a missing measurer/model, or a service that is already shut down.
  JobHandle Submit(JobSpec spec);
  // Blocks until every job submitted so far is terminal.
  void WaitAll();
  // Drains the queue, waits for running jobs, joins the drivers. Submit
  // afterwards is an error. Idempotent.
  void Shutdown();

  const TuningServiceOptions& options() const { return options_; }
  // Aggregate counters over the per-tag shared caches (fleet-wide view; a
  // job's own share is in its JobReport). warm_inserts counts artifacts
  // restored from warm_start_path rather than compiled.
  ProgramCacheStats SharedCacheStats() const;
  size_t shared_cache_count() const;

  // Captures every per-tag shared cache into an ArtifactStore (snapshots
  // tagged with their cache's tag) and writes it to `path` — the file a
  // future service passes as warm_start_path. Safe while jobs run (caches
  // are captured shard-by-shard); for a complete snapshot, WaitAll() first.
  bool SaveWarmState(const std::string& path) const;
  // Result of loading warm_start_path at construction (ok == false with all
  // zeros when no path was given).
  const ArtifactLoadStats& warm_start_stats() const { return warm_start_stats_; }

  // Telemetry -----------------------------------------------------------------
  // The service-owned metrics registry. Live counters/histograms (job and
  // round counts, turnaround/queue distributions) update as jobs run; the
  // component gauges (caches, record store, scheduler aggregates) are
  // mirrored in by MetricsSnapshotJson.
  MetricsRegistry* metrics() { return &metrics_; }
  // Refreshes every mirrored component gauge (shared caches, record store,
  // warm-start stats) and serializes the whole fleet state as one JSON
  // object.
  std::string MetricsSnapshotJson();
  // The active trace sink: the borrowed options.trace_sink, the owned sink
  // created for options.trace_path, or nullptr when tracing is off.
  TraceSink* trace_sink() const { return sink_; }
  // The clock all job timings derive from (options.clock or the real one).
  MonotonicClock* clock() const { return clock_; }

 private:
  void DriverLoop();
  void RunJob(JobState* job);
  ProgramCache* SharedCacheForTag(const std::string& tag);
  // Installs the warm store's artifacts for `dag` into `cache`, once per
  // (cache, task) pair (idempotent across jobs and rounds). Records a
  // "warm_start" span with the install count when `tracer` is live.
  void WarmTagCache(ProgramCache* cache, const std::shared_ptr<const ComputeDAG>& dag,
                    const Tracer* tracer = nullptr);

  TuningServiceOptions options_;
  // Telemetry: the single clock, the owned-or-borrowed trace sink, and the
  // fleet metrics registry (internally synchronized; no mu_ needed). Declared
  // before workers_ so they outlive the pool: ~ThreadPool joins every worker
  // thread before the sink/clock a lagging trace Record might touch die.
  MonotonicClock* clock_;
  std::unique_ptr<TraceSink> owned_sink_;
  TraceSink* sink_ = nullptr;
  MetricsRegistry metrics_;
  ThreadPool workers_;
  mutable std::mutex mu_;  // queue, job list, tag caches, shutdown flag
  std::condition_variable cv_;
  std::deque<std::shared_ptr<JobState>> queue_;
  std::vector<std::shared_ptr<JobState>> jobs_;
  std::unordered_map<std::string, std::unique_ptr<ProgramCache>> tag_caches_;
  // Warm-start state: snapshots loaded from warm_start_path, and which
  // (cache, task) pairs have already been warmed (guarded by mu_).
  ArtifactStore warm_store_;
  ArtifactLoadStats warm_start_stats_;
  std::unordered_map<ProgramCache*, std::unordered_set<uint64_t>> warmed_;
  std::atomic<uint64_t> next_client_id_{1};
  std::atomic<int64_t> next_job_id_{1};
  bool shutdown_ = false;
  std::vector<std::thread> drivers_;
};

}  // namespace ansor

#endif  // ANSOR_SRC_SERVICE_TUNING_SERVICE_H_

#include "src/service/tuning_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace ansor {
namespace {

// The clock reading `seconds` after `start_nanos`, or TaskTuner::kNoDeadline
// when that does not fit in int64 nanoseconds (infinity, NaN, far future).
int64_t DeadlineNanos(int64_t start_nanos, double seconds) {
  const double nanos = std::max(seconds * 1e9, 0.0);  // keeps NaN
  const int64_t room = TaskTuner::kNoDeadline - start_nanos;
  if (!(nanos < static_cast<double>(room))) {
    return TaskTuner::kNoDeadline;
  }
  // The double `room` can round up past the integer one; clamp again.
  return start_nanos + std::min(static_cast<int64_t>(nanos), room);
}

}  // namespace

const char* JobStatusName(JobStatus s) {
  switch (s) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kCompleted: return "completed";
    case JobStatus::kDeadlineExceeded: return "deadline_exceeded";
    case JobStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

// Internal per-job state, jointly owned by the service and every JobHandle.
struct JobState {
  int64_t id = 0;
  JobSpec spec;
  // Reading of the service clock at Submit (the origin every report latency
  // is measured from).
  int64_t submit_nanos = 0;
  std::atomic<bool> cancel{false};

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  JobStatus status = JobStatus::kQueued;  // guarded by mu
  JobReport report;                       // guarded by mu; final once terminal

  void SetStatus(JobStatus s) {
    std::lock_guard<std::mutex> lock(mu);
    status = s;
  }
  void Finish(JobReport final_report) {
    {
      std::lock_guard<std::mutex> lock(mu);
      report = std::move(final_report);
      status = report.status;
    }
    cv.notify_all();
  }
};

int64_t JobHandle::id() const {
  CHECK(state_ != nullptr);
  return state_->id;
}

const std::string& JobHandle::name() const {
  CHECK(state_ != nullptr);
  return state_->spec.name;
}

JobStatus JobHandle::status() const {
  CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->status;
}

bool JobHandle::Wait(double timeout_seconds) const {
  CHECK(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mu);
  auto terminal = [&] { return IsTerminal(state_->status); };
  if (std::isfinite(timeout_seconds)) {
    return state_->cv.wait_for(lock, std::chrono::duration<double>(
                                         std::max(0.0, timeout_seconds)),
                               terminal);
  }
  state_->cv.wait(lock, terminal);
  return true;
}

void JobHandle::Cancel() {
  CHECK(state_ != nullptr);
  state_->cancel.store(true, std::memory_order_release);
}

const JobReport& JobHandle::report() const {
  CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  CHECK(IsTerminal(state_->status)) << "JobHandle::report() before the job finished";
  return state_->report;
}

TuningService::TuningService(TuningServiceOptions options)
    : options_(std::move(options)),
      clock_(MonotonicClock::OrReal(options_.clock)),
      workers_(static_cast<size_t>(std::max(0, options_.num_workers))) {
  if (options_.trace_sink != nullptr) {
    sink_ = options_.trace_sink;
  } else if (!options_.trace_path.empty()) {
    owned_sink_ = std::make_unique<TraceSink>();
    sink_ = owned_sink_.get();
  }
  if (!options_.warm_start_path.empty()) {
    Tracer tracer(sink_, clock_);
    TraceSpan load(sink_ != nullptr ? &tracer : nullptr, "store_load", "store");
    warm_start_stats_ = warm_store_.LoadFromFile(options_.warm_start_path);
    if (load.enabled()) {
      load.Arg("count", static_cast<int64_t>(warm_start_stats_.loaded));
    }
  }
  int drivers = std::max(1, options_.max_concurrent_jobs);
  drivers_.reserve(static_cast<size_t>(drivers));
  for (int i = 0; i < drivers; ++i) {
    drivers_.emplace_back([this] { DriverLoop(); });
  }
}

TuningService::~TuningService() { Shutdown(); }

ProgramCache* TuningService::SharedCacheForTag(const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<ProgramCache>& cache = tag_caches_[tag];
  if (cache == nullptr) {
    cache = std::make_unique<ProgramCache>();
  }
  return cache.get();
}

void TuningService::WarmTagCache(ProgramCache* cache,
                                 const std::shared_ptr<const ComputeDAG>& dag,
                                 const Tracer* tracer) {
  if (warm_store_.size() == 0 || cache == nullptr || dag == nullptr) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!warmed_[cache].insert(dag->CanonicalHash()).second) {
      return;  // this (cache, task) pair was already warmed
    }
  }
  // Outside mu_: warming only touches the cache's own shard locks, and a
  // concurrent job hitting the cache mid-warm just sees a prefix of the
  // snapshots — results are invariant either way (artifacts are pure).
  TraceSpan span(tracer, "warm_start", "store");
  size_t installed = warm_store_.WarmCache(cache, dag);
  if (span.enabled()) {
    span.Arg("count", static_cast<int64_t>(installed));
  }
}

JobHandle TuningService::Submit(JobSpec spec) {
  CHECK(!spec.tasks.empty()) << "JobSpec needs at least one task";
  CHECK(spec.measurer != nullptr) << "JobSpec needs a measurer";
  CHECK(spec.model != nullptr) << "JobSpec needs a cost model";
  auto job = std::make_shared<JobState>();
  job->id = next_job_id_.fetch_add(1);
  job->spec = std::move(spec);
  job->submit_nanos = clock_->NowNanos();
  {
    std::lock_guard<std::mutex> lock(mu_);
    CHECK(!shutdown_) << "Submit after Shutdown";
    queue_.push_back(job);
    jobs_.push_back(job);
  }
  metrics_.AddCounter("service.jobs_submitted", 1, "jobs");
  cv_.notify_one();
  JobHandle handle;
  handle.state_ = std::move(job);
  return handle;
}

void TuningService::DriverLoop() {
  for (;;) {
    std::shared_ptr<JobState> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown with a drained queue
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    RunJob(job.get());
  }
}

void TuningService::RunJob(JobState* job) {
  const int64_t start_nanos = clock_->NowNanos();
  job->SetStatus(JobStatus::kRunning);
  const JobSpec& spec = job->spec;

  // The job's root span: every span the job records — rounds, store phases,
  // and the search/evolution/measure children attributed through the
  // per-round tuner tracer — nests under it, so a trace fold recovers the
  // job's turnaround from its direct children.
  Tracer job_tracer =
      sink_ != nullptr ? Tracer(sink_, clock_).WithJob(job->id) : Tracer();
  TraceSpan job_span(job_tracer, "job", "service");
  if (job_span.enabled() && !spec.name.empty()) {
    job_span.Arg("name", spec.name);
  }

  // Wire the per-task search options: the shared worker pool, a distinct
  // cache client id per (job, task), and — for nonempty similarity tags —
  // the service-owned shared cache for that tag. A caller-provided
  // per_task_search hook runs first so it can still veto the cache by
  // injecting its own.
  const size_t n_tasks = spec.tasks.size();
  std::vector<uint64_t> client_ids(n_tasks);
  std::vector<ProgramCache*> tag_caches(n_tasks, nullptr);
  Tracer warm_tracer = job_span.child();
  for (size_t i = 0; i < n_tasks; ++i) {
    client_ids[i] = next_client_id_.fetch_add(1);
    if (!spec.tasks[i].tag.empty()) {
      tag_caches[i] = SharedCacheForTag(spec.tasks[i].tag);
      // Fleet warm start: seed the shared cache with every persisted
      // artifact of this task before its tuner first touches it.
      WarmTagCache(tag_caches[i], spec.tasks[i].dag,
                   job_span.enabled() ? &warm_tracer : nullptr);
    }
  }
  TaskSchedulerOptions opts = spec.options;
  auto caller_hook = opts.per_task_search;
  opts.per_task_search = [&, caller_hook](size_t i, const SearchTask& task,
                                          SearchOptions* search) {
    if (caller_hook) {
      caller_hook(i, task, search);
    }
    search->thread_pool = &workers_;
    search->clock = clock_;  // one clock per service: all timings agree
    search->cache_client_id = client_ids[i];
    if (search->program_cache == nullptr && tag_caches[i] != nullptr) {
      search->program_cache = tag_caches[i];
    }
    if (search->record_store == nullptr) {
      search->record_store = options_.record_store;
    }
  };

  TaskScheduler scheduler(spec.tasks, spec.networks, spec.objective, spec.measurer,
                          spec.model, opts);

  const int64_t deadline_nanos = DeadlineNanos(start_nanos, spec.deadline_seconds);
  bool deadline_hit = false;
  int rounds = 0;
  while (rounds < spec.total_rounds && !job->cancel.load(std::memory_order_acquire)) {
    // Also catches a round that the deadline cut short.
    if (clock_->NowNanos() >= deadline_nanos) {
      deadline_hit = true;
      break;
    }
    TraceSpan round_span(job_span.enabled()
                             ? job_span.child().WithRound(rounds)
                             : Tracer(),
                         "round", "service");
    // Other jobs overlap their search with this round's batch on the same
    // pool.
    int pick = scheduler.RunRound(round_span.child(), deadline_nanos);
    // "picked_task", not "task": the core attribution already emits a "task"
    // key in args (-1 here — the pick isn't known when the span opens).
    round_span.Arg("picked_task", static_cast<int64_t>(pick));
    ++rounds;
    metrics_.AddCounter("service.rounds_completed", 1, "rounds");
  }

  const int64_t end_nanos = clock_->NowNanos();
  JobReport report;
  // A job that spent its whole budget is completed even if a cancel or the
  // deadline raced with the final round.
  report.status = rounds >= spec.total_rounds ? JobStatus::kCompleted
                  : deadline_hit              ? JobStatus::kDeadlineExceeded
                                              : JobStatus::kCancelled;
  report.rounds_completed = rounds;
  report.objective_value = scheduler.ObjectiveValue();
  report.allocations = scheduler.allocations();
  report.allocation_trace = scheduler.allocation_trace();
  for (size_t i = 0; i < n_tasks; ++i) {
    const TaskTuner& tuner = *scheduler.tuners()[i];
    report.trials += tuner.total_measures();
    report.trials_invalid += tuner.invalid_measures();
    report.trials_cancelled += tuner.cancelled_measures();
    report.best_seconds.push_back(tuner.best_seconds());
    ProgramCacheClientStats cs = tuner.program_cache().ClientStats(client_ids[i]);
    report.cache.lookups += cs.lookups;
    report.cache.hits += cs.hits;
    report.cache.cross_client_hits += cs.cross_client_hits;
    if (options_.record_store != nullptr) {
      RecordClientStats rs = options_.record_store->ClientStatsFor(client_ids[i]);
      report.records.appended += rs.appended;
      report.records.deduplicated += rs.deduplicated;
    }
  }
  report.trials_valid = report.trials - report.trials_invalid;
  report.phases = scheduler.AggregatePhaseTimes();
  // All three from the same three clock readings; turnaround is computed as
  // the sum so the identity holds exactly in double arithmetic too.
  report.queue_seconds = SecondsBetween(job->submit_nanos, start_nanos);
  report.run_seconds = SecondsBetween(start_nanos, end_nanos);
  report.turnaround_seconds = report.queue_seconds + report.run_seconds;

  metrics_.AddCounter("service.jobs_finished", 1, "jobs");
  metrics_.AddCounter("service.trials", report.trials, "trials");
  metrics_.AddCounter("service.trials_invalid", report.trials_invalid, "trials");
  metrics_.AddCounter("service.trials_cancelled", report.trials_cancelled, "trials");
  metrics_.histogram("job.queue_seconds")->Observe(report.queue_seconds);
  metrics_.histogram("job.run_seconds")->Observe(report.run_seconds);
  metrics_.histogram("job.turnaround_seconds")->Observe(report.turnaround_seconds);
  if (report.phases.measure_wall_seconds > 0.0) {
    metrics_.histogram("job.overlap_fraction", "ratio")
        ->Observe(report.phases.OverlapFraction());
  }
  // Mirror the borrowed components the job used (idempotent gauge sets;
  // jobs sharing a measurer/model just refresh the same gauges).
  spec.measurer->ExportMetrics(&metrics_, "measurer");
  spec.model->ExportMetrics(&metrics_, "model");

  if (job_span.enabled()) {
    job_span.Arg("rounds", static_cast<int64_t>(rounds));
    job_span.Arg("outcome", JobStatusName(report.status));
    job_span.Finish();
  }
  job->Finish(std::move(report));
}

void TuningService::WaitAll() {
  std::vector<std::shared_ptr<JobState>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = jobs_;
  }
  for (const auto& job : snapshot) {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&] { return IsTerminal(job->status); });
  }
}

void TuningService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ && drivers_.empty()) {
      return;
    }
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& driver : drivers_) {
    driver.join();
  }
  drivers_.clear();
  // Every job is terminal now, so the trace is complete and stable.
  if (sink_ != nullptr && !options_.trace_path.empty()) {
    sink_->SaveToFile(options_.trace_path);
  }
}

std::string TuningService::MetricsSnapshotJson() {
  // Refresh the mirrored component gauges; the live counters/histograms
  // update in place as jobs run and need no refresh.
  metrics_.SetGauge("service.shared_caches", static_cast<double>(shared_cache_count()),
                    "caches");
  ProgramCacheStats cache = SharedCacheStats();
  metrics_.SetGauge("service.shared_cache.hits", static_cast<double>(cache.hits));
  metrics_.SetGauge("service.shared_cache.misses", static_cast<double>(cache.misses));
  metrics_.SetGauge("service.shared_cache.evictions",
                    static_cast<double>(cache.evictions));
  metrics_.SetGauge("service.shared_cache.cross_client_hits",
                    static_cast<double>(cache.cross_client_hits));
  metrics_.SetGauge("service.shared_cache.warm_inserts",
                    static_cast<double>(cache.warm_inserts));
  metrics_.SetGauge("service.warm_start.loaded",
                    static_cast<double>(warm_start_stats_.loaded), "artifacts");
  if (options_.record_store != nullptr) {
    options_.record_store->ExportMetrics(&metrics_, "store");
  }
  if (sink_ != nullptr) {
    metrics_.SetGauge("trace.spans", static_cast<double>(sink_->size()), "spans");
  }
  return metrics_.ToJson();
}

ProgramCacheStats TuningService::SharedCacheStats() const {
  ProgramCacheStats total;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [tag, cache] : tag_caches_) {
    ProgramCacheStats s = cache->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.cross_client_hits += s.cross_client_hits;
    total.warm_inserts += s.warm_inserts;
  }
  return total;
}

size_t TuningService::shared_cache_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tag_caches_.size();
}

bool TuningService::SaveWarmState(const std::string& path) const {
  Tracer tracer(sink_, clock_);
  TraceSpan span(sink_ != nullptr ? &tracer : nullptr, "store_save", "store");
  ArtifactStore snapshot;
  {
    // Collect the caches under mu_, capture them outside it: CaptureCache
    // only takes per-shard cache locks, which jobs also take — never mu_ —
    // so the order here cannot deadlock with a running job.
    std::vector<std::pair<std::string, const ProgramCache*>> caches;
    {
      std::lock_guard<std::mutex> lock(mu_);
      caches.reserve(tag_caches_.size());
      for (const auto& [tag, cache] : tag_caches_) {
        caches.emplace_back(tag, cache.get());
      }
    }
    for (const auto& [tag, cache] : caches) {
      snapshot.CaptureCache(*cache, tag);
    }
  }
  if (span.enabled()) {
    span.Arg("count", static_cast<int64_t>(snapshot.size()));
  }
  return snapshot.SaveToFile(path);
}

}  // namespace ansor

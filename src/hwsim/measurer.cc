#include "src/hwsim/measurer.h"

#include <chrono>
#include <cmath>
#include <thread>

#include "src/exec/interpreter.h"
#include "src/program/program_cache.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"
#include "src/support/util.h"

namespace ansor {

// Shared state between a PendingMeasureBatch handle and the pool tasks
// measuring its items. Each enqueued task claims its fixed index, checks the
// cancellation flag, measures (or marks the result cancelled), and the last
// one to finish wakes the waiter.
struct PendingMeasureBatch::Shared {
  Measurer* measurer = nullptr;
  ProgramCache* cache = nullptr;
  uint64_t cache_client_id = 0;
  std::vector<State> states;
  std::vector<MeasureResult> results;
  std::atomic<bool> cancel{false};
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;  // guarded by mu; the Wait()/WaitFor() predicate
  // Names the last worker without making the cv predicate true (see RunItem).
  std::atomic<size_t> finished{0};
  // Telemetry: trial spans parent under a "measure_batch" span whose id is
  // allocated at submission and whose event is recorded by whichever worker
  // finishes the last item (submit→complete, independent of when the
  // submitter gets around to Wait()).
  Tracer tracer;             // disabled unless SubmitBatch got one;
                             // re-parented under the batch span
  int64_t submit_nanos = 0;  // batch submission time (tracer clock)
  uint64_t batch_span = 0;
  uint64_t batch_parent = 0;  // the submitter's parent span

  void RunItem(size_t i) {
    if (cancel.load(std::memory_order_acquire)) {
      results[i].cancelled = true;
      results[i].error = "cancelled before start";
      if (tracer.enabled()) {
        TraceSpan span(tracer, "measure_trial", "measure");
        span.Arg("outcome", "cancelled");
      }
    } else {
      results[i] = measurer->MeasureImpl(states[i], 0, cache, cache_client_id,
                                         tracer.enabled() ? &tracer : nullptr,
                                         submit_nanos);
    }
    // Publication order matters: once `done` reaches the batch size, Wait()
    // can return and the whole service (including the TraceSink) may be torn
    // down, so the batch event must be recorded *before* this worker's ++done.
    // `finished` picks the last worker without advancing the cv predicate;
    // `done` only reaches the batch size after every worker — including that
    // one — has passed its Record.
    bool last =
        finished.fetch_add(1, std::memory_order_acq_rel) + 1 == states.size();
    if (last && tracer.enabled()) {
      TraceEvent batch;
      batch.name = "measure_batch";
      batch.category = "measure";
      batch.span_id = batch_span;
      batch.parent_id = batch_parent;
      batch.job = tracer.job();
      batch.task = tracer.task();
      batch.round = tracer.round();
      batch.start_nanos = submit_nanos;
      batch.end_nanos = tracer.clock()->NowNanos();
      batch.args.emplace_back("count", std::to_string(states.size()));
      tracer.sink()->Record(std::move(batch));
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      if (++done == states.size()) {
        cv.notify_all();
      }
    }
  }
};

std::vector<MeasureResult> PendingMeasureBatch::Wait() {
  if (shared_ == nullptr) {
    return {};
  }
  {
    std::unique_lock<std::mutex> lock(shared_->mu);
    shared_->cv.wait(lock, [&] { return shared_->done == shared_->states.size(); });
  }
  std::vector<MeasureResult> results = std::move(shared_->results);
  shared_.reset();
  return results;
}

bool PendingMeasureBatch::WaitFor(double seconds) {
  if (shared_ == nullptr) {
    return true;
  }
  std::unique_lock<std::mutex> lock(shared_->mu);
  return shared_->cv.wait_for(lock, std::chrono::duration<double>(std::max(0.0, seconds)),
                              [&] { return shared_->done == shared_->states.size(); });
}

void PendingMeasureBatch::Cancel() {
  if (shared_ != nullptr) {
    shared_->cancel.store(true, std::memory_order_release);
  }
}

bool PendingMeasureBatch::done() const {
  if (shared_ == nullptr) {
    return true;
  }
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->done == shared_->states.size();
}

Measurer::Measurer(MachineModel machine, MeasureOptions options)
    : machine_(std::move(machine)), options_(std::move(options)) {}

MeasureResult Measurer::MeasureImpl(const State& state, uint64_t noise_tag,
                                    ProgramCache* cache, uint64_t cache_client_id,
                                    const Tracer* tracer, int64_t submit_nanos) {
  trials_.fetch_add(1);
  TraceSpan span(tracer, "measure_trial", "measure");
  if (span.enabled() && submit_nanos > 0) {
    // Time the item spent queued for a device worker before this span began.
    span.Arg("queue_seconds",
             SecondsBetween(submit_nanos, tracer->clock()->NowNanos()));
  }
  MeasureResult result;
  if (state.failed()) {
    result.error = "invalid state: " + state.error();
    span.Arg("outcome", "invalid");
    return result;
  }
  // With a cache, candidates the search already compiled (population scoring,
  // lowerability probes) are measured from the shared artifact.
  ProgramArtifactPtr artifact;
  LoweredProgram local;
  const LoweredProgram* program;
  if (cache != nullptr) {
    artifact = cache->GetOrBuild(state, cache_client_id,
                                 span.enabled() ? tracer : nullptr);
    program = &artifact->lowered();
  } else {
    local = Lower(state);
    program = &local;
  }
  if (!program->ok) {
    result.error = "lowering failed: " + program->error;
    span.Arg("outcome", "invalid");
    return result;
  }
  if (options_.fail_injector && options_.fail_injector(state)) {
    result.error = "injected transient measurement failure";
    span.Arg("outcome", "invalid");
    return result;
  }
  if (options_.verify_every > 0 &&
      verify_counter_.fetch_add(1) % options_.verify_every == 0) {
    verifications_.fetch_add(1);
    std::string mismatch = VerifyAgainstNaive(state, *program);
    if (!mismatch.empty()) {
      result.error = "verification failed: " + mismatch;
      span.Arg("outcome", "invalid");
      return result;
    }
  }
  SimulatedCost cost = SimulateProgram(*program, machine_, options_.sim);
  // Emulated device occupancy: the trial holds this worker for the configured
  // wall-clock duration, like a real on-device run would. Applied to valid
  // and invalid simulations alike (both occupied the device), but not to
  // programs that never compiled.
  if (options_.measure_latency_seconds > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.measure_latency_seconds));
  }
  if (!cost.valid) {
    result.error = cost.error;
    span.Arg("outcome", "invalid");
    return result;
  }
  span.Arg("outcome", "valid");
  double seconds = cost.seconds;
  if (options_.noise_stddev > 0.0) {
    // Deterministic per-program noise: hash the step list so that repeated
    // measurements of the same program agree (like a warmed-up benchmark).
    uint64_t h = options_.noise_seed;
    HashCombine(&h, noise_tag);
    for (const Step& step : state.steps()) {
      HashCombine(&h, std::hash<std::string>()(step.ToString()));
    }
    Rng rng(h);
    seconds *= std::exp(rng.Normal(0.0, options_.noise_stddev));
  }
  result.valid = true;
  result.seconds = seconds;
  double flops = state.dag()->FlopCount();
  result.throughput = flops / std::max(seconds, 1e-12);
  return result;
}

MeasureResult Measurer::Measure(const State& state, ProgramCache* cache,
                                uint64_t cache_client_id, const Tracer* tracer) {
  return MeasureImpl(state, 0, cache != nullptr ? cache : options_.program_cache,
                     cache_client_id, tracer);
}

PendingMeasureBatch Measurer::SubmitBatch(std::vector<State> states, ProgramCache* cache,
                                          uint64_t cache_client_id, ThreadPool* pool,
                                          const Tracer* tracer) {
  PendingMeasureBatch handle;
  if (states.empty()) {
    return handle;
  }
  auto shared = std::make_shared<PendingMeasureBatch::Shared>();
  shared->measurer = this;
  shared->cache = cache != nullptr ? cache : options_.program_cache;
  shared->cache_client_id = cache_client_id;
  shared->states = std::move(states);
  shared->results.resize(shared->states.size());
  if (tracer != nullptr && tracer->enabled()) {
    shared->batch_span = tracer->sink()->NextId();
    shared->batch_parent = tracer->parent();
    shared->tracer = tracer->WithParent(shared->batch_span);
    shared->submit_nanos = tracer->clock()->NowNanos();
  }
  handle.shared_ = shared;
  // A measurer configured with its own pool owns a device executor (e.g. one
  // thread per attached board); its occupancy must not be diluted onto the
  // caller's host workers. Only measurers without one use the caller's pool.
  ThreadPool& resolved = ThreadPool::OrGlobal(
      options_.thread_pool != nullptr ? options_.thread_pool : pool);
  for (size_t i = 0; i < shared->states.size(); ++i) {
    resolved.Enqueue([shared, i] { shared->RunItem(i); });
  }
  return handle;
}

void Measurer::ExportMetrics(MetricsRegistry* registry, const std::string& prefix) const {
  registry->SetGauge(prefix + ".trials", static_cast<double>(trial_count()));
  registry->SetGauge(prefix + ".verifications", static_cast<double>(verification_count()));
}

}  // namespace ansor

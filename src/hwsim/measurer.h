// The Measurer (paper Fig. 4): compiles (lowers) candidate programs and
// "executes" them on the simulated target, returning execution time.
//
// Mirrors real-hardware behaviour the search must cope with: invalid programs
// fail measurement (throughput 0), results can carry multiplicative noise,
// and batch measurement runs in parallel.
#ifndef ANSOR_SRC_HWSIM_MEASURER_H_
#define ANSOR_SRC_HWSIM_MEASURER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/hwsim/simulator.h"
#include "src/ir/state.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace ansor {

class ProgramCache;
class ThreadPool;

struct MeasureOptions {
  // Layout-rewrite of constant tensors (paper §4.2); on by default for
  // inference workloads, off for the ablation bench.
  SimOptions sim;
  // Multiplicative log-normal noise stddev on measured time (0 = exact).
  double noise_stddev = 0.0;
  uint64_t noise_seed = 0;
  // Verify every Nth measured program against naive execution (0 = never).
  // Catches lowering bugs during long searches without paying interpretation
  // cost for every candidate.
  int verify_every = 0;
  // Chaos/test hook: measurements for which this returns true are reported
  // invalid, emulating the transient failures real hardware produces (driver
  // hiccups, timeouts). The search must tolerate these without permanently
  // blacklisting the affected programs.
  std::function<bool(const State&)> fail_injector;
  // Pool for SubmitBatch; nullptr = the caller's pool or ThreadPool::Global().
  // Injectable so the thread-count-invariance tests control every parallel
  // stage of a round, and so a measurer can model a dedicated device executor
  // whose capacity is independent of the host workers (the micro_service
  // bench gives each tenant's measurer a single-thread device pool).
  ThreadPool* thread_pool = nullptr;
  // Default compiled-program cache: candidates already lowered by the search
  // (population scoring) are measured without re-lowering. Overridable per
  // call — the search policy passes its task-lifetime cache — and nullptr
  // means lower from scratch. Measurement results are identical either way.
  ProgramCache* program_cache = nullptr;
  // Emulated per-trial device occupancy (seconds): after computing the
  // simulated cost, the measurement holds its worker for this wall-clock
  // duration, modeling the host-idle time real hardware measurement imposes
  // (remote RPC round trips, on-device runs). 0 = off. Timing only — the
  // measured values are unaffected, so determinism tests are unaffected too.
  double measure_latency_seconds = 0.0;
};

struct MeasureResult {
  bool valid = false;
  // True when the measurement was cancelled before it started (deadline hit,
  // PendingMeasureBatch::Cancel). A cancelled trial never reached the device:
  // it does not count toward Measurer::trial_count() and the search must not
  // treat it as a failed measurement (no blacklist, no zero-throughput
  // training sample, no spent budget).
  bool cancelled = false;
  std::string error;
  double seconds = 0.0;
  // FLOPS achieved (task flop count / seconds); the search maximizes this.
  double throughput = 0.0;
};

// Handle to an in-flight asynchronous measurement batch (Measurer::
// SubmitBatch). The async seam of the tuning service: while a batch occupies
// the worker pool (or sleeps out its emulated device latency), the submitting
// job keeps searching. Results are index-aligned with the submitted states
// and independent of worker count or completion order.
class PendingMeasureBatch {
 public:
  // An empty handle behaves like a completed empty batch.
  PendingMeasureBatch() = default;

  // Blocks until every item has finished (or been skipped by Cancel) and
  // returns the results. May be called once; subsequent calls return empty.
  std::vector<MeasureResult> Wait();
  // Waits up to `seconds`; true when the batch has fully completed.
  bool WaitFor(double seconds);
  // Requests cancellation: items not yet started complete immediately with
  // cancelled = true; items already measuring finish normally. Wait() still
  // must be called to collect the results.
  void Cancel();
  bool done() const;

 private:
  friend class Measurer;
  struct Shared;
  std::shared_ptr<Shared> shared_;
};

class Measurer {
 public:
  explicit Measurer(MachineModel machine, MeasureOptions options = MeasureOptions());

  const MachineModel& machine() const { return machine_; }

  // `cache` overrides MeasureOptions::program_cache for this call (the
  // search policy injects its per-task cache); nullptr falls back to it.
  // `cache_client_id` tags the cache lookups for cross-task accounting
  // (ProgramCache::GetOrBuild); 0 = anonymous. A non-null `tracer` records a
  // "measure_trial" span per trial (args: outcome, and queue_seconds for
  // submitted batches — the time the item waited for a device worker; the
  // span's own duration is the device time) under a "measure_batch" span
  // covering submit→complete. Results are identical with tracing on or off.
  MeasureResult Measure(const State& state, ProgramCache* cache = nullptr,
                        uint64_t cache_client_id = 0, const Tracer* tracer = nullptr);

  // Batch measurement: enqueues one measurement per state and returns
  // immediately (SubmitBatch(...).Wait() measures synchronously). Items run on
  // MeasureOptions::thread_pool when set (the measurer's device executor — a
  // dedicated target device must not have its occupancy diluted onto host
  // workers), else on `pool`, else the global pool. The caller does not help
  // run the items, so it must not wait from a worker of that pool. The
  // submit/drain split lets the caller overlap its own work — training-feature
  // extraction — with the batch in flight, and lets a deadline cancel the
  // unstarted remainder. The Measurer (and cache, if any) must outlive the
  // returned handle's Wait(). With a tracer, the "measure_batch" span opens at
  // submission and is recorded by whichever worker completes the batch's last
  // item.
  PendingMeasureBatch SubmitBatch(std::vector<State> states, ProgramCache* cache = nullptr,
                                  uint64_t cache_client_id = 0, ThreadPool* pool = nullptr,
                                  const Tracer* tracer = nullptr);

  // Total number of measurement trials performed (the budget unit of §7).
  // Cancelled batch items never started, so they are not counted.
  int64_t trial_count() const { return trials_.load(); }
  // Resets the budget counter AND the verify_every phase: back-to-back runs
  // sharing one Measurer each start their verification cadence at trial 0
  // (the phase used to drift across runs — see MeasurerVerifyCadence tests).
  void ResetTrialCount() {
    trials_.store(0);
    verify_counter_.store(0);
  }
  // Number of measurements that were verified against naive execution
  // (observability for the verify_every cadence).
  int64_t verification_count() const { return verifications_.load(); }

  // Mirrors the trial/verification counters into `registry` as gauges named
  // <prefix>.trials / .verifications.
  void ExportMetrics(MetricsRegistry* registry, const std::string& prefix) const;

 private:
  friend class PendingMeasureBatch;  // batch items run through MeasureImpl

  MeasureResult MeasureImpl(const State& state, uint64_t noise_tag, ProgramCache* cache,
                            uint64_t cache_client_id, const Tracer* tracer = nullptr,
                            int64_t submit_nanos = 0);

  MachineModel machine_;
  MeasureOptions options_;
  std::atomic<int64_t> trials_{0};
  std::atomic<int64_t> verify_counter_{0};
  std::atomic<int64_t> verifications_{0};
};

}  // namespace ansor

#endif  // ANSOR_SRC_HWSIM_MEASURER_H_

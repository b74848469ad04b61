#include "perfbench/src/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>

#include "perfbench/src/timed_cost_model.h"
#include "src/analysis/program_verifier.h"
#include "src/hwsim/measurer.h"
#include "src/lower/loop_tree.h"
#include "src/support/thread_pool.h"

namespace perfbench {

using ansor::JobReport;
using ansor::NetworkTasks;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// SplitMix64: per-tenant, per-purpose seeds derived from the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t tenant, uint64_t purpose) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tenant * 0xBF58476D1CE4E5B9ULL + purpose;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

const ansor::MachineModel& Target() {
  static const ansor::MachineModel machine = ansor::MachineModel::IntelCpu20Core();
  return machine;
}

// The objects one phase's jobs borrow; they outlive the service's use of
// them because the phase waits for every job before handing them back.
class JobSet {
 public:
  JobSet(const WorkloadSpec& workload, uint64_t seed, bool traced,
         const std::vector<NetworkTasks>& networks)
      : workload_(workload), seed_(seed), networks_(networks) {
    ansor::MeasureOptions measure;
    if (workload.device_latency_seconds > 0.0) {
      device_ = std::make_unique<ansor::ThreadPool>(1);
      measure.thread_pool = device_.get();
      measure.measure_latency_seconds = workload.device_latency_seconds;
    }
    for (size_t j = 0; j < networks.size(); ++j) {
      measurers_.push_back(std::make_unique<ansor::Measurer>(Target(), measure));
      models_.push_back(std::make_unique<ansor::GbdtCostModel>());
      if (traced) {
        timed_.push_back(std::make_unique<TimedCostModel>(models_.back().get()));
      }
      logs_.push_back(std::make_unique<ansor::RecordLog>());
    }
  }

  // Submits every job, waits for all of them and fills `out`. Returns the
  // clock reading at the first Submit.
  Clock::time_point Run(ansor::TuningService* service, PhaseResult* out) {
    std::vector<ansor::JobHandle> handles;
    Clock::time_point first_submit{};
    double cpu_at_first_submit = 0.0;
    for (size_t j = 0; j < networks_.size(); ++j) {
      const TenantSpec& tenant = workload_.tenants[j];
      const NetworkTasks& net = networks_[j];
      ansor::JobSpec spec;
      spec.name = net.name;
      spec.tasks = net.tasks;
      ansor::NetworkSpec network{net.name, {}};
      for (size_t i = 0; i < net.tasks.size(); ++i) {
        network.task_indices.push_back(static_cast<int>(i));
      }
      spec.networks = {network};
      spec.objective = ansor::Objective::SumLatency();
      spec.options.measures_per_round = tenant.measures_per_round;
      spec.options.seed = MixSeed(seed_, j, 1);
      spec.options.search.population = tenant.population;
      spec.options.search.generations = tenant.generations;
      spec.options.search.seed = MixSeed(seed_, j, 2);
      ansor::RecordLog* log = logs_[j].get();
      spec.options.per_task_search = [log](size_t, const ansor::SearchTask&,
                                           ansor::SearchOptions* search) {
        search->record_log = log;
      };
      spec.total_rounds = tenant.total_rounds;
      out->budgets.push_back(static_cast<int64_t>(tenant.total_rounds) *
                             tenant.measures_per_round);
      spec.measurer = measurers_[j].get();
      spec.model = timed_.empty() ? static_cast<ansor::CostModel*>(models_[j].get())
                                  : timed_[j].get();
      if (j == 0) {
        first_submit = Clock::now();
        cpu_at_first_submit = ProcessCpuSeconds();
      }
      handles.push_back(service->Submit(std::move(spec)));
    }
    service->WaitAll();
    out->wall_seconds = SecondsSince(first_submit);
    out->cpu_seconds = ProcessCpuSeconds() - cpu_at_first_submit;

    out->networks = networks_;
    for (const ansor::JobHandle& handle : handles) {
      out->reports.push_back(handle.report());
    }
    out->shared_cache = service->SharedCacheStats();
    out->rounds_completed = service->metrics()->counter("service.rounds_completed")->value();
    for (const auto& timed : timed_) {
      out->train_seconds += timed->train_seconds();
      out->train_last_seconds = std::max(out->train_last_seconds, timed->train_last_seconds());
      out->predict_seconds += timed->predict_seconds();
      out->programs_predicted += timed->programs_predicted();
    }
    out->logs = std::move(logs_);
    out->models = std::move(models_);
    return first_submit;
  }

 private:
  const WorkloadSpec& workload_;
  uint64_t seed_;
  std::vector<NetworkTasks> networks_;
  std::unique_ptr<ansor::ThreadPool> device_;
  std::vector<std::unique_ptr<ansor::Measurer>> measurers_;
  std::vector<std::unique_ptr<ansor::GbdtCostModel>> models_;
  std::vector<std::unique_ptr<TimedCostModel>> timed_;
  std::vector<std::unique_ptr<ansor::RecordLog>> logs_;
};

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

std::vector<NetworkTasks> BuildNetworks(const WorkloadSpec& workload) {
  std::vector<NetworkTasks> networks;
  for (const TenantSpec& tenant : workload.tenants) {
    networks.push_back(tenant.network(/*batch=*/1));
  }
  return networks;
}

ansor::TuningServiceOptions ServiceOptions(const WorkloadSpec& workload) {
  ansor::TuningServiceOptions options;
  options.num_workers = workload.num_workers;
  options.max_concurrent_jobs = workload.max_concurrent_jobs;
  return options;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"resnet50_search", "bert_retrain", "fleet_restart"};
}

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec w;
  w.name = name;
  if (name == "resnet50_search") {
    // 11 tasks x 3 rounds x 16 trials = 528 trials; wide search.
    w.tenants = {{ansor::ResNet50Tasks, 33, 16, 256, 4}};
    w.rep_seconds = 4.8;
  } else if (name == "bert_retrain") {
    // 4 tasks, 72 rounds x 16 trials = 1152 trials; default search.
    w.tenants = {{ansor::BertTasks, 72, 16, 64, 3}};
    w.rep_seconds = 5.6;
  } else if (name == "fleet_restart") {
    // Three tenants, 16 rounds x 8 trials each, on one shared device.
    w.tenants = {{ansor::MobileNetV2Tasks, 16, 8, 64, 3},
                 {ansor::DcganTasks, 16, 8, 64, 3},
                 {ansor::ResNet50Tasks, 16, 8, 64, 3}};
    w.num_workers = 1;
    w.max_concurrent_jobs = 2;
    w.device_latency_seconds = 0.010;
    w.fleet_restart = true;
    w.rep_seconds = 9.5;
  } else {
    return false;
  }
  *spec = std::move(w);
  return true;
}

double PhaseResult::BestLatencyMs() const {
  double total = 0.0;
  for (size_t j = 0; j < reports.size(); ++j) {
    const std::vector<ansor::SearchTask>& tasks = networks[j].tasks;
    for (size_t i = 0; i < tasks.size(); ++i) {
      total += tasks[i].weight * reports[j].best_seconds[i];
    }
  }
  return 1e3 * total;
}

double RepResult::WallSeconds() const { return cold.wall_seconds + warm.wall_seconds; }

double RepResult::TuningCpuSeconds() const { return cold.cpu_seconds + warm.cpu_seconds; }

int64_t RepResult::TrialsMeasured() const {
  int64_t trials = 0;
  for (const PhaseResult* phase : {&cold, &warm}) {
    for (const JobReport& r : phase->reports) {
      trials += r.trials;
    }
  }
  return trials;
}

int64_t RepResult::TrialsAttempted() const {
  // The budget the jobs were given (rounds x trials per round), so trials a
  // job never got to count as attempted.
  int64_t attempted = 0;
  for (const PhaseResult* phase : {&cold, &warm}) {
    for (size_t j = 0; j < phase->reports.size(); ++j) {
      attempted += phase->budgets[j];
    }
  }
  return attempted;
}

int64_t RepResult::TrialsFailed() const {
  int64_t failed = 0;
  for (const PhaseResult* phase : {&cold, &warm}) {
    for (size_t j = 0; j < phase->reports.size(); ++j) {
      const JobReport& r = phase->reports[j];
      int64_t owed = std::max<int64_t>(0, phase->budgets[j] - r.trials - r.trials_cancelled);
      failed += r.trials_invalid + r.trials_cancelled + owed;
    }
  }
  return failed;
}

std::vector<double> RepResult::Turnarounds() const {
  std::vector<double> out;
  for (const PhaseResult* phase : {&cold, &warm}) {
    for (const JobReport& r : phase->reports) {
      out.push_back(r.turnaround_seconds);
    }
  }
  return out;
}

double SetupSeconds(const WorkloadSpec& workload, uint64_t seed) {
  const Clock::time_point start = Clock::now();
  std::vector<NetworkTasks> networks = BuildNetworks(workload);
  ansor::RecordStore fleet_store;
  ansor::TuningServiceOptions options = ServiceOptions(workload);
  options.record_store = workload.fleet_restart ? &fleet_store : nullptr;
  JobSet jobs(workload, seed, /*traced=*/false, networks);
  ansor::TuningService service(options);
  return SecondsSince(start);
}

RepResult RunRep(const WorkloadSpec& workload, uint64_t seed, bool traced,
                 const std::string& scratch_dir) {
  RepResult rep;
  ansor::TraceSink sink;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();

  // Set-up: everything up to the first Submit; SetupSeconds times the same
  // sequence.
  std::vector<NetworkTasks> networks = BuildNetworks(workload);
  ansor::RecordStore fleet_store;
  ansor::TuningServiceOptions options = ServiceOptions(workload);
  options.trace_sink = traced ? &sink : nullptr;
  options.record_store = workload.fleet_restart ? &fleet_store : nullptr;

  const std::string tag = std::to_string(seed) + "_" + (traced ? "t" : "u");
  const std::string records_path = scratch_dir + "/records_" + tag + ".bin";
  const std::string warm_path = scratch_dir + "/warm_" + tag + ".bin";
  {
    JobSet jobs(workload, seed, traced, networks);
    ansor::TuningService service(options);
    Clock::time_point first_submit = jobs.Run(&service, &rep.cold);
    rep.setup_seconds = std::chrono::duration<double>(first_submit - start).count();
    if (workload.fleet_restart) {
      StoreTimings& s = rep.store;
      Clock::time_point t = Clock::now();
      bool saved = service.SaveWarmState(warm_path);
      s.warm_save_seconds = SecondsSince(t);
      t = Clock::now();
      saved = fleet_store.SaveToFile(records_path) && saved;
      s.save_seconds = SecondsSince(t);
      s.checkpoint_seconds = s.warm_save_seconds + s.save_seconds;
      s.save_bytes = FileBytes(records_path) + FileBytes(warm_path);
      s.records = static_cast<int64_t>(fleet_store.size());
      s.saved = saved;
    }
  }
  if (workload.fleet_restart) {
    StoreTimings& s = rep.store;
    rep.warm_start_nanos = ansor::MonotonicClock::Real()->NowNanos();
    ansor::RecordStore warm_store;
    Clock::time_point t = Clock::now();
    s.loaded = static_cast<int64_t>(warm_store.LoadFromFile(records_path).loaded);
    s.load_seconds = SecondsSince(t);
    options.record_store = &warm_store;
    options.warm_start_path = warm_path;
    {
      JobSet jobs(workload, seed, traced, networks);
      t = Clock::now();
      ansor::TuningService service(options);
      s.warm_load_seconds = SecondsSince(t);
      s.restart_seconds = s.load_seconds + s.warm_load_seconds;
      s.warm_state = service.warm_start_stats();
      jobs.Run(&service, &rep.warm);
    }
    ansor::RecordStoreStats stats = warm_store.stats();
    s.appended = stats.appended;
    s.deduplicated = stats.deduplicated;
    std::filesystem::remove(records_path);
    std::filesystem::remove(warm_path);
  }
  rep.elapsed_seconds = SecondsSince(start);
  rep.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  if (traced) {
    rep.events = sink.Snapshot();
  }
  return rep;
}

void CheckRep(const WorkloadSpec& workload, const RepResult& rep,
              std::vector<std::string>* failures) {
  auto fail = [&](const std::string& what) { failures->push_back(what); };
  std::vector<const PhaseResult*> phases = {&rep.cold};
  if (workload.fleet_restart) {
    phases.push_back(&rep.warm);
  }
  for (const PhaseResult* phase : phases) {
    const char* phase_name = phase == &rep.cold ? "cold" : "warm";
    for (size_t j = 0; j < phase->reports.size(); ++j) {
      const JobReport& r = phase->reports[j];
      const std::string job = std::string(phase_name) + " job " + phase->networks[j].name;
      if (r.status != ansor::JobStatus::kCompleted) {
        fail(job + " ended " + ansor::JobStatusName(r.status));
      }
      if (r.trials != phase->budgets[j] || r.trials_cancelled != 0) {
        fail(job + " measured " + std::to_string(r.trials) + " of " +
             std::to_string(phase->budgets[j]) + " budgeted trials");
      }
      const std::vector<ansor::SearchTask>& tasks = phase->networks[j].tasks;
      ansor::Measurer fresh(Target());
      for (size_t i = 0; i < tasks.size(); ++i) {
        const std::string where = job + " task " + tasks[i].name;
        ansor::State best = phase->logs[j]->ReplayBest(tasks[i].dag.get());
        if (best.failed()) {
          fail(where + ": best record does not replay: " + best.error());
          continue;
        }
        ansor::LoweredProgram lowered = ansor::Lower(best);
        if (!ansor::VerifyProgram(best, lowered).legal()) {
          fail(where + ": best program is not legal under the static verifier");
        }
        ansor::MeasureResult again = fresh.Measure(best);
        if (!again.valid || again.seconds != r.best_seconds[i]) {
          char buf[160];
          std::snprintf(buf, sizeof(buf), ": re-measured %.17g s, reported %.17g s",
                        again.seconds, r.best_seconds[i]);
          fail(where + buf);
        }
      }
    }
  }
  if (workload.fleet_restart) {
    if (!rep.store.saved) {
      fail("checkpoint files could not be written");
    }
    const ansor::ArtifactLoadStats& warm = rep.store.warm_state;
    if (!warm.ok || warm.skipped != 0 || warm.loaded == 0) {
      fail("restart loaded " + std::to_string(warm.loaded) + " warm-state artifacts, skipped " +
           std::to_string(warm.skipped));
    }
    if (rep.store.loaded != rep.store.records) {
      fail("restart loaded " + std::to_string(rep.store.loaded) + " of " +
           std::to_string(rep.store.records) + " checkpointed records");
    }
    for (size_t j = 0; j < rep.cold.reports.size(); ++j) {
      const JobReport& c = rep.cold.reports[j];
      const JobReport& w = rep.warm.reports[j];
      if (c.best_seconds != w.best_seconds || c.allocation_trace != w.allocation_trace) {
        fail("warm job " + rep.cold.networks[j].name + " differs from its cold run");
      }
    }
  }
}

void CheckSameResults(const RepResult& a, const RepResult& b, const std::string& what,
                      std::vector<std::string>* failures) {
  for (auto [pa, pb] : {std::make_pair(&a.cold, &b.cold), std::make_pair(&a.warm, &b.warm)}) {
    bool same = pa->reports.size() == pb->reports.size();
    for (size_t j = 0; same && j < pa->reports.size(); ++j) {
      const JobReport& x = pa->reports[j];
      const JobReport& y = pb->reports[j];
      same = x.best_seconds == y.best_seconds && x.allocation_trace == y.allocation_trace &&
             x.trials == y.trials && x.trials_invalid == y.trials_invalid;
    }
    if (!same) {
      failures->push_back(what + ": results differ");
      return;
    }
  }
}

}  // namespace perfbench

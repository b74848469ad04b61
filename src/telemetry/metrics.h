// Unified fleet metrics: a lock-cheap registry of named counters, gauges and
// fixed-bucket histograms.
//
// The tuning pipeline accumulates stats in many scattered structs —
// EvolutionStats, ProgramCacheStats, RecordStoreStats, Measurer trial/verify
// counters, JobReport — each with its own accessors and no common snapshot.
// The MetricsRegistry is the single sink they mirror into: components either
// update registry handles directly on their hot paths (atomic add, no lock)
// or export their existing counters on demand (the ExportMetrics methods on
// ProgramCache / RecordStore / Measurer / GbdtCostModel), and one
// ToJson() call serializes the whole fleet state.
//
// Concurrency: Counter::Add, Gauge::Set and Histogram::Observe are lock-free
// atomics, safe from any thread. Registration (counter()/gauge()/histogram())
// takes a mutex but returns a pointer that stays valid for the registry's
// lifetime, so hot paths register once and increment forever.
//
// Histograms use fixed power-of-two buckets (one per binary exponent), so
// Observe is a couple of bit operations and quantile estimates carry at most
// one octave of relative error — plenty for p50/p95/p99 latency reporting,
// with no per-histogram configuration to get wrong.
#ifndef ANSOR_SRC_TELEMETRY_METRICS_H_
#define ANSOR_SRC_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ansor {

class Counter {
 public:
  void Add(int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: bucket b holds values in [2^(b-kBias), 2^(b-kBias+1)).
// Nonpositive values land in bucket 0. Sum/min/max are tracked exactly;
// quantiles are estimated as the geometric midpoint of the selected bucket.
class Histogram {
 public:
  static constexpr int kBuckets = 128;
  static constexpr int kBias = 64;  // bucket 64 covers [1, 2)

  void Observe(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  // Value v such that ~q of observations are <= v (q in [0, 1]). Exact up to
  // bucket resolution (one power of two); 0 when empty.
  double Quantile(double q) const;

  // Index of the bucket `value` lands in (exposed for tests).
  static int BucketIndex(double value);
  // Lower bound of bucket `index`.
  static double BucketLowerBound(int index);

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_minmax_{false};
  mutable std::mutex minmax_mu_;  // min/max update slow path only
};

// One flattened metric reading (the bench BENCH_JSON block schema).
struct MetricSample {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Returns the named metric, creating it on first use. The pointer is valid
  // for the registry's lifetime. The unit is fixed at creation; later calls
  // with a different unit keep the original.
  Counter* counter(const std::string& name, const std::string& unit = "count");
  Gauge* gauge(const std::string& name, const std::string& unit = "count");
  Histogram* histogram(const std::string& name, const std::string& unit = "seconds");

  // Convenience for mirror-on-snapshot call sites.
  void SetGauge(const std::string& name, double value, const std::string& unit = "count") {
    gauge(name, unit)->Set(value);
  }
  void AddCounter(const std::string& name, int64_t delta, const std::string& unit = "count") {
    counter(name, unit)->Add(delta);
  }

  // Whole-registry snapshot as one JSON object:
  //   {"counters":[{"name","value","unit"}...],
  //    "gauges":[...],
  //    "histograms":[{"name","unit","count","sum","mean","min","max",
  //                   "p50","p95","p99"}...]}
  // Metrics appear in registration order, so output is stable.
  std::string ToJson() const;
  bool SaveJsonToFile(const std::string& path) const;

  // Flat {name, value, unit} readings in registration order; histograms
  // expand to <name>.count / <name>.mean / <name>.p50 / .p95 / .p99.
  std::vector<MetricSample> Samples() const;
  // Samples() rendered as a JSON array (the benches' BENCH_JSON metrics
  // block: [{"name":...,"value":...,"unit":...},...]).
  std::string SamplesJson() const;

  size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    std::string unit;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(Kind kind, const std::string& name, const std::string& unit);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
  std::unordered_map<std::string, Entry*> by_name_;
};

// `s` as a quoted JSON string literal: quotes, backslashes and control
// characters escaped. Shared by the metrics and trace exporters.
std::string JsonString(const std::string& s);

}  // namespace ansor

#endif  // ANSOR_SRC_TELEMETRY_METRICS_H_

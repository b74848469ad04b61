#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/support/logging.h"

namespace ansor {

namespace {

// JSON-safe number rendering: finite shortest-ish decimal, integers without a
// trailing ".0" noise, non-finite values mapped to 0 (JSON has no inf/nan).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  // Range check first: double->int64 conversion of a value outside int64's
  // range is UB, so the cast may only run once fabs(v) admits it.
  if (std::fabs(v) < 1e15 && v == static_cast<int64_t>(v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

int Histogram::BucketIndex(double value) {
  if (!(value > 0.0) || !std::isfinite(value)) return 0;
  int exp = 0;
  std::frexp(value, &exp);  // value = m * 2^exp with m in [0.5, 1)
  // value in [2^(exp-1), 2^exp)  ->  bucket (exp - 1) + kBias.
  int index = exp - 1 + kBias;
  if (index < 0) return 0;
  if (index >= kBuckets) return kBuckets - 1;
  return index;
}

double Histogram::BucketLowerBound(int index) {
  if (index <= 0) return 0.0;
  return std::ldexp(1.0, index - kBias);
}

void Histogram::Observe(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
  // Min/max take a tiny lock; Observe stays cheap because the critical
  // section is two loads and at most two stores.
  {
    std::lock_guard<std::mutex> lock(minmax_mu_);
    if (!has_minmax_.load(std::memory_order_relaxed)) {
      min_.store(value, std::memory_order_relaxed);
      max_.store(value, std::memory_order_relaxed);
      has_minmax_.store(true, std::memory_order_relaxed);
    } else {
      if (value < min_.load(std::memory_order_relaxed)) {
        min_.store(value, std::memory_order_relaxed);
      }
      if (value > max_.load(std::memory_order_relaxed)) {
        max_.store(value, std::memory_order_relaxed);
      }
    }
  }
}

double Histogram::mean() const {
  int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::min() const {
  return has_minmax_.load(std::memory_order_relaxed)
             ? min_.load(std::memory_order_relaxed)
             : 0.0;
}

double Histogram::max() const {
  return has_minmax_.load(std::memory_order_relaxed)
             ? max_.load(std::memory_order_relaxed)
             : 0.0;
}

double Histogram::Quantile(double q) const {
  int64_t n = count();
  if (n <= 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation (1-based, ceil so q=1 hits the last one).
  int64_t rank = std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * n)));
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) {
      double lo = BucketLowerBound(b);
      double hi = BucketLowerBound(b + 1);
      if (lo <= 0.0) return min();  // zero/negative bucket: report true min
      // Geometric midpoint halves the worst-case relative error; clamp to
      // the exact min/max so single-bucket histograms report real values.
      double rep = std::sqrt(lo * hi);
      return std::min(max(), std::max(min(), rep));
    }
  }
  return max();
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(Kind kind,
                                                      const std::string& name,
                                                      const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    // Fail loudly on a kind collision; returning the existing entry would
    // hand the convenience wrappers a nullptr to dereference.
    CHECK(it->second->kind == kind)
        << "metric '" << name << "' already registered with a different kind";
    return it->second;
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = kind;
  entry->name = name;
  entry->unit = unit;
  switch (kind) {
    case Kind::kCounter: entry->counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: entry->gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram: entry->histogram = std::make_unique<Histogram>(); break;
  }
  Entry* raw = entry.get();
  entries_.push_back(std::move(entry));
  by_name_.emplace(name, raw);
  return raw;
}

Counter* MetricsRegistry::counter(const std::string& name, const std::string& unit) {
  Entry* e = FindOrCreate(Kind::kCounter, name, unit);
  return e->counter ? e->counter.get() : nullptr;
}

Gauge* MetricsRegistry::gauge(const std::string& name, const std::string& unit) {
  Entry* e = FindOrCreate(Kind::kGauge, name, unit);
  return e->gauge ? e->gauge.get() : nullptr;
}

Histogram* MetricsRegistry::histogram(const std::string& name, const std::string& unit) {
  Entry* e = FindOrCreate(Kind::kHistogram, name, unit);
  return e->histogram ? e->histogram.get() : nullptr;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream counters, gauges, histograms;
  bool first_c = true, first_g = true, first_h = true;
  for (const auto& e : entries_) {
    switch (e->kind) {
      case Kind::kCounter:
        if (!first_c) counters << ",";
        first_c = false;
        counters << "{\"name\":" << JsonString(e->name)
                 << ",\"value\":" << e->counter->value()
                 << ",\"unit\":" << JsonString(e->unit) << "}";
        break;
      case Kind::kGauge:
        if (!first_g) gauges << ",";
        first_g = false;
        gauges << "{\"name\":" << JsonString(e->name)
               << ",\"value\":" << JsonNumber(e->gauge->value())
               << ",\"unit\":" << JsonString(e->unit) << "}";
        break;
      case Kind::kHistogram: {
        if (!first_h) histograms << ",";
        first_h = false;
        const Histogram* h = e->histogram.get();
        histograms << "{\"name\":" << JsonString(e->name)
                   << ",\"unit\":" << JsonString(e->unit)
                   << ",\"count\":" << h->count()
                   << ",\"sum\":" << JsonNumber(h->sum())
                   << ",\"mean\":" << JsonNumber(h->mean())
                   << ",\"min\":" << JsonNumber(h->min())
                   << ",\"max\":" << JsonNumber(h->max())
                   << ",\"p50\":" << JsonNumber(h->Quantile(0.50))
                   << ",\"p95\":" << JsonNumber(h->Quantile(0.95))
                   << ",\"p99\":" << JsonNumber(h->Quantile(0.99)) << "}";
        break;
      }
    }
  }
  std::ostringstream out;
  out << "{\"counters\":[" << counters.str() << "],\"gauges\":[" << gauges.str()
      << "],\"histograms\":[" << histograms.str() << "]}";
  return out.str();
}

bool MetricsRegistry::SaveJsonToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << ToJson() << "\n";
  return out.good();
}

std::vector<MetricSample> MetricsRegistry::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> samples;
  samples.reserve(entries_.size());
  for (const auto& e : entries_) {
    switch (e->kind) {
      case Kind::kCounter:
        samples.push_back({e->name, static_cast<double>(e->counter->value()), e->unit});
        break;
      case Kind::kGauge:
        samples.push_back({e->name, e->gauge->value(), e->unit});
        break;
      case Kind::kHistogram: {
        const Histogram* h = e->histogram.get();
        samples.push_back({e->name + ".count", static_cast<double>(h->count()), "count"});
        samples.push_back({e->name + ".mean", h->mean(), e->unit});
        samples.push_back({e->name + ".p50", h->Quantile(0.50), e->unit});
        samples.push_back({e->name + ".p95", h->Quantile(0.95), e->unit});
        samples.push_back({e->name + ".p99", h->Quantile(0.99), e->unit});
        break;
      }
    }
  }
  return samples;
}

std::string MetricsRegistry::SamplesJson() const {
  std::vector<MetricSample> samples = Samples();
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"name\":" << JsonString(samples[i].name)
        << ",\"value\":" << JsonNumber(samples[i].value)
        << ",\"unit\":" << JsonString(samples[i].unit) << "}";
  }
  out << "]";
  return out.str();
}

}  // namespace ansor

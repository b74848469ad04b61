#include "src/telemetry/trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/telemetry/metrics.h"

namespace ansor {

namespace {

std::string Micros(int64_t nanos) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(nanos) * 1e-3);
  return buf;
}

// --- Minimal parser for the flat event shape ToJsonl emits. ---

// Extracts the raw value text of `key` in a flat JSON object (no nested
// objects except the final "args"). Returns empty string if absent.
std::string RawField(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  if (pos >= line.size()) return "";
  if (line[pos] == '"') {
    // String value: scan to the closing unescaped quote.
    std::string out;
    for (size_t i = pos + 1; i < line.size(); ++i) {
      char c = line[i];
      if (c == '\\' && i + 1 < line.size()) {
        char n = line[++i];
        switch (n) {
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (i + 4 < line.size()) {
              out += static_cast<char>(
                  std::strtol(line.substr(i + 1, 4).c_str(), nullptr, 16));
              i += 4;
            }
            break;
          default: out += n;
        }
      } else if (c == '"') {
        return out;
      } else {
        out += c;
      }
    }
    return out;
  }
  size_t end = pos;
  while (end < line.size() && line[end] != ',' && line[end] != '}' &&
         line[end] != ']') {
    ++end;
  }
  return line.substr(pos, end - pos);
}

int64_t ParseInt(const std::string& raw, int64_t fallback) {
  if (raw.empty()) return fallback;
  return std::strtoll(raw.c_str(), nullptr, 10);
}

}  // namespace

void TraceSink::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceSink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t TraceSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string TraceSink::ToJsonl() const {
  std::vector<TraceEvent> events = Snapshot();
  std::ostringstream out;
  for (const TraceEvent& e : events) {
    out << "{\"name\":" << JsonString(e.name)
        << ",\"cat\":" << JsonString(e.category)
        << ",\"ph\":\"X\""
        << ",\"ts\":" << Micros(e.start_nanos)
        << ",\"dur\":" << Micros(e.end_nanos - e.start_nanos)
        << ",\"pid\":0"
        << ",\"tid\":" << (e.job >= 0 ? e.job : 0)
        << ",\"args\":{\"span\":" << e.span_id
        << ",\"parent\":" << e.parent_id
        << ",\"job\":" << e.job
        << ",\"task\":" << e.task
        << ",\"round\":" << e.round
        << ",\"generation\":" << e.generation;
    for (const auto& kv : e.args) {
      out << "," << JsonString(kv.first) << ":" << kv.second;
    }
    out << "}}\n";
  }
  return out.str();
}

bool TraceSink::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << ToJsonl();
  return out.good();
}

bool TraceSink::ParseJsonl(const std::string& text, std::vector<TraceEvent>* events) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    TraceEvent e;
    e.name = RawField(line, "name");
    if (e.name.empty()) return false;
    e.category = RawField(line, "cat");
    e.span_id = static_cast<uint64_t>(ParseInt(RawField(line, "span"), 0));
    e.parent_id = static_cast<uint64_t>(ParseInt(RawField(line, "parent"), 0));
    e.job = ParseInt(RawField(line, "job"), -1);
    e.task = ParseInt(RawField(line, "task"), -1);
    e.round = static_cast<int>(ParseInt(RawField(line, "round"), -1));
    e.generation = static_cast<int>(ParseInt(RawField(line, "generation"), -1));
    double ts_us = std::strtod(RawField(line, "ts").c_str(), nullptr);
    double dur_us = std::strtod(RawField(line, "dur").c_str(), nullptr);
    e.start_nanos = static_cast<int64_t>(std::llround(ts_us * 1e3));
    e.end_nanos = e.start_nanos + static_cast<int64_t>(std::llround(dur_us * 1e3));
    // Known non-core args the report cares about come back as raw strings.
    for (const char* key : {"outcome", "cache", "queue_seconds", "device_seconds",
                            "count", "hits", "misses"}) {
      std::string raw = RawField(line, key);
      if (!raw.empty()) e.args.emplace_back(key, raw);
    }
    events->push_back(std::move(e));
  }
  return true;
}

bool TraceSink::LoadFromFile(const std::string& path, std::vector<TraceEvent>* events) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseJsonl(buf.str(), events);
}

TraceSpan::TraceSpan(const Tracer& tracer, const char* name, const char* category) {
  if (!tracer.enabled()) return;  // the whole disabled-mode cost: this branch
  sink_ = tracer.sink();
  tracer_ = tracer;
  event_.name = name;
  event_.category = category;
  event_.span_id = sink_->NextId();
  event_.parent_id = tracer.parent();
  event_.job = tracer.job();
  event_.task = tracer.task();
  event_.round = tracer.round();
  event_.generation = tracer.generation();
  event_.start_nanos = tracer.clock()->NowNanos();
}

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  if (this != &other) {
    Finish();
    sink_ = other.sink_;
    tracer_ = other.tracer_;
    event_ = std::move(other.event_);
    other.sink_ = nullptr;
  }
  return *this;
}

void TraceSpan::Arg(const char* key, const std::string& value) {
  if (sink_ == nullptr) return;
  event_.args.emplace_back(key, JsonString(value));
}

void TraceSpan::Arg(const char* key, int64_t value) {
  if (sink_ == nullptr) return;
  event_.args.emplace_back(key, std::to_string(value));
}

void TraceSpan::Arg(const char* key, double value) {
  if (sink_ == nullptr) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(value) ? value : 0.0);
  event_.args.emplace_back(key, buf);
}

void TraceSpan::Finish() {
  if (sink_ == nullptr) return;
  event_.end_nanos = tracer_.clock()->NowNanos();
  sink_->Record(std::move(event_));
  sink_ = nullptr;
}

}  // namespace ansor

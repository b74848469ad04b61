#include "perfbench/src/span_fold.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

// Nanoseconds of [start, end) covered by the union of `children`, each
// clipped to [start, end).
int64_t CoveredNanos(int64_t start, int64_t end,
                     std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = start;
  for (auto [child_start, child_end] : children) {
    child_start = std::max(child_start, cursor);
    child_end = std::min(child_end, end);
    if (child_end > child_start) {
      covered += child_end - child_start;
      cursor = child_end;
    }
  }
  return covered;
}

}  // namespace

std::map<std::string, SpanTotals> FoldSelfTimes(const std::vector<ansor::TraceEvent>& events) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const ansor::TraceEvent& e : events) {
    if (e.parent_id != 0) {
      children[e.parent_id].emplace_back(e.start_nanos, e.end_nanos);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const ansor::TraceEvent& e : events) {
    int64_t duration = std::max<int64_t>(0, e.end_nanos - e.start_nanos);
    int64_t covered = 0;
    auto it = children.find(e.span_id);
    if (it != children.end()) {
      covered = CoveredNanos(e.start_nanos, e.end_nanos, it->second);
    }
    SpanTotals& t = totals[e.name];
    ++t.count;
    t.inclusive_seconds += 1e-9 * static_cast<double>(duration);
    t.self_seconds += 1e-9 * static_cast<double>(duration - covered);
  }
  return totals;
}

std::vector<double> NumericArgs(const std::vector<ansor::TraceEvent>& events,
                                const std::string& name, const std::string& key) {
  std::vector<double> values;
  for (const ansor::TraceEvent& e : events) {
    if (e.name != name) {
      continue;
    }
    for (const auto& [k, v] : e.args) {
      if (k == key) {
        values.push_back(std::strtod(v.c_str(), nullptr));
      }
    }
  }
  return values;
}

int64_t CountWithArg(const std::vector<ansor::TraceEvent>& events, const std::string& name,
                     const std::string& key, const std::string& value) {
  // String args are stored pre-rendered as quoted JSON scalars.
  const std::string quoted = "\"" + value + "\"";
  int64_t count = 0;
  for (const ansor::TraceEvent& e : events) {
    if (e.name != name) {
      continue;
    }
    for (const auto& [k, v] : e.args) {
      if (k == key && v == quoted) {
        ++count;
      }
    }
  }
  return count;
}

}  // namespace perfbench

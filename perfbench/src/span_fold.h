// Self-time fold over recorded trace spans.
//
// The library's own trace report folds inclusive time only. A layer's self
// time is its span's duration minus the part of that interval covered by the
// union of its child spans; children may run on other threads, so the union
// is taken over intervals, not summed.
#ifndef PERFBENCH_SRC_SPAN_FOLD_H_
#define PERFBENCH_SRC_SPAN_FOLD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/telemetry/trace.h"

namespace perfbench {

struct SpanTotals {
  int64_t count = 0;
  double inclusive_seconds = 0.0;
  double self_seconds = 0.0;
};

// Per span name, summed over every span of that name.
std::map<std::string, SpanTotals> FoldSelfTimes(const std::vector<ansor::TraceEvent>& events);

// The numeric value of arg `key` on each event named `name` that carries it.
std::vector<double> NumericArgs(const std::vector<ansor::TraceEvent>& events,
                                const std::string& name, const std::string& key);

// Number of events named `name` whose string arg `key` equals `value`.
int64_t CountWithArg(const std::vector<ansor::TraceEvent>& events, const std::string& name,
                     const std::string& key, const std::string& value);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPAN_FOLD_H_

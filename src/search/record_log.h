// Tuning-record logs, mirroring TVM auto_scheduler's record files.
//
// Records let users resume tuning, apply the best found schedule without
// re-searching, and share results between machines. A RecordLog is a
// RecordStore (src/store/record_store.h) in append-log mode: no dedup,
// because a tuner never re-measures the same program and lossless
// round-trips must keep whatever the caller added. It persists in the
// store's binary container; fleet-scale features (signature dedup, client
// attribution) are the same store with dedup on.
#ifndef ANSOR_SRC_SEARCH_RECORD_LOG_H_
#define ANSOR_SRC_SEARCH_RECORD_LOG_H_

#include "src/store/record_store.h"

namespace ansor {

class RecordLog : public RecordStore {
 public:
  RecordLog() : RecordStore(Options{/*dedup=*/false}) {}
};

}  // namespace ansor

#endif  // ANSOR_SRC_SEARCH_RECORD_LOG_H_

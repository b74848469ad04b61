// RecordStore: binary container round trips, pinned container bytes,
// signature dedup, corruption recovery, and concurrent fleet appends.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <thread>

#include "src/store/bytes.h"
#include "src/store/record_store.h"
#include "tests/testing.h"

namespace ansor {
namespace {

// One record exercising every step kind (and both annotation paths), so a
// codec bug in any field shows up as a Fingerprints mismatch.
std::vector<TuningRecord> AllKindsRecords() {
  std::vector<TuningRecord> records;
  TuningRecord a;
  a.task_id = 0x0123456789abcdefULL;
  a.seconds = 3.5e-4;
  a.throughput = 2.75e9;
  a.steps = {
      MakeSplitStep("C", 0, {8, 4}),
      MakeFollowSplitStep("D", 1, 0, 2),
      MakeFuseStep("C", 0, 2),
      MakeReorderStep("C", {2, 0, 1}),
      MakeComputeAtStep("C", "D", 1),
      MakeComputeInlineStep("B"),
  };
  records.push_back(a);
  TuningRecord b;
  b.task_id = 7;
  b.seconds = 1.0e-3;  // no throughput: flags byte must round trip as 0
  b.steps = {
      MakeComputeRootStep("C"),
      MakeCacheWriteStep("C"),
      MakeRfactorStep("C.rf", 1),
      MakeAnnotationStep("C", 0, IterAnnotation::kParallel),
      MakeAnnotationStep("C", 2, IterAnnotation::kVectorize),
      MakePragmaStep("C", 512),
  };
  records.push_back(b);
  TuningRecord c;
  c.task_id = 7;  // same task, different program: must not dedup
  c.seconds = 2.0e-3;
  c.throughput = 1.0e9;
  c.steps = {MakeSplitStep("C", 1, {16})};
  records.push_back(c);
  return records;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Bit-exact identity of each record: task id, the IEEE bits of seconds and
// throughput, and the step signature.
std::vector<std::string> Fingerprints(const std::vector<TuningRecord>& records) {
  std::vector<std::string> out;
  for (const TuningRecord& r : records) {
    out.push_back(std::to_string(r.task_id) + '|' + std::to_string(Bits(r.seconds)) + '|' +
                  std::to_string(Bits(r.throughput)) + '|' + StepSignature(r.steps));
  }
  return out;
}

TEST(RecordStoreBinary, RoundTripAllStepKindsBitExact) {
  RecordStore store(RecordStore::Options{/*dedup=*/false});
  for (TuningRecord r : AllKindsRecords()) {
    store.Add(std::move(r));
  }
  std::string bytes = store.Serialize();

  RecordStore loaded(RecordStore::Options{/*dedup=*/false});
  RecordLoadStats stats = loaded.Deserialize(bytes);
  EXPECT_TRUE(stats);
  EXPECT_TRUE(stats.index_ok);
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_EQ(stats.skipped, 0u);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(Fingerprints(loaded.records()), Fingerprints(store.records()));
  // Throughput is stored only when present: both flag paths survive.
  EXPECT_DOUBLE_EQ(loaded.records()[0].throughput, 2.75e9);
  EXPECT_DOUBLE_EQ(loaded.records()[1].throughput, 0.0);
}

// 200 records with search-sized step lists (18 steps) drawn from a shared
// sketch vocabulary, so step interning pays off the way it does on real
// tuning logs.
std::vector<TuningRecord> VocabularyRecords() {
  std::vector<Step> vocabulary;
  for (const TuningRecord& r : AllKindsRecords()) {
    vocabulary.insert(vocabulary.end(), r.steps.begin(), r.steps.end());
  }
  std::vector<TuningRecord> records;
  for (int i = 0; i < 200; ++i) {
    TuningRecord r;
    r.task_id = static_cast<uint64_t>(i % 4);
    r.seconds = 1e-3 + 1e-9 * i;  // distinct measurements, shared step lists
    r.throughput = 1e9;
    for (int s = 0; s < 18; ++s) {
      r.steps.push_back(vocabulary[static_cast<size_t>(i + s) % vocabulary.size()]);
    }
    records.push_back(std::move(r));
  }
  return records;
}

std::string SerializeAll(const std::vector<TuningRecord>& records) {
  RecordStore store(RecordStore::Options{/*dedup=*/false});
  for (const TuningRecord& r : records) {
    store.Add(r);
  }
  return store.Serialize();
}

TEST(RecordStoreBinary, SerializedBytesGolden) {
  // Pins the on-disk container byte for byte: an encoder change that moves
  // any byte (table order, step interning, framing) must be a deliberate
  // format change, not a side effect.
  std::string all_kinds = SerializeAll(AllKindsRecords());
  EXPECT_EQ(all_kinds.size(), 183u);
  EXPECT_EQ(Fnv1a64(all_kinds.data(), all_kinds.size()), 0xee37ded4a101b7a7ULL);
  std::string vocab = SerializeAll(VocabularyRecords());
  EXPECT_EQ(vocab.size(), 7933u);
  EXPECT_EQ(Fnv1a64(vocab.data(), vocab.size()), 0x874c5dc94e66f8f5ULL);
}

TEST(RecordStoreBinary, LegacyTextRejected) {
  // A one-line-per-record text log, and any payload without the container
  // magic, loads nothing.
  std::string path = ::testing::TempDir() + "/ansor_legacy_text.log";
  ASSERT_TRUE(WriteFileBytes(path,
                             "task=0000000000000007|seconds=1000000e-9|steps=SP,0,4@C;CW@C\n"
                             "task=0000000000000008|seconds=2000000e-9|steps=CI@B\n"));
  RecordStore from_file;
  RecordLoadStats file_stats = from_file.LoadFromFile(path);
  EXPECT_FALSE(file_stats.ok);
  EXPECT_EQ(file_stats.loaded, 0u);
  EXPECT_EQ(from_file.size(), 0u);
  std::remove(path.c_str());

  std::string magicless = SerializeAll(AllKindsRecords());
  magicless[0] = 'X';
  RecordStore from_bytes;
  RecordLoadStats byte_stats = from_bytes.Deserialize(magicless);
  EXPECT_FALSE(byte_stats.ok);
  EXPECT_EQ(byte_stats.loaded, 0u);
  EXPECT_EQ(from_bytes.size(), 0u);
  EXPECT_FALSE(RecordStore::ForEachRecord("", [](TuningRecord) { FAIL(); }).ok);
}

TEST(RecordStoreDedup, ExactCountersAndInPlaceImprovement) {
  RecordStore store;  // dedup on
  TuningRecord r;
  r.task_id = 42;
  r.seconds = 5e-3;
  r.throughput = 1e9;
  r.steps = {MakeSplitStep("C", 0, {4})};

  EXPECT_TRUE(store.Add(r));
  EXPECT_FALSE(store.Add(r));  // exact duplicate: dropped
  TuningRecord slower = r;
  slower.seconds = 9e-3;
  EXPECT_FALSE(store.Add(slower));  // slower duplicate: dropped, no update
  TuningRecord faster = r;
  faster.seconds = 1e-3;
  faster.throughput = 5e9;
  EXPECT_FALSE(store.Add(faster));  // faster duplicate: updates in place

  EXPECT_EQ(store.size(), 1u);
  RecordStoreStats stats = store.stats();
  EXPECT_EQ(stats.appended, 1);
  EXPECT_EQ(stats.deduplicated, 3);
  EXPECT_EQ(stats.improved, 1);
  auto best = store.BestFor(42);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->seconds, 1e-3);
  EXPECT_DOUBLE_EQ(best->throughput, 5e9);
}

TEST(RecordStoreDedup, ClientAttributionIsExact) {
  RecordStore store;
  TuningRecord r;
  r.task_id = 1;
  r.seconds = 1e-3;
  r.steps = {MakeSplitStep("C", 0, {2})};
  store.Add(r, /*client_id=*/10);
  store.Add(r, /*client_id=*/11);  // client 11 hits the fleet's existing record
  TuningRecord other = r;
  other.steps = {MakeSplitStep("C", 0, {8})};
  store.Add(other, /*client_id=*/11);

  RecordClientStats c10 = store.ClientStatsFor(10);
  EXPECT_EQ(c10.appended, 1);
  EXPECT_EQ(c10.deduplicated, 0);
  RecordClientStats c11 = store.ClientStatsFor(11);
  EXPECT_EQ(c11.appended, 1);
  EXPECT_EQ(c11.deduplicated, 1);
  EXPECT_EQ(store.ClientStatsFor(99).appended, 0);
}

TEST(RecordStoreBinary, CorruptedIndexFallsBackToSequentialScan) {
  RecordStore store(RecordStore::Options{/*dedup=*/false});
  for (TuningRecord r : AllKindsRecords()) {
    store.Add(std::move(r));
  }
  std::string bytes = store.Serialize();
  bytes.back() ^= 0x5a;  // smash the index magic: footer unusable

  RecordStore loaded(RecordStore::Options{/*dedup=*/false});
  RecordLoadStats stats = loaded.Deserialize(bytes);
  EXPECT_TRUE(stats.ok);
  EXPECT_FALSE(stats.index_ok);
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_EQ(Fingerprints(loaded.records()), Fingerprints(store.records()));
}

TEST(RecordStoreBinary, ChecksumMismatchDetected) {
  RecordStore store(RecordStore::Options{/*dedup=*/false});
  for (TuningRecord r : AllKindsRecords()) {
    store.Add(std::move(r));
  }
  std::string bytes = store.Serialize();
  // Flip a payload byte (inside the records, past the tables): the footer
  // checksum must catch it and the loader must degrade, not trust the index.
  bytes[bytes.size() / 2] ^= 0x01;
  RecordStore loaded(RecordStore::Options{/*dedup=*/false});
  RecordLoadStats stats = loaded.Deserialize(bytes);
  EXPECT_FALSE(stats.index_ok);
  // The scan recovers what it can; whatever loads must still parse cleanly.
  EXPECT_LE(stats.loaded + stats.skipped, 3u + 1u);
}

TEST(RecordStoreBinary, TruncationNeverCrashesAndCountsLoss) {
  RecordStore store(RecordStore::Options{/*dedup=*/false});
  auto base = AllKindsRecords();
  for (int i = 0; i < 20; ++i) {
    TuningRecord r = base[static_cast<size_t>(i) % base.size()];
    r.seconds += 1e-9 * i;
    store.Add(std::move(r));
  }
  std::string bytes = store.Serialize();
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    RecordStore loaded(RecordStore::Options{/*dedup=*/false});
    RecordLoadStats stats = loaded.Deserialize(bytes.substr(0, cut));
    // Prefixes shorter than the magic are rejected whole; longer ones must
    // account for every record, as loaded or as skipped.
    if (cut < 8) {
      EXPECT_FALSE(stats.ok) << "cut=" << cut;
    } else if (stats.ok) {
      EXPECT_EQ(stats.loaded + stats.skipped, 20u) << "cut=" << cut;
    }
    EXPECT_EQ(loaded.size(), stats.loaded);
  }
  // Removing only the footer loses nothing.
  RecordStore headless(RecordStore::Options{/*dedup=*/false});
  RecordLoadStats stats = headless.Deserialize(bytes.substr(0, bytes.size() - 16));
  EXPECT_TRUE(stats.ok);
  EXPECT_FALSE(stats.index_ok);
  EXPECT_EQ(stats.loaded, 20u);
}

TEST(RecordStoreBinary, StreamingMatchesDeserialize) {
  RecordStore store(RecordStore::Options{/*dedup=*/false});
  for (TuningRecord r : AllKindsRecords()) {
    store.Add(std::move(r));
  }
  std::string bytes = store.Serialize();

  std::vector<TuningRecord> streamed;
  RecordLoadStats stats = RecordStore::ForEachRecord(
      bytes, [&](TuningRecord r) { streamed.push_back(std::move(r)); });
  EXPECT_TRUE(stats);
  EXPECT_EQ(Fingerprints(streamed), Fingerprints(store.records()));
}

TEST(RecordStoreConcurrency, ParallelAddsAccountExactly) {
  RecordStore store;  // dedup on
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TuningRecord r;
        r.task_id = 5;
        r.seconds = 1e-3 + 1e-6 * i;
        // Every thread adds the same 50 programs: exactly 50 distinct
        // signatures survive however the threads interleave.
        r.steps = {MakeSplitStep("C", 0, {i + 1})};
        store.Add(r, /*client_id=*/static_cast<uint64_t>(t + 1));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(store.size(), static_cast<size_t>(kPerThread));
  RecordStoreStats stats = store.stats();
  EXPECT_EQ(stats.appended, kPerThread);
  EXPECT_EQ(stats.appended + stats.deduplicated, kThreads * kPerThread);
  int64_t client_total = 0;
  for (int t = 1; t <= kThreads; ++t) {
    RecordClientStats cs = store.ClientStatsFor(static_cast<uint64_t>(t));
    client_total += cs.appended + cs.deduplicated;
  }
  EXPECT_EQ(client_total, kThreads * kPerThread);
}

TEST(RecordStoreReplay, ReplayBestReconstructsState) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  State state(&dag);
  state.Split("C", 0, {4});
  state.Annotate("C", 0, IterAnnotation::kParallel);
  ASSERT_FALSE(state.failed());

  RecordStore store;
  TuningRecord r;
  r.task_id = dag.CanonicalHash();
  r.seconds = 1e-3;
  r.steps = state.steps();
  store.Add(std::move(r));

  State replayed = store.ReplayBest(&dag);
  ASSERT_FALSE(replayed.failed());
  EXPECT_EQ(StepSignature(replayed), StepSignature(state));
  EXPECT_TRUE(store.ReplayBest(nullptr).failed());
}

}  // namespace
}  // namespace ansor

#include "src/store/artifact_store.h"

#include "src/dag/compute_dag.h"
#include "src/ir/state.h"
#include "src/program/program_cache.h"
#include "src/store/serde.h"

namespace ansor {
namespace {

constexpr char kArtifactMagic[8] = {'A', 'N', 'S', 'R', 'A', 'R', 'T', '1'};
constexpr size_t kMagicSize = sizeof(kArtifactMagic);
constexpr uint8_t kFlagLoweringOk = 1;
constexpr uint8_t kFlagStructurallyLegal = 2;
constexpr uint8_t kKnownFlags = kFlagLoweringOk | kFlagStructurallyLegal;
constexpr uint64_t kMaxReasonableCount = 1u << 28;

std::string StoreKey(uint64_t task_id, const std::string& signature) {
  return std::to_string(task_id) + '|' + signature;
}

void EncodeSnapshot(const ArtifactSnapshot& s, StringTable* strings, ByteWriter* body) {
  body->PutU64(s.task_id);
  body->PutVarint(strings->Intern(s.tag));
  uint8_t flags = 0;
  if (s.lowering_ok) flags |= kFlagLoweringOk;
  if (s.structurally_legal) flags |= kFlagStructurallyLegal;
  body->PutU8(flags);
  body->PutVarint(s.steps.size());
  for (const Step& step : s.steps) {
    EncodeStep(step, strings, body);
  }
  EncodeFeatureMatrix(s.features, strings, body);
  body->PutVarint(s.resource_verdicts.size());
  for (const auto& [fingerprint, passed] : s.resource_verdicts) {
    body->PutU64(fingerprint);
    body->PutU8(passed ? 1 : 0);
  }
}

bool DecodeSnapshot(ByteReader* r, const std::vector<std::string>& strings,
                    ArtifactSnapshot* out) {
  out->task_id = r->GetU64();
  uint64_t tag_ref = r->GetVarint();
  if (!r->ok() || tag_ref >= strings.size()) {
    r->Fail();
    return false;
  }
  out->tag = strings[tag_ref];
  uint8_t flags = r->GetU8();
  if (!r->ok() || (flags & ~kKnownFlags) != 0) {
    r->Fail();
    return false;
  }
  out->lowering_ok = (flags & kFlagLoweringOk) != 0;
  out->structurally_legal = (flags & kFlagStructurallyLegal) != 0;
  uint64_t num_steps = r->GetVarint();
  if (!r->ok() || num_steps > kMaxReasonableCount) {
    r->Fail();
    return false;
  }
  out->steps.reserve(num_steps);
  for (uint64_t i = 0; i < num_steps; ++i) {
    std::optional<Step> step = DecodeStep(r, strings);
    if (!step.has_value()) {
      return false;
    }
    out->steps.push_back(std::move(*step));
  }
  if (!DecodeFeatureMatrix(r, strings, &out->features)) {
    return false;
  }
  uint64_t num_verdicts = r->GetVarint();
  if (!r->ok() || num_verdicts > kMaxReasonableCount) {
    r->Fail();
    return false;
  }
  out->resource_verdicts.reserve(num_verdicts);
  for (uint64_t i = 0; i < num_verdicts; ++i) {
    uint64_t fingerprint = r->GetU64();
    uint8_t passed = r->GetU8();
    if (!r->ok() || passed > 1) {
      r->Fail();
      return false;
    }
    out->resource_verdicts.emplace_back(fingerprint, passed != 0);
  }
  // A well-formed body has nothing trailing: leftover bytes mean the length
  // prefix and the content disagree, i.e. corruption.
  return r->AtEnd();
}

}  // namespace

bool ArtifactStore::Add(ArtifactSnapshot snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  return AddLocked(std::move(snapshot));
}

bool ArtifactStore::AddLocked(ArtifactSnapshot snapshot) {
  std::string key = StoreKey(snapshot.task_id, StepSignature(snapshot.steps));
  auto [it, inserted] = by_key_.emplace(std::move(key), snapshots_.size());
  if (!inserted) {
    ++stats_.deduplicated;
    return false;
  }
  snapshots_.push_back(std::move(snapshot));
  ++stats_.added;
  return true;
}

size_t ArtifactStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_.size();
}

ArtifactStoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

const ArtifactSnapshot* ArtifactStore::Find(uint64_t task_id,
                                            const std::string& signature) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(StoreKey(task_id, signature));
  return it == by_key_.end() ? nullptr : &snapshots_[it->second];
}

size_t ArtifactStore::CaptureCache(const ProgramCache& cache, const std::string& tag) {
  size_t added = 0;
  cache.ForEach([&](const ProgramArtifactPtr& artifact) {
    ArtifactSnapshot snapshot;
    snapshot.task_id = artifact->task_id();
    snapshot.tag = tag;
    snapshot.steps = artifact->steps();
    snapshot.lowering_ok = artifact->ok();
    snapshot.structurally_legal = artifact->statically_legal();
    snapshot.features = artifact->features();
    snapshot.resource_verdicts = artifact->resource_verdict_summary();
    if (Add(std::move(snapshot))) {
      ++added;
    }
  });
  return added;
}

size_t ArtifactStore::WarmCache(ProgramCache* cache,
                                std::shared_ptr<const ComputeDAG> dag) const {
  if (cache == nullptr || dag == nullptr) {
    return 0;
  }
  uint64_t task_id = dag->CanonicalHash();
  size_t inserted = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const ArtifactSnapshot& s : snapshots_) {
    if (s.task_id != task_id) {
      continue;
    }
    auto artifact = std::make_shared<const ProgramArtifact>(
        dag, s.steps, StepSignature(s.steps), s.features, s.lowering_ok,
        s.structurally_legal, s.resource_verdicts);
    if (cache->WarmInsert(task_id, std::move(artifact))) {
      ++inserted;
    }
  }
  return inserted;
}

std::string ArtifactStore::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Bodies are encoded first (interning into the string table as they go) so
  // the table is complete before it is written ahead of them.
  StringTable strings;
  ByteWriter bodies;
  for (const ArtifactSnapshot& s : snapshots_) {
    ByteWriter body;
    EncodeSnapshot(s, &strings, &body);
    bodies.PutVarint(body.size());
    bodies.PutRaw(body.buffer().data(), body.size());
  }
  ByteWriter w;
  w.PutRaw(kArtifactMagic, kMagicSize);
  strings.Encode(&w);
  w.PutVarint(snapshots_.size());
  w.PutRaw(bodies.buffer().data(), bodies.size());
  return w.Take();
}

ArtifactLoadStats ArtifactStore::Deserialize(const std::string& bytes) {
  ArtifactLoadStats stats;
  if (bytes.size() < kMagicSize ||
      bytes.compare(0, kMagicSize, kArtifactMagic, kMagicSize) != 0) {
    return stats;
  }
  ByteReader r(bytes);
  r.Skip(kMagicSize);
  StringTable strings;
  if (!strings.Decode(&r)) {
    return stats;
  }
  uint64_t count = r.GetVarint();
  if (!r.ok() || count > kMaxReasonableCount) {
    return stats;
  }
  stats.ok = true;
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t body_len = r.GetVarint();
    if (!r.ok() || body_len > r.remaining()) {
      // Truncated container: everything not yet decoded is lost.
      stats.skipped += count - i;
      break;
    }
    ByteReader body(bytes.data() + r.pos(), body_len);
    r.Skip(body_len);
    ArtifactSnapshot snapshot;
    if (!DecodeSnapshot(&body, strings.strings(), &snapshot)) {
      // The length prefix bounds the damage: resynchronize at the next body.
      ++stats.skipped;
      continue;
    }
    AddLocked(std::move(snapshot));
    ++stats.loaded;
  }
  return stats;
}

bool ArtifactStore::SaveToFile(const std::string& path) const {
  return WriteFileBytes(path, Serialize());
}

ArtifactLoadStats ArtifactStore::LoadFromFile(const std::string& path) {
  std::string bytes;
  if (!ReadFileBytes(path, &bytes)) {
    return ArtifactLoadStats();
  }
  return Deserialize(bytes);
}

}  // namespace ansor

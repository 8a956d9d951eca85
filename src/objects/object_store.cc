#include "objects/object_store.h"

#include <algorithm>

#include "util/coding.h"

namespace uindex {

void ObjectStore::AddMember(Extent* extent, Interval member) {
  // Oids grow, so this is an append except for out-of-order restores.
  std::vector<Interval>& members = extent->members;
  members.insert(std::upper_bound(members.begin(), members.end(), member.oid,
                                  [](Oid key, const Interval& iv) {
                                    return key < iv.oid;
                                  }),
                 member);
}

const ObjectStore::Rev* ObjectStore::ResolveLocked(
    const std::vector<Rev>& chain, uint64_t at) const {
  const Rev* best = nullptr;
  for (const Rev& rev : chain) {  // Ascending epochs; last of equals wins.
    if (rev.epoch > at) break;
    best = &rev;
  }
  if (best == nullptr || best->obj == nullptr) return nullptr;
  return best;
}

Result<Oid> ObjectStore::Create(ClassId cls) {
  if (!schema_->IsValidClass(cls)) {
    return Status::InvalidArgument("bad class id");
  }
  const uint64_t w = MutationEpoch();
  const Oid oid = next_oid_.fetch_add(1, std::memory_order_relaxed);
  auto obj = std::make_shared<Object>();
  obj->oid = oid;
  obj->cls = cls;
  {
    Shard& shard = ShardFor(oid);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.Slot(oid).push_back(Rev{w, std::move(obj)});
  }
  {
    std::lock_guard<std::mutex> lock(extents_mu_);
    if (extents_.size() <= cls) extents_.resize(schema_->class_count());
    AddMember(&extents_[cls], Interval{oid, w, kLatestEpoch});
  }
  live_count_.fetch_add(1, std::memory_order_relaxed);
  return oid;
}

Status ObjectStore::SetAttr(Oid oid, const std::string& name, Value value) {
  const uint64_t w = MutationEpoch();
  std::shared_ptr<const Object> current;
  {
    Shard& shard = ShardFor(oid);
    std::lock_guard<std::mutex> lock(shard.mu);
    const std::vector<Rev>* chain = shard.Find(oid);
    if (chain == nullptr) return Status::NotFound("oid");
    const Rev* rev = ResolveLocked(*chain, w);
    if (rev == nullptr) return Status::NotFound("oid");
    current = rev->obj;
  }
  // Copy-on-write: the published revision stays untouched for pinned
  // readers; the new revision is appended (never swapped in place, so
  // `const Object*` results handed out earlier this mutation stay valid).
  auto next = std::make_shared<Object>(*current);
  Value& slot = next->attrs[name];
  RemoveReverse(oid, name, slot, w);
  AddReverse(oid, name, value, w);
  slot = std::move(value);
  {
    Shard& shard = ShardFor(oid);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.Slot(oid).push_back(Rev{w, std::move(next)});
  }
  RetireChain(oid, w);
  return Status::OK();
}

Result<const Object*> ObjectStore::Get(Oid oid) const {
  const uint64_t at = EpochContext::Effective();
  const Shard& shard = ShardFor(oid);
  std::lock_guard<std::mutex> lock(shard.mu);
  const std::vector<Rev>* chain = shard.Find(oid);
  if (chain == nullptr) return Status::NotFound("oid");
  const Rev* rev = ResolveLocked(*chain, at);
  if (rev == nullptr) return Status::NotFound("oid");
  // The raw pointer stays valid until reclamation passes `at` — excluded
  // while the resolving reader is pinned (see class comment).
  return rev->obj.get();
}

bool ObjectStore::Exists(Oid oid) const {
  const uint64_t at = EpochContext::Effective();
  const Shard& shard = ShardFor(oid);
  std::lock_guard<std::mutex> lock(shard.mu);
  const std::vector<Rev>* chain = shard.Find(oid);
  return chain != nullptr && ResolveLocked(*chain, at) != nullptr;
}

Status ObjectStore::Delete(Oid oid) {
  const uint64_t w = MutationEpoch();
  std::shared_ptr<const Object> current;
  {
    Shard& shard = ShardFor(oid);
    std::lock_guard<std::mutex> lock(shard.mu);
    const std::vector<Rev>* chain = shard.Find(oid);
    if (chain == nullptr) return Status::NotFound("oid");
    const Rev* rev = ResolveLocked(*chain, w);
    if (rev == nullptr) return Status::NotFound("oid");
    current = rev->obj;
  }
  for (const auto& [name, value] : current->attrs) {
    RemoveReverse(oid, name, value, w);
  }
  bool interval_died = false;
  {
    std::lock_guard<std::mutex> lock(extents_mu_);
    std::vector<Interval>& members = extents_[current->cls].members;
    auto it = std::lower_bound(
        members.begin(), members.end(), oid,
        [](const Interval& iv, Oid key) { return iv.oid < key; });
    if (it != members.end() && it->oid == oid && it->died == kLatestEpoch) {
      it->died = w;
      interval_died = true;
    }
  }
  if (interval_died) RetireExtentInterval(current->cls, w);
  {
    Shard& shard = ShardFor(oid);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.Slot(oid).push_back(Rev{w, nullptr});  // Tombstone.
  }
  RetireChain(oid, w);
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

std::vector<Oid> ObjectStore::ExtentOf(ClassId cls) const {
  const uint64_t at = EpochContext::Effective();
  std::vector<Oid> out;
  std::lock_guard<std::mutex> lock(extents_mu_);
  if (cls >= extents_.size()) return out;
  for (const Interval& iv : extents_[cls].members) {
    if (Visible(iv.born, iv.died, at)) out.push_back(iv.oid);
  }
  return out;
}

std::vector<Oid> ObjectStore::DeepExtentOf(ClassId cls) const {
  std::vector<Oid> out;
  for (const ClassId c : schema_->SubtreeOf(cls)) {
    const std::vector<Oid> extent = ExtentOf(c);
    out.insert(out.end(), extent.begin(), extent.end());
  }
  return out;
}

Result<Oid> ObjectStore::Deref(Oid oid, const std::string& attr) const {
  Result<const Object*> obj = Get(oid);
  if (!obj.ok()) return obj.status();
  const Value* value = obj.value()->FindAttr(attr);
  if (value == nullptr || value->is_null()) {
    return Status::NotFound("attribute " + attr + " unset");
  }
  if (value->kind() != Value::Kind::kRef) {
    return Status::InvalidArgument("attribute " + attr +
                                   " is not a single-valued reference");
  }
  return value->AsRef();
}

std::vector<Oid> ObjectStore::ReferrersOf(Oid target,
                                          const std::string& attr) const {
  const uint64_t at = EpochContext::Effective();
  std::vector<Oid> out;
  std::lock_guard<std::mutex> lock(referrers_mu_);
  auto it = referrers_.find({target, attr});
  if (it == referrers_.end()) return out;
  for (const Interval& iv : it->second) {
    if (Visible(iv.born, iv.died, at)) out.push_back(iv.oid);
  }
  return out;
}

std::string ObjectStore::Serialize() const {
  // Layout: next_oid u32 ∥ count u64 ∥ per object (ascending oid):
  //   oid u32 ∥ class u32 ∥ attr_count u32 ∥
  //   per attr: name_len u32 ∥ name ∥ value.
  const uint64_t at = EpochContext::Effective();
  std::vector<std::shared_ptr<const Object>> live;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const std::vector<Rev>& chain : shard.chains) {
      const Rev* rev = ResolveLocked(chain, at);
      if (rev != nullptr) live.push_back(rev->obj);
    }
  }
  std::sort(live.begin(), live.end(),
            [](const std::shared_ptr<const Object>& a,
               const std::shared_ptr<const Object>& b) {
              return a->oid < b->oid;
            });
  std::string out;
  PutFixed32(&out, next_oid_.load(std::memory_order_relaxed));
  PutFixed64(&out, live.size());
  for (const std::shared_ptr<const Object>& obj : live) {
    PutFixed32(&out, obj->oid);
    PutFixed32(&out, obj->cls);
    PutFixed32(&out, static_cast<uint32_t>(obj->attrs.size()));
    // Deterministic attribute order.
    std::vector<const std::string*> names;
    for (const auto& [name, value] : obj->attrs) {
      (void)value;
      names.push_back(&name);
    }
    std::sort(names.begin(), names.end(),
              [](const std::string* a, const std::string* b) {
                return *a < *b;
              });
    for (const std::string* name : names) {
      PutFixed32(&out, static_cast<uint32_t>(name->size()));
      out.append(*name);
      AppendValueTo(obj->attrs.at(*name), &out);
    }
  }
  return out;
}

Status ObjectStore::Deserialize(const Slice& blob) {
  if (live_count_.load(std::memory_order_relaxed) != 0) {
    return Status::InvalidArgument("store not empty");
  }
  size_t pos = 0;
  if (blob.size() < 12) return Status::Corruption("truncated store blob");
  const Oid next_oid = DecodeFixed32(blob.data());
  const uint64_t count = DecodeFixed64(blob.data() + 4);
  pos = 12;
  for (uint64_t i = 0; i < count; ++i) {
    if (pos + 12 > blob.size()) {
      return Status::Corruption("truncated object header");
    }
    const Oid oid = DecodeFixed32(blob.data() + pos);
    const ClassId cls = DecodeFixed32(blob.data() + pos + 4);
    const uint32_t attr_count = DecodeFixed32(blob.data() + pos + 8);
    pos += 12;
    // Range-check before the oid sizes a shard's chain table.
    if (oid == kInvalidOid || oid >= next_oid) {
      return Status::Corruption("oid out of range in store blob");
    }
    if (ShardFor(oid).Find(oid) != nullptr) {
      return Status::Corruption("duplicate oid in store blob");
    }
    if (!schema_->IsValidClass(cls)) {
      return Status::Corruption("unknown class in store blob");
    }
    auto obj = std::make_shared<Object>();
    obj->oid = oid;
    obj->cls = cls;
    for (uint32_t a = 0; a < attr_count; ++a) {
      if (pos + 4 > blob.size()) {
        return Status::Corruption("truncated attr name len");
      }
      const uint32_t name_len = DecodeFixed32(blob.data() + pos);
      pos += 4;
      if (pos + name_len > blob.size()) {
        return Status::Corruption("truncated attr name");
      }
      std::string name(blob.data() + pos, name_len);
      pos += name_len;
      Result<Value> value = ReadValueFrom(blob, &pos);
      if (!value.ok()) return value.status();
      AddReverse(oid, name, value.value(), 0);
      obj->attrs[std::move(name)] = std::move(value).value();
    }
    {
      std::lock_guard<std::mutex> lock(extents_mu_);
      if (extents_.size() < schema_->class_count()) {
        extents_.resize(schema_->class_count());
      }
      AddMember(&extents_[cls], Interval{oid, 0, kLatestEpoch});
    }
    {
      Shard& shard = ShardFor(oid);
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.Slot(oid).push_back(Rev{0, std::move(obj)});
    }
    live_count_.fetch_add(1, std::memory_order_relaxed);
  }
  next_oid_.store(next_oid, std::memory_order_relaxed);
  return Status::OK();
}

size_t ObjectStore::ReclaimBelow(uint64_t horizon) {
  std::map<uint64_t, RetireList> due;
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    const auto end = retired_.upper_bound(horizon);
    while (retired_.begin() != end) {
      due.insert(retired_.extract(retired_.begin()));
    }
  }
  size_t visits = 0;
  std::vector<ClassId> touched;
  for (const auto& [epoch, list] : due) {
    (void)epoch;
    for (const Oid oid : list.chains) {
      PruneChain(oid, horizon);
      ++visits;
    }
    for (const auto& key : list.referrers) {
      PruneReferrers(key, horizon);
      ++visits;
    }
    if (list.extents.empty()) continue;
    std::lock_guard<std::mutex> lock(extents_mu_);
    for (const ClassId cls : list.extents) {
      ++extents_[cls].reclaimed;
      touched.push_back(cls);
      ++visits;
    }
  }
  // Compact only after every due entry is counted: then `reclaimed` is
  // exactly the number of members that died at or below the horizon.
  std::lock_guard<std::mutex> lock(extents_mu_);
  for (const ClassId cls : touched) {
    Extent& extent = extents_[cls];
    if (extent.reclaimed == 0) continue;
    if (2 * extent.reclaimed < extent.members.size()) continue;
    std::erase_if(extent.members, [horizon](const Interval& iv) {
      return iv.died <= horizon;
    });
    extent.reclaimed = 0;
  }
  return visits;
}

size_t ObjectStore::retired_count() const {
  std::lock_guard<std::mutex> lock(retired_mu_);
  size_t n = 0;
  for (const auto& [epoch, list] : retired_) {
    (void)epoch;
    n += list.chains.size() + list.extents.size() + list.referrers.size();
  }
  return n;
}

void ObjectStore::PruneChain(Oid oid, uint64_t horizon) {
  Shard& shard = ShardFor(oid);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::vector<Rev>* found = shard.Find(oid);
  if (found == nullptr) return;  // An earlier entry erased it.
  std::vector<Rev>& chain = *found;
  // Keep the newest revision at or below the horizon (it IS the state
  // every retained reader resolves) plus everything newer.
  size_t keep_from = 0;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (chain[i].epoch <= horizon) keep_from = i;
  }
  if (keep_from > 0) chain.erase(chain.begin(), chain.begin() + keep_from);
  // A tombstone is always last (oids are never reused); once it is the
  // horizon state, nobody can resolve the object again.
  if (chain.size() == 1 && chain[0].obj == nullptr &&
      chain[0].epoch <= horizon) {
    std::vector<Rev>().swap(chain);
  }
}

void ObjectStore::PruneReferrers(const std::pair<Oid, std::string>& key,
                                 uint64_t horizon) {
  std::lock_guard<std::mutex> lock(referrers_mu_);
  auto it = referrers_.find(key);
  if (it == referrers_.end()) return;  // An earlier entry emptied it.
  std::erase_if(it->second, [horizon](const Interval& iv) {
    return iv.died <= horizon;
  });
  if (it->second.empty()) referrers_.erase(it);
}

void ObjectStore::RetireChain(Oid oid, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(retired_mu_);
  std::vector<Oid>& chains = retired_[epoch].chains;
  // One visit prunes every same-epoch revision of the chain.
  if (chains.empty() || chains.back() != oid) chains.push_back(oid);
}

void ObjectStore::RetireExtentInterval(ClassId cls, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(retired_mu_);
  retired_[epoch].extents.push_back(cls);
}

void ObjectStore::RetireReferrers(Oid target, const std::string& attr,
                                  uint64_t epoch) {
  std::lock_guard<std::mutex> lock(retired_mu_);
  auto& referrers = retired_[epoch].referrers;
  if (referrers.empty() || referrers.back().first != target ||
      referrers.back().second != attr) {
    referrers.emplace_back(target, attr);
  }
}

size_t ObjectStore::versioned_garbage_count() const {
  size_t garbage = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const std::vector<Rev>& chain : shard.chains) {
      if (!chain.empty()) garbage += chain.size() - 1;
      if (!chain.empty() && chain.back().obj == nullptr) ++garbage;
    }
  }
  {
    std::lock_guard<std::mutex> lock(extents_mu_);
    for (const Extent& extent : extents_) {
      for (const Interval& iv : extent.members) {
        if (iv.died != kLatestEpoch) ++garbage;
      }
      garbage -= extent.reclaimed;  // Reclaimed, awaiting compaction.
    }
  }
  return garbage;
}

void ObjectStore::AddReverse(Oid source, const std::string& attr,
                             const Value& value, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(referrers_mu_);
  if (value.kind() == Value::Kind::kRef) {
    referrers_[{value.AsRef(), attr}].push_back(
        Interval{source, epoch, kLatestEpoch});
  } else if (value.kind() == Value::Kind::kRefSet) {
    for (Oid target : value.AsRefSet()) {
      referrers_[{target, attr}].push_back(
          Interval{source, epoch, kLatestEpoch});
    }
  }
}

void ObjectStore::RemoveReverse(Oid source, const std::string& attr,
                                const Value& value, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(referrers_mu_);
  auto drop = [this, source, &attr, epoch](Oid target) {
    auto it = referrers_.find({target, attr});
    if (it == referrers_.end()) return;
    bool died = false;
    for (Interval& iv : it->second) {
      if (iv.oid == source && iv.died == kLatestEpoch) {
        iv.died = epoch;
        died = true;
      }
    }
    if (died) RetireReferrers(target, attr, epoch);
  };
  if (value.kind() == Value::Kind::kRef) {
    drop(value.AsRef());
  } else if (value.kind() == Value::Kind::kRefSet) {
    for (Oid target : value.AsRefSet()) drop(target);
  }
}

}  // namespace uindex

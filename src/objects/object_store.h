#ifndef UINDEX_OBJECTS_OBJECT_STORE_H_
#define UINDEX_OBJECTS_OBJECT_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "objects/object.h"
#include "schema/schema.h"
#include "storage/mvcc.h"
#include "util/slice.h"
#include "util/status.h"

namespace uindex {

/// In-memory extent manager: owns all objects, tracks per-class extents and
/// reverse references (who points at whom through which attribute).
///
/// The reverse-reference map is what makes path-index maintenance possible:
/// when an object in the middle of a path changes (the paper's "a President
/// switches companies", §3.5), the affected head-of-path objects are found
/// by walking referrers.
///
/// MVCC (storage/mvcc.h): every piece of state is epoch-stamped so readers
/// pinned at epoch E see exactly the store as of E while the single writer
/// mutates at E+1. Objects live in per-oid *revision chains* (immutable
/// `Object` snapshots; a null object is a deletion tombstone); extent and
/// reverse-reference membership carries `[born, died)` epoch intervals.
/// Mutations stamp the thread-local `EpochContext` epoch (`kLatestEpoch`
/// i.e. standalone use stamps 0, which every reader sees — the exact
/// pre-MVCC behaviour); reads resolve at `EpochContext::Effective()`.
///
/// Reclamation is incremental (epoch-based, with per-epoch retire lists):
/// each mutation records what it superseded under its own epoch — the oid
/// whose chain grew, the class whose extent gained a dead interval, the
/// `(target, attribute)` referrer list that did — and `ReclaimBelow`
/// visits only the entries at or below the horizon. A commit therefore
/// reclaims what earlier commits retired, never the whole store.
///
/// Thread-safety: concurrent readers are safe against the (externally
/// serialized, single) writer — chains are sharded by oid under per-shard
/// mutexes, extents and referrers under their own. Raw `const Object*`
/// results stay valid until a reclaim passes the epoch they were resolved
/// at (the database's pin horizon guarantees that never happens while the
/// resolving reader is pinned).
class ObjectStore {
 public:
  explicit ObjectStore(const Schema* schema) : schema_(schema) {}

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  const Schema& schema() const { return *schema_; }

  /// Creates an object of `cls` and returns its oid (oids start at 1 and
  /// are never reused).
  Result<Oid> Create(ClassId cls);

  /// Sets (or overwrites) an attribute. Reference values update the
  /// reverse-reference map.
  Status SetAttr(Oid oid, const std::string& name, Value value);

  Result<const Object*> Get(Oid oid) const;
  bool Exists(Oid oid) const;

  /// Removes the object and its outgoing reverse-reference entries. The
  /// caller is responsible for index maintenance *before* deleting.
  Status Delete(Oid oid);

  /// Direct instances of `cls` (not of its subclasses), in creation order,
  /// as of the calling thread's read epoch. By value: the membership is a
  /// per-epoch filter, not a stable container.
  std::vector<Oid> ExtentOf(ClassId cls) const;

  /// Instances of `cls` and all of its subclasses, in hierarchy preorder
  /// then creation order.
  std::vector<Oid> DeepExtentOf(ClassId cls) const;

  /// Follows a single-valued reference attribute; NotFound if unset.
  Result<Oid> Deref(Oid oid, const std::string& attr) const;

  /// Objects whose `attr` references `target` (any multiplicity).
  std::vector<Oid> ReferrersOf(Oid target, const std::string& attr) const;

  /// Live objects at the *newest* state (not epoch-filtered).
  uint64_t size() const {
    return live_count_.load(std::memory_order_relaxed);
  }

  /// Serializes every live object (oids, classes, attributes) to a byte
  /// blob; `Deserialize` restores it into an empty store over an
  /// equivalent schema. Reverse references and extents are rebuilt.
  /// Serialization resolves at the calling thread's read epoch (callers
  /// hold exclusive access and serialize the newest state).
  std::string Serialize() const;
  Status Deserialize(const Slice& blob);

  /// Epoch-based reclamation: pops every retire list stamped at or below
  /// `horizon` and prunes only the chains, extents and referrer lists
  /// those lists name. Per chain the newest revision at or below the
  /// horizon survives (it is the state every retained reader resolves),
  /// and a tombstoned oid is erased once its tombstone is that state;
  /// membership intervals that died at or below the horizon go. The cost
  /// is proportional to what was retired, not to the store's size; pass
  /// `kLatestEpoch - 1` to drain every list. Returns the number of
  /// chains, extent intervals and referrer lists visited. Caller holds the
  /// writer serialization.
  size_t ReclaimBelow(uint64_t horizon);

  /// Retire-list entries not yet reclaimed (tests / introspection): the
  /// visit count the reclaim that passes their epochs will report.
  size_t retired_count() const;

  /// Retained superseded revisions (tests / introspection): chain
  /// revisions beyond the newest of each live oid, plus dead membership
  /// intervals not yet reclaimed. A full walk — never on the commit path.
  size_t versioned_garbage_count() const;

 private:
  // One revision of an object: the immutable state published at `epoch`
  // (null = deletion tombstone). Chains are ascending by epoch; several
  // same-epoch revisions may exist (each SetAttr appends — older ones are
  // kept so `const Object*` handed out earlier in the same mutation stay
  // valid), and resolution takes the last one at or below the read epoch.
  struct Rev {
    uint64_t epoch;
    std::shared_ptr<const Object> obj;
  };
  // Epoch-interval membership of an extent or referrer list.
  struct Interval {
    Oid oid;  // Extent member, or referring source.
    uint64_t born;
    uint64_t died;  // kLatestEpoch while live.
  };

  // A class's extent: intervals in ascending oid order, which is creation
  // order (oids are allocated increasingly and an object never changes
  // class), so a member is found by binary search. Reclaimed intervals
  // stay in place — invisible to every reader, since they died at or
  // below every pin — until they are half the vector; compacting then
  // keeps the removal cost amortised to what was retired.
  struct Extent {
    std::vector<Interval> members;
    size_t reclaimed = 0;  // Dead members already past a reclaim horizon.
  };

  // What the mutations of one epoch superseded.
  struct RetireList {
    std::vector<Oid> chains;       // Oids whose chain grew.
    std::vector<ClassId> extents;  // One entry per extent interval died.
    std::vector<std::pair<Oid, std::string>> referrers;  // (target, attr).
  };

  // Chains are sharded by `oid % kShards` and, within a shard, held in a
  // table indexed by `oid / kShards`: oids are dense and never reused, so
  // a lookup is one index rather than a hash-node walk whose cost grows
  // with the store. An erased chain leaves an empty slot.
  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::vector<std::vector<Rev>> chains;

    // The oid's chain; null when it has none (never created, or erased).
    std::vector<Rev>* Find(Oid oid) {
      const size_t i = oid / kShards;
      return i < chains.size() && !chains[i].empty() ? &chains[i] : nullptr;
    }
    const std::vector<Rev>* Find(Oid oid) const {
      return const_cast<Shard*>(this)->Find(oid);
    }
    // The oid's chain, created empty when absent.
    std::vector<Rev>& Slot(Oid oid) {
      const size_t i = oid / kShards;
      if (i >= chains.size()) chains.resize(i + 1);
      return chains[i];
    }
  };
  Shard& ShardFor(Oid oid) { return shards_[oid % kShards]; }
  const Shard& ShardFor(Oid oid) const { return shards_[oid % kShards]; }

  // The epoch a mutation stamps: the thread-local epoch, or 0 for
  // standalone (un-scoped) use.
  static uint64_t MutationEpoch() {
    const uint64_t e = EpochContext::current();
    return e == kLatestEpoch ? 0 : e;
  }
  static bool Visible(uint64_t born, uint64_t died, uint64_t at) {
    return born <= at && at < died;
  }

  // Newest revision at or below `at`; null when none or a tombstone.
  const Rev* ResolveLocked(const std::vector<Rev>& chain, uint64_t at) const;

  void AddReverse(Oid source, const std::string& attr, const Value& value,
                  uint64_t epoch);
  void RemoveReverse(Oid source, const std::string& attr, const Value& value,
                     uint64_t epoch);

  // Inserts at the member's oid position (extents_mu_ held).
  static void AddMember(Extent* extent, Interval member);

  // Retire-list appends, stamped with the mutation's epoch.
  void RetireChain(Oid oid, uint64_t epoch);
  void RetireExtentInterval(ClassId cls, uint64_t epoch);
  void RetireReferrers(Oid target, const std::string& attr, uint64_t epoch);

  // Reclaim steps for one retired item (see ReclaimBelow).
  void PruneChain(Oid oid, uint64_t horizon);
  void PruneReferrers(const std::pair<Oid, std::string>& key,
                      uint64_t horizon);

  const Schema* schema_;
  Shard shards_[kShards];
  mutable std::mutex extents_mu_;
  std::vector<Extent> extents_;  // indexed by ClassId
  mutable std::mutex referrers_mu_;
  // (target oid, attribute) -> sources referencing it, with lifetimes.
  std::map<std::pair<Oid, std::string>, std::vector<Interval>> referrers_;
  mutable std::mutex retired_mu_;
  std::map<uint64_t, RetireList> retired_;  // by mutation epoch
  std::atomic<Oid> next_oid_{1};
  std::atomic<uint64_t> live_count_{0};
};

}  // namespace uindex

#endif  // UINDEX_OBJECTS_OBJECT_STORE_H_

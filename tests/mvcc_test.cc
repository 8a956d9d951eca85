#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "db/database.h"
#include "db/session.h"
#include "storage/buffer_manager.h"
#include "storage/mvcc.h"
#include "storage/pager.h"

namespace uindex {
namespace {

// ------------------------------------------------------------- registry

TEST(EpochPinRegistryTest, PinPublishAndHorizon) {
  EpochPinRegistry pins;
  EXPECT_EQ(pins.published(), 0u);
  EXPECT_EQ(pins.ReclaimHorizon(), 0u);
  EXPECT_EQ(pins.active_pins(), 0u);

  auto s1 = std::make_shared<int>(1);
  pins.Publish(1, s1);
  EXPECT_EQ(pins.published(), 1u);
  // No pins: the horizon is the published epoch itself.
  EXPECT_EQ(pins.ReclaimHorizon(), 1u);

  EpochPinRegistry::Pin old_pin = pins.PinCurrent();
  EXPECT_EQ(old_pin.epoch, 1u);
  EXPECT_EQ(std::static_pointer_cast<const int>(old_pin.state), s1);
  EXPECT_EQ(pins.active_pins(), 1u);

  pins.Publish(2, std::make_shared<int>(2));
  pins.Publish(3, std::make_shared<int>(3));
  // The oldest pinned epoch bounds reclamation, not the published one.
  EXPECT_EQ(pins.ReclaimHorizon(), 1u);

  EpochPinRegistry::Pin new_pin = pins.PinCurrent();
  EXPECT_EQ(new_pin.epoch, 3u);
  EXPECT_EQ(pins.active_pins(), 2u);
  EXPECT_EQ(pins.ReclaimHorizon(), 1u);

  pins.Unpin(old_pin);
  EXPECT_EQ(pins.ReclaimHorizon(), 3u);
  pins.Unpin(new_pin);
  EXPECT_EQ(pins.active_pins(), 0u);
  EXPECT_EQ(pins.ReclaimHorizon(), 3u);
}

TEST(EpochPinRegistryTest, StateLifetimeFollowsPins) {
  EpochPinRegistry pins;
  std::weak_ptr<const void> watch;
  {
    auto state = std::make_shared<int>(7);
    pins.Publish(1, state);
    watch = pins.state();
  }
  EXPECT_FALSE(watch.expired());
  EpochPinRegistry::Pin pin = pins.PinCurrent();
  // Superseding publish: the pinned reader still owns the old state.
  pins.Publish(2, std::make_shared<int>(8));
  EXPECT_FALSE(watch.expired());
  pins.Unpin(pin);
  pin.state.reset();  // ReadPin's destructor drops the whole Pin.
  EXPECT_TRUE(watch.expired());
}

// -------------------------------------------------------- version table

void FillPage(Page* page, char fill) {
  std::memset(page->data(), fill, page->size());
}

TEST(PageVersionTableTest, ResolvePicksNewestAtOrBelowEpoch) {
  PageVersionTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Resolve(1, kLatestEpoch), nullptr);

  bool created = false;
  Page base(64);
  FillPage(&base, 'a');
  std::shared_ptr<Page> rev2 = table.GetOrCreateWritable(1, 2, base, &created);
  EXPECT_TRUE(created);
  std::memset(rev2->data(), 'b', rev2->size());
  // Second touch in the same epoch reuses the revision — one CoW per
  // (page, epoch).
  EXPECT_EQ(table.GetOrCreateWritable(1, 2, base, &created), rev2);
  EXPECT_FALSE(created);

  std::shared_ptr<Page> rev4 =
      table.GetOrCreateWritable(1, 4, *rev2, &created);
  EXPECT_TRUE(created);
  std::memset(rev4->data(), 'c', rev4->size());
  EXPECT_EQ(table.revision_count(), 2u);

  // Epoch below every revision: the base store serves the reader.
  EXPECT_EQ(table.Resolve(1, 1), nullptr);
  EXPECT_EQ(table.Resolve(1, 2), rev2);
  EXPECT_EQ(table.Resolve(1, 3), rev2);
  EXPECT_EQ(table.Resolve(1, 4), rev4);
  EXPECT_EQ(table.Resolve(1, kLatestEpoch), rev4);
  EXPECT_EQ(table.Newest(1), rev4);
}

TEST(PageVersionTableTest, ReclaimFoldsThroughHorizonOnly) {
  PageVersionTable table;
  bool created = false;
  Page base(32);
  FillPage(&base, 'a');
  std::shared_ptr<Page> rev2 = table.GetOrCreateWritable(9, 2, base, &created);
  std::memset(rev2->data(), 'b', rev2->size());
  std::shared_ptr<Page> rev5 =
      table.GetOrCreateWritable(9, 5, *rev2, &created);
  std::memset(rev5->data(), 'c', rev5->size());

  std::vector<std::pair<PageId, char>> applied;
  auto apply = [&](PageId id, const Page& bytes) {
    applied.emplace_back(id, bytes.data()[0]);
    return true;
  };
  auto free_page = [](PageId) { FAIL() << "no free was deferred"; };

  // Horizon 3 covers only rev2: its bytes land in base, rev5 stays.
  table.ReclaimThrough(3, apply, free_page);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0], std::make_pair(PageId{9}, 'b'));
  EXPECT_EQ(table.revision_count(), 1u);
  EXPECT_EQ(table.Resolve(9, 3), nullptr);  // Base (now 'b') serves epoch 3.
  EXPECT_EQ(table.Resolve(9, 5), rev5);

  // A vetoed apply keeps the revision chained for the next pass.
  applied.clear();
  table.ReclaimThrough(5, [](PageId, const Page&) { return false; },
                       free_page);
  EXPECT_EQ(table.revision_count(), 1u);
  EXPECT_EQ(table.Resolve(9, 5), rev5);

  table.ReclaimThrough(5, apply, free_page);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0], std::make_pair(PageId{9}, 'c'));
  EXPECT_TRUE(table.empty());
}

TEST(PageVersionTableTest, DeferredFreeWaitsForHorizon) {
  PageVersionTable table;
  bool created = false;
  Page base(32);
  FillPage(&base, 'x');
  table.GetOrCreateWritable(4, 6, base, &created);
  table.DeferFree(4, 6);
  EXPECT_EQ(table.pending_free_count(), 1u);

  std::vector<PageId> freed;
  auto apply = [](PageId, const Page&) { return true; };
  auto free_page = [&](PageId id) { freed.push_back(id); };

  // Horizon below the death epoch: a pinned reader may still walk page 4.
  table.ReclaimThrough(5, apply, free_page);
  EXPECT_TRUE(freed.empty());
  EXPECT_EQ(table.pending_free_count(), 1u);

  // Horizon reaches the death epoch: the chain is dropped (not folded —
  // the page is dead) and the physical free runs.
  table.ReclaimThrough(6, apply, free_page);
  EXPECT_EQ(freed, std::vector<PageId>{4});
  EXPECT_EQ(table.pending_free_count(), 0u);
  EXPECT_TRUE(table.empty());
}

TEST(PageVersionTableTest, BornBookkeeping) {
  PageVersionTable table;
  table.MarkBorn(11);
  EXPECT_TRUE(table.IsBorn(11));
  EXPECT_TRUE(table.EraseBorn(11));
  EXPECT_FALSE(table.EraseBorn(11));
  table.MarkBorn(12);
  table.ClearBorn();
  EXPECT_FALSE(table.IsBorn(12));
}

// ------------------------------------------------------- buffer manager

class BufferManagerMvccTest : public ::testing::Test {
 protected:
  BufferManagerMvccTest() : store_(256), bm_(&store_) {}

  char FirstByteAt(PageId id, uint64_t epoch) {
    ScopedEpoch scope(epoch);
    PageRef ref = bm_.Fetch(id);
    EXPECT_NE(ref, nullptr);
    return ref->data()[0];
  }

  Pager store_;
  BufferManager bm_;
};

TEST_F(BufferManagerMvccTest, SnapshotReadersNeverSeeTheOpenEpoch) {
  // Base content written outside any epoch (legacy in-place path).
  const PageId id = bm_.Allocate();
  {
    PageRef ref = bm_.FetchForWrite(id);
    std::memset(ref->data(), 'a', ref->size());
  }

  // Writer opens epoch 1 and CoWs the page.
  bm_.BeginWriteEpoch(1);
  {
    ScopedEpoch scope(1);
    PageRef ref = bm_.FetchForWrite(id);
    ASSERT_TRUE(ref.versioned());
    std::memset(ref->data(), 'b', ref->size());
  }
  EXPECT_EQ(bm_.stats().pages_cow.load(), 1u);
  EXPECT_EQ(bm_.versioned_revision_count(), 1u);

  // A reader pinned at epoch 0 — before the publish — sees the old bytes
  // even while the writer's epoch is open and after it closes.
  EXPECT_EQ(FirstByteAt(id, 0), 'a');
  bm_.EndWriteEpoch();
  EXPECT_EQ(FirstByteAt(id, 0), 'a');
  EXPECT_EQ(FirstByteAt(id, 1), 'b');
  EXPECT_EQ(FirstByteAt(id, kLatestEpoch), 'b');
  // The base store still holds the epoch-0 bytes.
  EXPECT_EQ(store_.GetPage(id)->data()[0], 'a');

  // Reclamation with the reader drained folds the revision into base.
  bm_.ReclaimVersionsThrough(1);
  EXPECT_EQ(bm_.versioned_revision_count(), 0u);
  EXPECT_EQ(store_.GetPage(id)->data()[0], 'b');
  EXPECT_EQ(FirstByteAt(id, kLatestEpoch), 'b');
}

TEST_F(BufferManagerMvccTest, SecondEpochCopiesFromNewestRevision) {
  const PageId id = bm_.Allocate();
  {
    PageRef ref = bm_.FetchForWrite(id);
    std::memset(ref->data(), 'a', ref->size());
  }
  for (uint64_t w = 1; w <= 3; ++w) {
    bm_.BeginWriteEpoch(w);
    {
      ScopedEpoch scope(w);
      PageRef ref = bm_.FetchForWrite(id);
      // CoW must copy the previous epoch's bytes, not the stale base.
      EXPECT_EQ(ref->data()[0], static_cast<char>('a' + w - 1));
      std::memset(ref->data(), static_cast<char>('a' + w), ref->size());
    }
    bm_.EndWriteEpoch();
  }
  EXPECT_EQ(bm_.stats().pages_cow.load(), 3u);
  for (uint64_t e = 0; e <= 3; ++e) {
    EXPECT_EQ(FirstByteAt(id, e), static_cast<char>('a' + e));
  }
}

// B-tree leaf edits made in place under an open write epoch go into the
// epoch's copy-on-write revision: one page write per edit, one copy of the
// leaf per epoch, and a reader pinned before the epoch keeps exactly its
// snapshot rows — while the epoch is open and after it publishes.
TEST_F(BufferManagerMvccTest, InPlaceLeafEditsKeepPinnedSnapshot) {
  BTreeOptions opts;
  BTree tree(&bm_, opts);
  for (const char* k : {"k0", "k2", "k4", "k6"}) {
    ASSERT_TRUE(tree.Insert(Slice(k), Slice("base")).ok());
  }
  const PageId root = tree.root();
  const uint64_t base_size = tree.size();
  auto rows_at = [&](uint64_t epoch, uint64_t size) {
    ScopedEpoch scope(epoch);
    BTree view(&bm_, root, size, opts, /*borrowed_cache=*/nullptr);
    std::vector<std::string> rows;
    auto it = view.NewIterator();
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      rows.push_back(it.key().ToString() + "=" + it.value().ToString());
    }
    EXPECT_TRUE(it.status().ok());
    return rows;
  };
  const std::vector<std::string> snapshot = rows_at(0, base_size);
  ASSERT_EQ(snapshot, (std::vector<std::string>{"k0=base", "k2=base",
                                                "k4=base", "k6=base"}));

  const IoStats before = bm_.stats();
  bm_.BeginWriteEpoch(1);
  {
    ScopedEpoch scope(1);
    for (const char* k : {"k1", "k3", "k5", "k7"}) {
      ASSERT_TRUE(tree.Insert(Slice(k), Slice("new")).ok());
    }
    ASSERT_TRUE(tree.Put(Slice("k0"), Slice("upd")).ok());
    ASSERT_TRUE(tree.Delete(Slice("k6")).ok());
  }
  const IoStats delta = bm_.stats() - before;
  EXPECT_EQ(delta.pages_written.load(), 6u);
  EXPECT_EQ(delta.pages_cow.load(), 1u);
  EXPECT_EQ(delta.pages_allocated.load(), 0u);
  ASSERT_EQ(tree.root(), root);  // No split: every edit stayed in the leaf.

  EXPECT_EQ(rows_at(0, base_size), snapshot);
  bm_.EndWriteEpoch();
  EXPECT_EQ(rows_at(0, base_size), snapshot);
  const std::vector<std::string> published = {
      "k0=upd", "k1=new", "k2=base", "k3=new", "k4=base", "k5=new", "k7=new"};
  EXPECT_EQ(rows_at(1, tree.size()), published);
  EXPECT_TRUE(tree.Validate().ok());

  bm_.ReclaimVersionsThrough(1);
  EXPECT_EQ(bm_.versioned_revision_count(), 0u);
  EXPECT_EQ(rows_at(kLatestEpoch, tree.size()), published);
}

TEST_F(BufferManagerMvccTest, BornPagesWriteInPlaceAndFreeImmediately) {
  bm_.BeginWriteEpoch(1);
  PageId born;
  {
    ScopedEpoch scope(1);
    born = bm_.Allocate();
    PageRef ref = bm_.FetchForWrite(born);
    EXPECT_FALSE(ref.versioned());  // In place: no published reader.
    std::memset(ref->data(), 'n', ref->size());
    bm_.Free(born);  // Born in this epoch: the free is immediate.
  }
  bm_.EndWriteEpoch();
  EXPECT_EQ(bm_.pending_free_count(), 0u);
  EXPECT_FALSE(store_.IsLive(born));
  EXPECT_EQ(bm_.stats().pages_cow.load(), 0u);
}

TEST_F(BufferManagerMvccTest, PublishedPageFreeIsDeferredUntilHorizon) {
  const PageId id = bm_.Allocate();
  {
    PageRef ref = bm_.FetchForWrite(id);
    std::memset(ref->data(), 'a', ref->size());
  }
  bm_.BeginWriteEpoch(3);
  {
    ScopedEpoch scope(3);
    bm_.Free(id);
  }
  bm_.EndWriteEpoch();
  // A reader pinned at epoch 2 still walks the page.
  EXPECT_EQ(bm_.pending_free_count(), 1u);
  EXPECT_TRUE(store_.IsLive(id));
  EXPECT_EQ(FirstByteAt(id, 2), 'a');

  // Horizon 2: the oldest pin is still below the death epoch.
  bm_.ReclaimVersionsThrough(2);
  EXPECT_TRUE(store_.IsLive(id));

  // Last pin drained past epoch 3: now the free really happens.
  bm_.ReclaimVersionsThrough(3);
  EXPECT_FALSE(store_.IsLive(id));
  EXPECT_EQ(bm_.pending_free_count(), 0u);
}

// ------------------------------------------------------------- database

class DatabaseMvccTest : public ::testing::Test {
 protected:
  DatabaseMvccTest() {
    cls_ = db_.CreateClass("Item").value();
    EXPECT_TRUE(db_.CreateIndex(PathSpec::ClassHierarchy(
                                    cls_, "price", Value::Kind::kInt))
                    .ok());
  }

  Oid NewItem(int64_t price) {
    const Oid oid = db_.CreateObject(cls_).value();
    EXPECT_TRUE(db_.SetAttr(oid, "price", Value::Int(price)).ok());
    return oid;
  }

  Database::Selection AllPrices() const {
    Database::Selection sel;
    sel.cls = cls_;
    sel.attr = "price";
    sel.lo = Value::Int(0);
    sel.hi = Value::Int(1u << 20);
    return sel;
  }

  Database db_;
  ClassId cls_ = kInvalidClassId;
};

TEST_F(DatabaseMvccTest, EpochsAdvancePerDmlAndCountersFlow) {
  const uint64_t epoch0 = db_.published_epoch();
  const uint64_t published0 = db_.buffers().stats().epochs_published.load();
  const Oid oid = NewItem(10);            // CreateObject + SetAttr = 2 DML.
  ASSERT_TRUE(db_.SetAttr(oid, "price", Value::Int(11)).ok());
  EXPECT_EQ(db_.published_epoch(), epoch0 + 3);
  EXPECT_EQ(db_.buffers().stats().epochs_published.load(), published0 + 3);
  // The DML touched already-published extent/index pages: CoW happened.
  EXPECT_GT(db_.buffers().stats().pages_cow.load(), 0u);
  // No journal: the commit pipeline is inert.
  EXPECT_EQ(db_.buffers().stats().commit_batches.load(), 0u);
  EXPECT_EQ(db_.commit_pipeline().appended_seq(), 0u);
  EXPECT_EQ(db_.active_snapshots(), 0u);
}

TEST_F(DatabaseMvccTest, PagesReadIdenticalWithAndWithoutChainRevisions) {
  for (int i = 0; i < 200; ++i) NewItem(i % 50);

  auto delta_for_select = [&]() {
    const uint64_t before = db_.buffers().stats().pages_read.load();
    Result<Database::SelectResult> r = db_.Select(AllPrices());
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.value().used_index);
    return db_.buffers().stats().pages_read.load() - before;
  };

  // First run: chain revisions from the DML burst are still unreclaimed.
  const uint64_t with_chains = delta_for_select();
  EXPECT_GT(db_.buffers().versioned_revision_count(), 0u);

  // A no-op-shaped DML reclaims (no pins) then re-creates a small chain;
  // checkpointless fold: Save forces everything into base.
  ASSERT_TRUE(db_.Save("/tmp/uindex_mvcc_test_snapshot").ok());
  EXPECT_EQ(db_.buffers().versioned_revision_count(), 0u);
  const uint64_t folded = delta_for_select();

  // The page-read metric counts logical page identity, never version
  // residency: both runs charge exactly the same pages.
  EXPECT_EQ(with_chains, folded);
}

TEST_F(DatabaseMvccTest, ConcurrentReadersSeeOnlyPublishedPrefixes) {
  // Writer appends items (each visible only once its SetAttr commits);
  // readers run range selects the whole time. Insert-only workload, so
  // every snapshot must be a *prefix* of the final creation order — a
  // torn read (object in the index without its extent entry, or a
  // half-split B-tree node) would surface as a non-prefix set or an
  // error. Run under TSan via -DUINDEX_SANITIZE=thread (the CI matrix
  // does).
  constexpr int kItems = 300;
  constexpr int kReaders = 4;

  std::vector<Oid> created(kItems, kInvalidOid);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::vector<std::vector<Oid>>> observed(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Session session(&db_);
      size_t last_size = 0;
      while (!done.load(std::memory_order_acquire)) {
        Result<Database::SelectResult> r = session.Select(AllPrices());
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
        std::vector<Oid>& oids = r.value().oids;
        // Snapshots only move forward within one thread.
        if (oids.size() < last_size) failures.fetch_add(1);
        last_size = oids.size();
        observed[t].push_back(std::move(oids));
      }
    });
  }

  for (int i = 0; i < kItems; ++i) {
    const Oid oid = db_.CreateObject(cls_).value();
    created[i] = oid;
    ASSERT_TRUE(db_.SetAttr(oid, "price", Value::Int(i)).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every observed result is exactly the first k created oids, for some k.
  std::vector<Oid> sorted_created = created;
  for (const auto& per_thread : observed) {
    for (const std::vector<Oid>& result : per_thread) {
      ASSERT_LE(result.size(), sorted_created.size());
      std::vector<Oid> expected(sorted_created.begin(),
                                sorted_created.begin() + result.size());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(result, expected);
    }
  }

  // Readers drained: reclamation on the next write folds every chain.
  NewItem(0);
  EXPECT_EQ(db_.active_snapshots(), 0u);
}

TEST_F(DatabaseMvccTest, DdlUnderConcurrentReadersStaysConsistent) {
  for (int i = 0; i < 100; ++i) NewItem(i);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        Result<Database::SelectResult> r = db_.Select(AllPrices());
        if (!r.ok() || r.value().oids.size() > 101) failures.fetch_add(1);
      }
    });
  }
  // DDL (exclusive latch: quiesces readers, folds versions, mutates in
  // place) interleaved with DML.
  for (int round = 0; round < 5; ++round) {
    ClassId sub =
        db_.CreateSubclass("Sub" + std::to_string(round), cls_).value();
    const Oid oid = db_.CreateObject(sub).value();
    ASSERT_TRUE(db_.SetAttr(oid, "price", Value::Int(1)).ok());
    ASSERT_TRUE(db_.DeleteObject(oid).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  Result<Database::SelectResult> final_r = db_.Select(AllPrices());
  ASSERT_TRUE(final_r.ok());
  EXPECT_EQ(final_r.value().oids.size(), 100u);
}

}  // namespace
}  // namespace uindex

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/overflow.h"
#include "storage/pager.h"
#include "storage/stable_directory.h"
#include "util/random.h"

namespace uindex {
namespace {

TEST(PagerTest, AllocateAndAccess) {
  Pager pager(1024);
  EXPECT_EQ(pager.page_size(), 1024u);
  const PageId a = pager.Allocate();
  const PageId b = pager.Allocate();
  EXPECT_NE(a, kInvalidPageId);
  EXPECT_NE(a, b);
  EXPECT_EQ(pager.live_page_count(), 2u);
  ASSERT_NE(pager.GetPage(a), nullptr);
  EXPECT_EQ(pager.GetPage(a)->size(), 1024u);
  EXPECT_EQ(pager.GetPage(kInvalidPageId), nullptr);
  EXPECT_EQ(pager.GetPage(999), nullptr);
}

TEST(PagerTest, FreeAndReuse) {
  Pager pager(256);
  const PageId a = pager.Allocate();
  pager.Allocate();
  pager.Free(a);
  EXPECT_FALSE(pager.IsLive(a));
  EXPECT_EQ(pager.live_page_count(), 1u);
  const PageId c = pager.Allocate();
  EXPECT_EQ(c, a);  // Freed ids are recycled.
  EXPECT_TRUE(pager.IsLive(c));
}

TEST(PagerTest, PagesAreZeroedOnAllocation) {
  Pager pager(64);
  const PageId a = pager.Allocate();
  Page* p = pager.GetPage(a);
  p->data()[0] = 'x';
  pager.Free(a);
  const PageId b = pager.Allocate();
  ASSERT_EQ(a, b);
  EXPECT_EQ(pager.GetPage(b)->data()[0], 0);
}

TEST(StableDirectoryTest, SlotsStayPutAsItGrows) {
  StableDirectory<int, 4, 3> dir;  // 12 slots.
  ASSERT_TRUE(dir.EnsureUpTo(0));
  int* first = &dir.At(0);
  EXPECT_EQ(*first, 0);  // Value-initialised.
  *first = 7;
  ASSERT_TRUE(dir.EnsureUpTo(11));
  EXPECT_EQ(&dir.At(0), first);
  EXPECT_EQ(dir.At(0), 7);
  EXPECT_EQ(dir.At(11), 0);
  EXPECT_FALSE(dir.EnsureUpTo(12));
  EXPECT_EQ(dir.max_id(), 0u);
  dir.Publish(11);
  EXPECT_EQ(dir.max_id(), 11u);
  dir.Reset();
  EXPECT_EQ(dir.max_id(), 0u);
  ASSERT_TRUE(dir.EnsureUpTo(5));
  EXPECT_EQ(dir.At(0), 0);  // Fresh chunks after a reset.
}

TEST(PagerTest, ReadersResolvePagesWhileTheWriterAllocates) {
  // The writer allocates across several directory chunks while readers
  // resolve every id published so far. A page's content is checked once
  // the writer has released it through `written`; before that only its
  // slot is resolved. Under ThreadSanitizer this is the race check for a
  // directory that never moves.
  constexpr PageId kPages = 20000;
  Pager pager(64);
  std::atomic<PageId> written{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random rng(17 + r);
      while (!done.load(std::memory_order_acquire)) {
        const PageId max = pager.max_page_id();
        if (max == 0) continue;
        const PageId id = 1 + rng.Uniform(max);
        const Page* page = pager.GetPage(id);
        if (page == nullptr || page->size() != 64) {
          mismatches.fetch_add(1);
          continue;
        }
        if (id <= written.load(std::memory_order_acquire)) {
          PageId stored = 0;
          std::memcpy(&stored, page->data(), sizeof(stored));
          if (stored != id) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (PageId i = 1; i <= kPages; ++i) {
    const PageId id = pager.Allocate();
    ASSERT_EQ(id, i);
    std::memcpy(pager.GetPage(id)->data(), &id, sizeof(id));
    written.store(id, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(pager.live_page_count(), kPages);
  EXPECT_EQ(pager.max_page_id(), kPages);
  EXPECT_EQ(pager.GetPage(kPages + 1), nullptr);
}

TEST(PagerTest, RestoreRebuildsTheDirectory) {
  Pager pager(64);
  for (int i = 0; i < 5000; ++i) pager.Allocate();
  ASSERT_TRUE(pager.BeginRestore(4100).ok());
  EXPECT_EQ(pager.max_page_id(), 4100u);
  EXPECT_EQ(pager.live_page_count(), 0u);
  EXPECT_EQ(pager.GetPage(4100), nullptr);
  const std::string bytes(64, 'r');
  ASSERT_TRUE(pager.RestorePage(4100, Slice(bytes)).ok());
  ASSERT_TRUE(pager.IsLive(4100));
  EXPECT_EQ(pager.GetPage(4100)->data()[0], 'r');
  EXPECT_FALSE(pager.RestorePage(4101, Slice(bytes)).ok());
  // Free ids are reused lowest first; the directory does not grow.
  EXPECT_EQ(pager.Allocate(), 1u);
  EXPECT_EQ(pager.max_page_id(), 4100u);
}

TEST(BufferManagerTest, CountsDistinctReadsPerQueryEpoch) {
  Pager pager(128);
  BufferManager buffers(&pager);
  const PageId a = buffers.Allocate();
  const PageId b = buffers.Allocate();
  buffers.ResetStats();

  buffers.BeginQuery();
  buffers.Fetch(a);
  buffers.Fetch(a);  // Same page, same query: free.
  buffers.Fetch(b);
  EXPECT_EQ(buffers.stats().pages_read, 2u);
  EXPECT_EQ(buffers.stats().cache_hits, 1u);

  buffers.BeginQuery();  // New query: pages cost again.
  buffers.Fetch(a);
  EXPECT_EQ(buffers.stats().pages_read, 3u);
}

TEST(BufferManagerTest, QueryCostMeasuresDelta) {
  Pager pager(128);
  BufferManager buffers(&pager);
  const PageId a = buffers.Allocate();
  buffers.Fetch(a);
  {
    QueryCost cost(&buffers);
    EXPECT_EQ(cost.PagesRead(), 0u);
    buffers.Fetch(a);
    buffers.Fetch(a);
    EXPECT_EQ(cost.PagesRead(), 1u);
  }
}

TEST(BufferManagerTest, AllocateIsResidentAndWriteCounts) {
  Pager pager(128);
  BufferManager buffers(&pager);
  buffers.BeginQuery();
  const PageId a = buffers.Allocate();
  EXPECT_EQ(buffers.stats().pages_written, 1u);
  buffers.Fetch(a);  // Already resident: no read charged.
  EXPECT_EQ(buffers.stats().pages_read, 0u);
  buffers.FetchForWrite(a);
  EXPECT_EQ(buffers.stats().pages_written, 2u);
  EXPECT_EQ(buffers.stats().pages_read, 0u);
}

TEST(BufferManagerTest, FetchMissingPageReturnsNull) {
  Pager pager(128);
  BufferManager buffers(&pager);
  EXPECT_EQ(buffers.Fetch(42), nullptr);
  EXPECT_EQ(buffers.stats().pages_read, 0u);
}

TEST(BufferManagerTest, BoundedLruEvictsLeastRecentlyUsed) {
  Pager pager(128);
  BufferManager buffers(&pager);
  const PageId a = buffers.Allocate();
  const PageId b = buffers.Allocate();
  const PageId c = buffers.Allocate();
  buffers.SetCapacity(2);
  buffers.ResetStats();

  buffers.Fetch(a);  // miss
  buffers.Fetch(b);  // miss
  buffers.Fetch(a);  // hit (a most recent)
  buffers.Fetch(c);  // miss, evicts b
  EXPECT_EQ(buffers.stats().pages_read, 3u);
  EXPECT_EQ(buffers.stats().cache_hits, 1u);
  buffers.Fetch(b);  // miss again (was evicted)
  EXPECT_EQ(buffers.stats().pages_read, 4u);
  buffers.Fetch(a);  // evicted by b's re-entry? LRU order: c, b -> a miss.
  EXPECT_EQ(buffers.stats().pages_read, 5u);
}

TEST(BufferManagerTest, BoundedPoolPersistsAcrossQueries) {
  Pager pager(128);
  BufferManager buffers(&pager);
  const PageId a = buffers.Allocate();
  buffers.SetCapacity(4);
  buffers.ResetStats();
  buffers.Fetch(a);
  EXPECT_EQ(buffers.stats().pages_read, 1u);
  buffers.BeginQuery();  // No-op in bounded mode.
  buffers.Fetch(a);
  EXPECT_EQ(buffers.stats().pages_read, 1u);
  EXPECT_EQ(buffers.stats().cache_hits, 1u);
  // Switching back to unbounded restores epoch semantics.
  buffers.SetCapacity(0);
  buffers.BeginQuery();
  buffers.Fetch(a);
  EXPECT_EQ(buffers.stats().pages_read, 2u);
}

TEST(BufferManagerTest, CapacityOneStillWorks) {
  Pager pager(128);
  BufferManager buffers(&pager);
  const PageId a = buffers.Allocate();
  const PageId b = buffers.Allocate();
  buffers.SetCapacity(1);
  buffers.ResetStats();
  buffers.Fetch(a);
  buffers.Fetch(a);
  EXPECT_EQ(buffers.stats().cache_hits, 1u);
  buffers.Fetch(b);  // Evicts a.
  buffers.Fetch(a);  // Miss again.
  EXPECT_EQ(buffers.stats().pages_read, 3u);
}

TEST(BufferManagerTest, FreeDropsFromLru) {
  Pager pager(128);
  BufferManager buffers(&pager);
  const PageId a = buffers.Allocate();
  buffers.SetCapacity(2);
  buffers.ResetStats();
  buffers.Fetch(a);
  buffers.Free(a);
  const PageId b = buffers.Allocate();  // Likely reuses a's id.
  buffers.ResetStats();
  buffers.Fetch(b);
  // b was inserted at Allocate time, so this is a hit, not a stale one.
  EXPECT_EQ(buffers.stats().cache_hits, 1u);
}

TEST(IoStatsTest, DeltaArithmetic) {
  IoStats a, b;
  a.pages_read = 10;
  a.pages_written = 4;
  b.pages_read = 3;
  b.pages_written = 1;
  const IoStats d = a - b;
  EXPECT_EQ(d.pages_read, 7u);
  EXPECT_EQ(d.pages_written, 3u);
  EXPECT_NE(a.ToString().find("reads=10"), std::string::npos);
}

class OverflowChainTest : public ::testing::TestWithParam<size_t> {};

TEST_P(OverflowChainTest, RoundTripsPayloads) {
  Pager pager(256);
  BufferManager buffers(&pager);
  Random rng(GetParam());
  std::string payload;
  for (size_t i = 0; i < GetParam(); ++i) {
    payload.push_back(static_cast<char>(rng.Next() & 0xFF));
  }
  Result<PageId> head = OverflowChain::Write(&buffers, Slice(payload));
  ASSERT_TRUE(head.ok());
  if (payload.empty()) {
    EXPECT_EQ(head.value(), kInvalidPageId);
    return;
  }
  Result<std::string> back = OverflowChain::Read(&buffers, head.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);

  const uint64_t live_before = pager.live_page_count();
  ASSERT_TRUE(OverflowChain::Free(&buffers, head.value()).ok());
  const uint64_t expected_links =
      (payload.size() + OverflowChain::PayloadPerPage(buffers) - 1) /
      OverflowChain::PayloadPerPage(buffers);
  EXPECT_EQ(live_before - pager.live_page_count(), expected_links);
}

INSTANTIATE_TEST_SUITE_P(Sizes, OverflowChainTest,
                         ::testing::Values(0, 1, 249, 250, 251, 500, 4096,
                                           100000));

TEST(OverflowChainTest, ReadChargesOnePageReadPerLink) {
  Pager pager(256);
  BufferManager buffers(&pager);
  const std::string payload(1000, 'x');  // 4 links at 250 B payload each.
  const PageId head =
      OverflowChain::Write(&buffers, Slice(payload)).value();
  QueryCost cost(&buffers);
  ASSERT_TRUE(OverflowChain::Read(&buffers, head).ok());
  EXPECT_EQ(cost.PagesRead(), 4u);
}

}  // namespace
}  // namespace uindex

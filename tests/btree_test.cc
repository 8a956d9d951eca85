#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "btree/btree.h"
#include "util/random.h"

namespace uindex {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pager_(1024), buffers_(&pager_) {}
  Pager pager_;
  BufferManager buffers_;
};

TEST_F(BTreeTest, EmptyTree) {
  BTree tree(&buffers_);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Get(Slice("x")).status().IsNotFound());
  EXPECT_TRUE(tree.Delete(Slice("x")).IsNotFound());
  auto it = tree.NewIterator();
  it.SeekToFirst();
  EXPECT_FALSE(it.Valid());
  EXPECT_TRUE(tree.Validate().ok());
}

TEST_F(BTreeTest, InsertGetDelete) {
  BTree tree(&buffers_);
  ASSERT_TRUE(tree.Insert(Slice("k1"), Slice("v1")).ok());
  ASSERT_TRUE(tree.Insert(Slice("k2"), Slice("v2")).ok());
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree.Get(Slice("k1")).value(), "v1");
  EXPECT_EQ(tree.Get(Slice("k2")).value(), "v2");
  EXPECT_TRUE(tree.Contains(Slice("k1")));
  EXPECT_FALSE(tree.Contains(Slice("k3")));

  EXPECT_TRUE(tree.Insert(Slice("k1"), Slice("x")).IsAlreadyExists());
  ASSERT_TRUE(tree.Put(Slice("k1"), Slice("v1b")).ok());
  EXPECT_EQ(tree.Get(Slice("k1")).value(), "v1b");
  EXPECT_EQ(tree.size(), 2u);

  ASSERT_TRUE(tree.Delete(Slice("k1")).ok());
  EXPECT_FALSE(tree.Contains(Slice("k1")));
  EXPECT_EQ(tree.size(), 1u);
}

TEST_F(BTreeTest, SplitsGrowTheTree) {
  BTree tree(&buffers_);
  for (int i = 0; i < 2000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(tree.Insert(Slice(key), Slice("value")).ok());
  }
  EXPECT_EQ(tree.size(), 2000u);
  ASSERT_TRUE(tree.Validate().ok());
  auto stats = tree.ComputeStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().height, 1u);
  EXPECT_GT(stats.value().leaf_nodes, 1u);
  EXPECT_EQ(stats.value().entries, 2000u);
  for (int i = 0; i < 2000; i += 37) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    EXPECT_TRUE(tree.Contains(Slice(key)));
  }
}

TEST_F(BTreeTest, IteratorScansInOrder) {
  BTree tree(&buffers_);
  for (int i = 999; i >= 0; --i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(tree.Insert(Slice(key), Slice(key)).ok());
  }
  auto it = tree.NewIterator();
  int count = 0;
  std::string prev;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    EXPECT_TRUE(prev.empty() || Slice(prev) < it.key());
    prev = it.key().ToString();
    ++count;
  }
  EXPECT_EQ(count, 1000);
}

TEST_F(BTreeTest, SeekFindsLowerBound) {
  BTree tree(&buffers_);
  for (int i = 0; i < 100; i += 2) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(tree.Insert(Slice(key), Slice()).ok());
  }
  auto it = tree.NewIterator();
  it.Seek(Slice("k0013"));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "k0014");
  it.Seek(Slice("k0014"));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "k0014");
  it.Seek(Slice("k9999"));
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, DeleteEverythingCollapsesToEmptyRoot) {
  BTree tree(&buffers_);
  const uint64_t base_pages = pager_.live_page_count();
  for (int i = 0; i < 1500; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(tree.Insert(Slice(key), Slice("payload-xyz")).ok());
  }
  for (int i = 0; i < 1500; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(tree.Delete(Slice(key)).ok());
  }
  EXPECT_EQ(tree.size(), 0u);
  ASSERT_TRUE(tree.Validate().ok());
  auto stats = tree.ComputeStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().height, 1u);  // Root collapsed back to a leaf.
  EXPECT_EQ(pager_.live_page_count(), base_pages);  // All pages reclaimed.
}

TEST_F(BTreeTest, ClearFreesEverythingAndStaysUsable) {
  BTree tree(&buffers_);
  const uint64_t empty_pages = pager_.live_page_count();
  for (int i = 0; i < 3000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(tree.Insert(Slice(key), Slice("payload")).ok());
  }
  EXPECT_GT(pager_.live_page_count(), empty_pages);
  ASSERT_TRUE(tree.Clear().ok());
  EXPECT_EQ(pager_.live_page_count(), empty_pages);
  EXPECT_EQ(tree.size(), 0u);
  ASSERT_TRUE(tree.Validate().ok());
  // Fully usable again.
  ASSERT_TRUE(tree.Insert(Slice("after"), Slice("clear")).ok());
  EXPECT_EQ(tree.Get(Slice("after")).value(), "clear");
}

TEST_F(BTreeTest, RejectsEntryLargerThanPage) {
  BTree tree(&buffers_);
  const std::string huge(2000, 'x');
  EXPECT_TRUE(tree.Insert(Slice(huge), Slice()).IsInvalidArgument());
}

TEST_F(BTreeTest, MaxEntriesPerNodeCapsFanout) {
  BTreeOptions opts;
  opts.max_entries_per_node = 10;  // Paper Table 1: "small node size m=10".
  BTree tree(&buffers_, opts);
  for (int i = 0; i < 500; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(tree.Insert(Slice(key), Slice()).ok());
  }
  ASSERT_TRUE(tree.Validate().ok());
  auto stats = tree.ComputeStats();
  ASSERT_TRUE(stats.ok());
  // 500 entries at <= 10 per leaf: at least 50 leaves and a real hierarchy.
  EXPECT_GE(stats.value().leaf_nodes, 50u);
  EXPECT_GE(stats.value().height, 3u);
}

TEST_F(BTreeTest, IteratorCountsPageReads) {
  BTree tree(&buffers_);
  for (int i = 0; i < 3000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(tree.Insert(Slice(key), Slice("0123456789")).ok());
  }
  auto stats = tree.ComputeStats().value();
  QueryCost cost(&buffers_);
  auto it = tree.NewIterator();
  int n = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) ++n;
  EXPECT_EQ(n, 3000);
  // Full scan reads every leaf once plus the descent to the first leaf.
  EXPECT_GE(cost.PagesRead(), stats.leaf_nodes);
  EXPECT_LE(cost.PagesRead(), stats.leaf_nodes + stats.height);
}

// Single-key writes cost what the parsed-path write cost: one counted read
// per level (the leaf's FetchForWrite is a residency hit) and one page
// write when the leaf is edited in place. A split costs no extra write for
// the attempt that did not fit: the leaf, the allocated page, its image
// and the parent — 4 writes, the same as re-serializing the parsed path.
TEST_F(BTreeTest, SingleKeyWriteAccounting) {
  BTree tree(&buffers_);
  for (int i = 0; i < 2000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(tree.Insert(Slice(key), Slice("value")).ok());
  }
  const uint32_t height = tree.ComputeStats().value().height;
  ASSERT_GE(height, 2u);
  auto allocated = [this] { return buffers_.stats().pages_allocated.load(); };

  {
    QueryCost cost(&buffers_);
    const uint64_t alloc0 = allocated();
    ASSERT_TRUE(tree.Insert(Slice("k000100x"), Slice("value")).ok());
    EXPECT_EQ(allocated(), alloc0);
    EXPECT_EQ(cost.PagesRead(), height);
    EXPECT_EQ(cost.PagesWritten(), 1u);
  }
  {
    QueryCost cost(&buffers_);
    ASSERT_TRUE(tree.Delete(Slice("k000101")).ok());
    EXPECT_EQ(cost.PagesRead(), height);
    EXPECT_EQ(cost.PagesWritten(), 1u);
  }
  {
    QueryCost cost(&buffers_);
    ASSERT_TRUE(tree.Put(Slice("k000102"), Slice("other")).ok());
    EXPECT_EQ(cost.PagesRead(), height);
    EXPECT_EQ(cost.PagesWritten(), 1u);
  }
  bool split = false;
  for (int i = 0; i < 200 && !split; ++i) {
    char key[24];
    std::snprintf(key, sizeof(key), "k000200/%04d", i);
    QueryCost cost(&buffers_);
    const uint64_t alloc0 = allocated();
    ASSERT_TRUE(tree.Insert(Slice(key), Slice("value")).ok());
    EXPECT_EQ(cost.PagesRead(), height) << key;
    if (allocated() == alloc0) {
      EXPECT_EQ(cost.PagesWritten(), 1u) << key;
      continue;
    }
    split = true;
    EXPECT_EQ(allocated(), alloc0 + 1);
    EXPECT_EQ(cost.PagesWritten(), 4u);
  }
  EXPECT_TRUE(split);
  EXPECT_EQ(tree.ComputeStats().value().height, height);
  EXPECT_TRUE(tree.Validate().ok());
}

// A malformed leaf fails every single-key write with Corruption before
// anything is written: the page keeps its bytes and the tree its size.
TEST_F(BTreeTest, CorruptLeafFailsWritesUntouched) {
  BTree tree(&buffers_);
  ASSERT_TRUE(tree.Insert(Slice("aa"), Slice("1")).ok());
  ASSERT_TRUE(tree.Insert(Slice("ab"), Slice("2")).ok());
  // Entry 1 starts after the header and entry 0 (6 + "aa" + "1"); push
  // its suffix length past the page end.
  Page* leaf = pager_.GetPage(tree.root());
  char* suffix_len = leaf->data() + Node::kHeaderSize + 9 + 2;
  suffix_len[0] = static_cast<char>(0xFF);
  suffix_len[1] = 0x03;
  const std::string before(leaf->data(), leaf->size());
  const uint64_t written = buffers_.stats().pages_written.load();

  EXPECT_TRUE(tree.Insert(Slice("ac"), Slice("3")).IsCorruption());
  EXPECT_TRUE(tree.Put(Slice("ab"), Slice("4")).IsCorruption());
  EXPECT_TRUE(tree.Delete(Slice("aa")).IsCorruption());
  EXPECT_EQ(std::string(leaf->data(), leaf->size()), before);
  EXPECT_EQ(buffers_.stats().pages_written.load(), written);
  EXPECT_EQ(tree.size(), 2u);
}

// Delete-rebalance borrow replaces a parent separator with a sibling
// boundary key that can be LONGER than the one it displaced; a full
// parent must then split, not fail serialization ("node does not fit in
// page"). Needs wildly variable key lengths at a small page — uniform
// keys never grow a separator. Distilled from deep-path churn at 10
// hops (bench_paths), which hit this in the original borrow path.
TEST(BTreeBorrowTest, BorrowGrowsSeparatorInFullParent) {
  // When a merge is impossible, RebalanceAfterDelete borrows one entry
  // across the sibling pair and replaces their separator with a sibling
  // boundary key that can be *longer* than the one it displaced.  With a
  // full parent the grown separator no longer fits the page; the parent
  // must go through the insert-side split path.  Key lengths here swing
  // between 1 and 104 bytes on a 256-byte page so that merges routinely
  // fail and separators grow by close to a page.  Seed and pattern are
  // pinned: before the fix this exact sequence died at delete step 347
  // with Corruption("node does not fit in page").
  Pager pager(256);
  BufferManager buffers(&pager);
  BTree tree(&buffers, BTreeOptions());
  Random rng(0);

  auto make_key = [](uint32_t id) {
    const uint32_t h = (id * 2654435761u) ^ 40503u;
    const size_t len = 1 + h % 104;
    std::string key(len, static_cast<char>('A' + id % 52));
    char tail[16];
    std::snprintf(tail, sizeof(tail), "%08u", id);
    if (key.size() < 9) key.resize(9);
    std::memcpy(&key[key.size() - 8], tail, 8);
    return key;
  };

  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < 400; ++id) ids.push_back(id);
  for (uint32_t id : ids) {
    ASSERT_TRUE(tree.Insert(Slice(make_key(id)), Slice("v")).ok()) << id;
  }
  rng.Shuffle(ids);
  size_t step = 0;
  for (uint32_t id : ids) {
    ASSERT_TRUE(tree.Delete(Slice(make_key(id))).ok())
        << "step " << step << " id " << id;
    if (++step % 37 == 0) {
      ASSERT_TRUE(tree.Validate().ok()) << "step " << step;
    }
  }
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.empty());
}

// ---------------------------------------------------------------------------
// Randomized differential test against std::map across page sizes,
// compression settings, and value shapes.
// ---------------------------------------------------------------------------

class BTreeFuzzTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool, uint32_t>> {
};

TEST_P(BTreeFuzzTest, MatchesStdMap) {
  const uint32_t page_size = std::get<0>(GetParam());
  const bool compression = std::get<1>(GetParam());
  const uint32_t max_value = std::get<2>(GetParam());

  Pager pager(page_size);
  BufferManager buffers(&pager);
  BTreeOptions opts;
  opts.prefix_compression = compression;
  BTree tree(&buffers, opts);
  std::map<std::string, std::string> model;
  Random rng(page_size * 31 + compression * 7 + max_value);

  for (int op = 0; op < 8000; ++op) {
    const uint64_t k = rng.Uniform(700);
    // Heavily shared prefixes exercise the front compression.
    std::string key = "prefix/shared/" + std::to_string(k % 13) + "/" +
                      std::to_string(k);
    const int action = static_cast<int>(rng.Uniform(10));
    if (action < 5) {
      std::string value(rng.Uniform(max_value + 1), 'v');
      ASSERT_TRUE(tree.Put(Slice(key), Slice(value)).ok());
      model[key] = value;
    } else if (action < 8) {
      Status s = tree.Delete(Slice(key));
      if (model.erase(key) > 0) {
        ASSERT_TRUE(s.ok());
      } else {
        ASSERT_TRUE(s.IsNotFound());
      }
    } else {
      Result<std::string> got = tree.Get(Slice(key));
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(got.status().IsNotFound());
      } else {
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got.value(), it->second);
      }
    }
    if (op % 1000 == 999) {
      ASSERT_TRUE(tree.Validate().ok()) << "op " << op;
    }
  }
  ASSERT_TRUE(tree.Validate().ok());
  ASSERT_EQ(tree.size(), model.size());

  // Final full-scan equivalence.
  auto it = tree.NewIterator();
  auto mit = model.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it.key().ToString(), mit->first);
    EXPECT_EQ(it.value().ToString(), mit->second);
  }
  EXPECT_EQ(mit, model.end());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BTreeFuzzTest,
    ::testing::Combine(::testing::Values(256u, 512u, 1024u),
                       ::testing::Bool(), ::testing::Values(0u, 24u)));

// ---------------------------------------------------------------------------
// Byte-identity of in-place leaf edits: every single-key write that costs
// one page write must leave that page exactly as Parse → edit →
// SerializeTo of its prior image would.
// ---------------------------------------------------------------------------

std::map<PageId, std::string> PageImages(const Pager& pager) {
  std::map<PageId, std::string> images;
  for (PageId id = 1; id <= pager.max_page_id(); ++id) {
    if (const Page* page = pager.GetPage(id)) {
      images.emplace(id, std::string(page->data(), page->size()));
    }
  }
  return images;
}

class BTreeInPlaceTest
    : public ::testing::TestWithParam<std::tuple<bool, uint32_t>> {};

TEST_P(BTreeInPlaceTest, SingleWritesMatchReserialize) {
  constexpr uint32_t kPageSize = 256;
  BTreeOptions opts;
  opts.prefix_compression = std::get<0>(GetParam());
  opts.max_entries_per_node = std::get<1>(GetParam());
  Pager pager(kPageSize);
  BufferManager buffers(&pager);
  BTree tree(&buffers, opts);
  std::map<std::string, std::string> model;
  Random rng(opts.prefix_compression * 17 + opts.max_entries_per_node);

  enum { kInsertFirst, kInsertMiddle, kInsertLast, kOverwrite, kEraseFirst,
         kEraseMiddle, kEraseLast, kSplitOrMerge, kCases };
  uint64_t seen[kCases] = {};
  for (int op = 0; op < 4000; ++op) {
    const uint64_t k = rng.Uniform(300);
    // Long shared prefixes; the number's digits vary in length too.
    const std::string key = "objects/of/one/long/class/" +
                            std::to_string(k % 5) + "/" + std::to_string(k);
    std::string value;
    const size_t value_len = rng.Uniform(41);
    for (size_t i = 0; i < value_len; ++i) {
      value += static_cast<char>('a' + rng.Uniform(26));
    }
    const uint64_t action = rng.Uniform(10);

    const std::map<PageId, std::string> before = PageImages(pager);
    const uint64_t written0 = buffers.stats().pages_written.load();
    const bool present = model.count(key) > 0;
    if (action < 4) {
      Status s = tree.Insert(Slice(key), Slice(value));
      ASSERT_TRUE(present ? s.IsAlreadyExists() : s.ok()) << s.ToString();
      if (!present) model[key] = value;
    } else if (action < 7) {
      ASSERT_TRUE(tree.Put(Slice(key), Slice(value)).ok());
      model[key] = value;
    } else {
      Status s = tree.Delete(Slice(key));
      ASSERT_TRUE(present ? s.ok() : s.IsNotFound()) << s.ToString();
      model.erase(key);
    }
    const uint64_t written = buffers.stats().pages_written.load() - written0;
    if (written > 1) ++seen[kSplitOrMerge];
    if (written == 1) {
      const std::map<PageId, std::string> after = PageImages(pager);
      ASSERT_EQ(after.size(), before.size());
      std::vector<PageId> changed;
      for (const auto& [id, bytes] : after) {
        if (before.at(id) != bytes) changed.push_back(id);
      }
      ASSERT_LE(changed.size(), 1u) << "op " << op;
      if (changed.empty()) continue;  // Put of the payload already there.

      Page prior(kPageSize);
      std::memcpy(prior.data(), before.at(changed[0]).data(), kPageSize);
      Result<Node> parsed = Node::Parse(prior);
      ASSERT_TRUE(parsed.ok());
      Node node = std::move(parsed).value();
      ASSERT_TRUE(node.is_leaf());
      auto& entries = node.entries();
      const size_t pos = node.LowerBound(Slice(key));
      const bool found = pos < entries.size() && entries[pos].key == key;
      const auto at = entries.begin() + static_cast<ptrdiff_t>(pos);
      if (action >= 7) {
        ASSERT_TRUE(found);
        ++seen[pos == 0                      ? kEraseFirst
               : pos + 1 == entries.size() ? kEraseLast
                                           : kEraseMiddle];
        entries.erase(at);
      } else if (found) {
        ++seen[kOverwrite];
        at->value = value;
      } else {
        ++seen[pos == 0                  ? kInsertFirst
               : pos == entries.size() ? kInsertLast
                                       : kInsertMiddle];
        NodeEntry entry;
        entry.key = key;
        entry.value = value;
        entries.insert(at, std::move(entry));
      }
      Page want(kPageSize);
      ASSERT_TRUE(node.SerializeTo(&want, opts).ok());
      ASSERT_EQ(after.at(changed[0]), std::string(want.data(), kPageSize))
          << "op " << op << " key " << key << " pos " << pos;
    }
    if (op % 200 == 199) {
      ASSERT_TRUE(tree.Validate().ok()) << "op " << op;
    }
  }
  ASSERT_TRUE(tree.Validate().ok());
  ASSERT_EQ(tree.size(), model.size());
  auto it = tree.NewIterator();
  auto mit = model.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it.key().ToString(), mit->first);
    EXPECT_EQ(it.value().ToString(), mit->second);
  }
  EXPECT_EQ(mit, model.end());
  for (int c = 0; c < kCases; ++c) EXPECT_GT(seen[c], 0u) << "case " << c;
}

INSTANTIATE_TEST_SUITE_P(Shapes, BTreeInPlaceTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(0u, 6u)));

}  // namespace
}  // namespace uindex

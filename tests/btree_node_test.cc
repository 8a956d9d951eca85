#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "btree/node.h"
#include "storage/page.h"
#include "util/random.h"

namespace uindex {
namespace {

NodeEntry LeafEntry(std::string key, std::string value) {
  NodeEntry e;
  e.key = std::move(key);
  e.value = std::move(value);
  return e;
}

NodeEntry InternalEntry(std::string key, PageId child) {
  NodeEntry e;
  e.key = std::move(key);
  e.child = child;
  return e;
}

TEST(NodeTest, LeafRoundTrip) {
  Node node = Node::MakeLeaf();
  node.set_next_leaf(77);
  node.entries().push_back(LeafEntry("apple", "v1"));
  node.entries().push_back(LeafEntry("apricot", "v2"));
  node.entries().push_back(LeafEntry("banana", ""));

  Page page(256);
  BTreeOptions opts;
  ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
  Result<Node> back = Node::Parse(page);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().is_leaf());
  EXPECT_EQ(back.value().next_leaf(), 77u);
  ASSERT_EQ(back.value().entry_count(), 3u);
  EXPECT_EQ(back.value().entries()[0].key, "apple");
  EXPECT_EQ(back.value().entries()[1].key, "apricot");
  EXPECT_EQ(back.value().entries()[1].value, "v2");
  EXPECT_EQ(back.value().entries()[2].value, "");
}

TEST(NodeTest, InternalRoundTrip) {
  Node node = Node::MakeInternal();
  node.set_leftmost_child(5);
  node.entries().push_back(InternalEntry("m", 6));
  node.entries().push_back(InternalEntry("t", 7));

  Page page(128);
  BTreeOptions opts;
  ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
  Result<Node> back = Node::Parse(page);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back.value().is_leaf());
  EXPECT_EQ(back.value().leftmost_child(), 5u);
  EXPECT_EQ(back.value().entries()[0].child, 6u);
  EXPECT_EQ(back.value().entries()[1].child, 7u);
}

TEST(NodeTest, FrontCompressionShrinksSharedPrefixes) {
  BTreeOptions with, without;
  without.prefix_compression = false;

  Node node = Node::MakeLeaf();
  for (int i = 0; i < 10; ++i) {
    node.entries().push_back(
        LeafEntry("shared_long_prefix_" + std::to_string(i), "v"));
  }
  const uint32_t compressed = node.SerializedSize(with);
  const uint32_t raw = node.SerializedSize(without);
  EXPECT_LT(compressed + 100, raw);  // Prefix bytes stored once, not 10x.

  // Round trip preserves full keys under compression.
  Page page(512);
  ASSERT_TRUE(node.SerializeTo(&page, with).ok());
  Result<Node> back = Node::Parse(page);
  ASSERT_TRUE(back.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(back.value().entries()[i].key,
              "shared_long_prefix_" + std::to_string(i));
  }
}

TEST(NodeTest, SerializedSizeMatchesSerializeTo) {
  Random rng(31);
  Node node = Node::MakeLeaf();
  std::string prev = "";
  for (int i = 0; i < 20; ++i) {
    prev += static_cast<char>('a' + (rng.Next() % 26));
    node.entries().push_back(
        LeafEntry(prev, std::string(rng.Next() % 8, 'v')));
  }
  BTreeOptions opts;
  Page page(4096);
  ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
  // Re-parse and confirm the claimed size is consistent (no corruption).
  Result<Node> back = Node::Parse(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().SerializedSize(opts), node.SerializedSize(opts));
}

TEST(NodeTest, LowerAndUpperBound) {
  Node node = Node::MakeLeaf();
  node.entries().push_back(LeafEntry("b", ""));
  node.entries().push_back(LeafEntry("d", ""));
  node.entries().push_back(LeafEntry("f", ""));
  EXPECT_EQ(node.LowerBound(Slice("a")), 0u);
  EXPECT_EQ(node.LowerBound(Slice("b")), 0u);
  EXPECT_EQ(node.LowerBound(Slice("c")), 1u);
  EXPECT_EQ(node.LowerBound(Slice("f")), 2u);
  EXPECT_EQ(node.LowerBound(Slice("g")), 3u);
  EXPECT_EQ(node.UpperBound(Slice("b")), 1u);
  EXPECT_EQ(node.UpperBound(Slice("a")), 0u);
  EXPECT_EQ(node.UpperBound(Slice("f")), 3u);
}

TEST(NodeTest, ChildForRoutesBySeparators) {
  Node node = Node::MakeInternal();
  node.set_leftmost_child(10);
  node.entries().push_back(InternalEntry("m", 11));
  node.entries().push_back(InternalEntry("t", 12));
  EXPECT_EQ(node.ChildFor(Slice("a")), 10u);
  EXPECT_EQ(node.ChildFor(Slice("m")), 11u);  // Separator goes right.
  EXPECT_EQ(node.ChildFor(Slice("p")), 11u);
  EXPECT_EQ(node.ChildFor(Slice("t")), 12u);
  EXPECT_EQ(node.ChildFor(Slice("z")), 12u);
}

TEST(NodeTest, FitsHonoursEntryCap) {
  BTreeOptions opts;
  opts.max_entries_per_node = 3;
  Node node = Node::MakeLeaf();
  for (int i = 0; i < 3; ++i) {
    node.entries().push_back(LeafEntry(std::string(1, 'a' + i), ""));
  }
  EXPECT_TRUE(node.Fits(1024, opts));
  node.entries().push_back(LeafEntry("z", ""));
  EXPECT_FALSE(node.Fits(1024, opts));
}

TEST(NodeTest, ParseRejectsGarbage) {
  Page page(64);
  page.data()[0] = 0x7F;  // Bad tag.
  EXPECT_TRUE(Node::Parse(page).status().IsCorruption());
}

TEST(NodeTest, ParseRejectsOverrunningEntries) {
  Node node = Node::MakeLeaf();
  node.entries().push_back(LeafEntry("abc", "v"));
  Page page(64);
  BTreeOptions opts;
  ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
  // Corrupt the entry count upwards.
  page.data()[2] = 40;
  EXPECT_TRUE(Node::Parse(page).status().IsCorruption());
}

TEST(NodeTest, SerializeFailsWhenTooLarge) {
  Node node = Node::MakeLeaf();
  node.entries().push_back(LeafEntry(std::string(100, 'k'), ""));
  Page page(64);
  BTreeOptions opts;
  EXPECT_TRUE(node.SerializeTo(&page, opts).IsCorruption());
}

// ---- SearchCompressed: the zero-materialization in-node search ----------

// A random sorted key set over a 4-letter alphabet: short alphabet means
// long shared prefixes, the regime front compression (and its search) is
// built for.
std::vector<std::string> RandomSortedKeys(Random* rng, size_t n) {
  std::set<std::string> keys;
  while (keys.size() < n) {
    std::string k;
    const size_t len = 1 + rng->Next() % 12;
    for (size_t i = 0; i < len; ++i) {
      k += static_cast<char>('a' + rng->Next() % 4);
    }
    keys.insert(std::move(k));
  }
  return std::vector<std::string>(keys.begin(), keys.end());
}

// Probes around each key: the key itself, neighbours, and random strings.
std::vector<std::string> Probes(Random* rng, const std::vector<std::string>& keys) {
  std::vector<std::string> probes;
  for (const std::string& k : keys) {
    probes.push_back(k);
    probes.push_back(k + "a");
    if (!k.empty()) {
      std::string below = k;
      below.back() = static_cast<char>(below.back() - 1);
      probes.push_back(below);
      probes.push_back(k.substr(0, k.size() - 1));
    }
  }
  probes.push_back("");
  probes.push_back("zzzz");
  for (int i = 0; i < 32; ++i) {
    std::string p;
    const size_t len = rng->Next() % 10;
    for (size_t j = 0; j < len; ++j) {
      p += static_cast<char>('a' + rng->Next() % 5);
    }
    probes.push_back(std::move(p));
  }
  return probes;
}

// SearchCompressed must agree with Parse + LowerBound/payload on every
// probe, for both serialization modes (its correctness argument does not
// assume maximal prefix lengths, so the uncompressed image must work too).
TEST(NodeTest, SearchCompressedMatchesParseOnLeaves) {
  Random rng(1213);
  for (const bool compressed : {true, false}) {
    BTreeOptions opts;
    opts.prefix_compression = compressed;
    for (int round = 0; round < 20; ++round) {
      Node node = Node::MakeLeaf();
      node.set_next_leaf(321);
      const auto keys = RandomSortedKeys(&rng, 1 + rng.Next() % 30);
      for (const std::string& k : keys) {
        node.entries().push_back(LeafEntry(k, "val_" + k));
      }
      Page page(4096);
      ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
      Result<Node> parsed = Node::Parse(page);
      ASSERT_TRUE(parsed.ok());

      for (const std::string& probe : Probes(&rng, keys)) {
        Result<Node::CompressedSearch> r =
            Node::SearchCompressed(page, Slice(probe));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        const Node::CompressedSearch& s = r.value();
        EXPECT_TRUE(s.is_leaf);
        EXPECT_EQ(s.count, keys.size());
        EXPECT_EQ(s.aux, 321u);
        const size_t lb = parsed.value().LowerBound(Slice(probe));
        EXPECT_EQ(s.lower_bound, lb) << "probe=" << probe;
        const bool expect_found =
            lb < keys.size() && keys[lb] == probe;
        EXPECT_EQ(s.found, expect_found) << "probe=" << probe;
        if (expect_found) {
          EXPECT_EQ(s.value, "val_" + probe);
        }
      }
    }
  }
}

TEST(NodeTest, SearchCompressedMatchesParseOnInternals) {
  Random rng(77);
  for (const bool compressed : {true, false}) {
    BTreeOptions opts;
    opts.prefix_compression = compressed;
    for (int round = 0; round < 20; ++round) {
      Node node = Node::MakeInternal();
      node.set_leftmost_child(1000);
      const auto keys = RandomSortedKeys(&rng, 1 + rng.Next() % 30);
      for (size_t i = 0; i < keys.size(); ++i) {
        node.entries().push_back(
            InternalEntry(keys[i], static_cast<PageId>(1001 + i)));
      }
      Page page(4096);
      ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
      Result<Node> parsed = Node::Parse(page);
      ASSERT_TRUE(parsed.ok());

      for (const std::string& probe : Probes(&rng, keys)) {
        Result<Node::CompressedSearch> r =
            Node::SearchCompressed(page, Slice(probe));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        const Node::CompressedSearch& s = r.value();
        EXPECT_FALSE(s.is_leaf);
        EXPECT_EQ(s.aux, 1000u);
        EXPECT_EQ(s.child, parsed.value().ChildFor(Slice(probe)))
            << "probe=" << probe;
        EXPECT_EQ(s.lower_bound, parsed.value().LowerBound(Slice(probe)));
      }
    }
  }
}

TEST(NodeTest, SearchCompressedEmptyNode) {
  Node node = Node::MakeLeaf();
  Page page(128);
  BTreeOptions opts;
  ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
  Result<Node::CompressedSearch> r =
      Node::SearchCompressed(page, Slice("anything"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().count, 0u);
  EXPECT_FALSE(r.value().found);
  EXPECT_EQ(r.value().lower_bound, 0u);
}

TEST(NodeTest, SearchCompressedRejectsGarbageTag) {
  Page page(64);
  page.data()[0] = 0x7F;
  EXPECT_TRUE(
      Node::SearchCompressed(page, Slice("x")).status().IsCorruption());
}

TEST(NodeTest, SearchCompressedRejectsTinyPage) {
  Page page(4);
  EXPECT_TRUE(
      Node::SearchCompressed(page, Slice("x")).status().IsCorruption());
}

TEST(NodeTest, SearchCompressedRejectsOverrunningEntries) {
  Node node = Node::MakeLeaf();
  node.entries().push_back(LeafEntry("abc", "v"));
  Page page(64);
  BTreeOptions opts;
  ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
  page.data()[2] = 40;  // Count overrun: the scan must hit the page limit.
  EXPECT_TRUE(
      Node::SearchCompressed(page, Slice("zzz")).status().IsCorruption());
}

TEST(NodeTest, SearchCompressedRejectsBadPrefixLength) {
  Node node = Node::MakeLeaf();
  node.entries().push_back(LeafEntry("aa", "1"));
  node.entries().push_back(LeafEntry("ab", "2"));
  Page page(128);
  BTreeOptions opts;
  ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
  // Entry 1's prefix_len claims more than entry 0's key length.
  // Layout: header(12) + entry0 (6 overhead + 2 key + 1 value) = 21.
  page.data()[Node::kHeaderSize + 9] = 9;
  EXPECT_TRUE(Node::Parse(page).status().IsCorruption());
  EXPECT_TRUE(
      Node::SearchCompressed(page, Slice("zz")).status().IsCorruption());
}

// The reference a leaf edit must reproduce: `node` with `key` inserted or
// its payload overwritten (`value` set) or erased (`value` null).
Node EditedNode(Node node, const std::string& key, const std::string* value) {
  auto& entries = node.entries();
  const size_t pos = node.LowerBound(Slice(key));
  const bool found = pos < entries.size() && entries[pos].key == key;
  if (value == nullptr) {
    if (found) entries.erase(entries.begin() + static_cast<ptrdiff_t>(pos));
  } else if (found) {
    entries[pos].value = *value;
  } else {
    entries.insert(entries.begin() + static_cast<ptrdiff_t>(pos),
                   LeafEntry(key, *value));
  }
  return node;
}

std::string RandomBytes(Random* rng, size_t len) {
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out += static_cast<char>(rng->Next() & 0xFF);
  }
  return out;
}

// Every single-key edit of a canonical leaf image — insert at each gap,
// overwrite and erase of each entry, with and without front compression —
// must size the result exactly and write the very bytes Parse → edit →
// SerializeTo writes.
TEST(NodeTest, LeafEditMatchesReserialize) {
  Random rng(20261020);
  for (int round = 0; round < 120; ++round) {
    BTreeOptions opts;
    opts.prefix_compression = (round % 2 == 0);
    Node node = Node::MakeLeaf();
    node.set_next_leaf(round);
    const auto keys = RandomSortedKeys(&rng, rng.Next() % 20);
    for (const std::string& k : keys) {
      node.entries().push_back(LeafEntry(k, RandomBytes(&rng, rng.Next() % 9)));
    }
    Page page(2048);
    ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
    std::vector<std::string> probes = Probes(&rng, keys);
    probes.push_back("");
    for (const std::string& probe : probes) {
      for (int op = 0; op < 2; ++op) {
        const std::string value = RandomBytes(&rng, rng.Next() % 41);
        const std::string* v = op == 0 ? &value : nullptr;
        const Slice value_slice(value);
        Result<Node::LeafEdit> plan = Node::PlanLeafEdit(
            page, Slice(probe), op == 0 ? &value_slice : nullptr, opts);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        const Node::LeafEdit& edit = plan.value();
        EXPECT_EQ(edit.pos, node.LowerBound(Slice(probe)));
        EXPECT_EQ(edit.size, node.SerializedSize(opts));
        const Node expected = EditedNode(node, probe, v);
        EXPECT_EQ(edit.new_size, expected.SerializedSize(opts));
        EXPECT_EQ(edit.new_count, expected.entry_count());
        if (op == 1 && !edit.found) continue;  // Nothing to apply.

        Page edited(page.size());
        std::memcpy(edited.data(), page.data(), page.size());
        Node::ApplyLeafEdit(edit, Slice(probe), value_slice, &edited);
        Page want(page.size());
        ASSERT_TRUE(expected.SerializeTo(&want, opts).ok());
        ASSERT_EQ(std::memcmp(edited.data(), want.data(), page.size()), 0)
            << "probe=" << probe << " op=" << op << " pos=" << edit.pos
            << " compression=" << opts.prefix_compression;
      }
    }
  }
}

// A malformed leaf image must fail the edit plan with Corruption — for an
// insert and an erase alike — and the page bytes must stay untouched.
TEST(NodeTest, LeafEditRejectsMalformedImages) {
  BTreeOptions opts;
  auto expect_rejected = [&opts](const Page& page) {
    std::string before(page.data(), page.size());
    const Slice value("v");
    for (const Slice* v : {&value, static_cast<const Slice*>(nullptr)}) {
      for (const char* key : {"", "ab", "zz"}) {
        EXPECT_TRUE(Node::PlanLeafEdit(page, Slice(key), v, opts)
                        .status()
                        .IsCorruption())
            << key;
      }
    }
    EXPECT_EQ(std::string(page.data(), page.size()), before);
  };

  // Truncated entry header: the count claims an entry whose header runs
  // past the page end (header 12 + entry 6+3+1 = 22 of 24 bytes).
  {
    Node node = Node::MakeLeaf();
    node.entries().push_back(LeafEntry("abc", "v"));
    Page page(24);
    ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
    page.data()[2] = 2;
    expect_rejected(page);
  }
  // prefix_len past the previous key (entry 1's prefix at byte 21).
  {
    Node node = Node::MakeLeaf();
    node.entries().push_back(LeafEntry("aa", "1"));
    node.entries().push_back(LeafEntry("ab", "2"));
    Page page(128);
    ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
    page.data()[Node::kHeaderSize + 9] = 9;
    expect_rejected(page);
  }
  // Body overrun: the last entry's suffix length points past the page.
  {
    Node node = Node::MakeLeaf();
    node.entries().push_back(LeafEntry("aa", "1"));
    node.entries().push_back(LeafEntry("ab", "2"));
    Page page(64);
    ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
    page.data()[Node::kHeaderSize + 9 + 2] = 60;
    expect_rejected(page);
  }
  // Not a leaf at all.
  {
    Node node = Node::MakeInternal();
    node.entries().push_back(InternalEntry("m", 3));
    Page page(64);
    ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
    expect_rejected(page);
  }
}

bool KeysSorted(const Node& node) {
  for (size_t i = 1; i < node.entry_count(); ++i) {
    if (!(Slice(node.entries()[i - 1].key) < Slice(node.entries()[i].key))) {
      return false;
    }
  }
  return true;
}

// The leaf-edit plan validates the whole image, as Parse does: it fails on
// every image Parse rejects (never touching the page), succeeds on every
// sorted leaf Parse accepts, and then edits it into a valid image of the
// edited node — byte-identity needs canonical prefixes, which flipped
// bytes can break, so this compares decoded entries.
void CheckLeafEditAgainstParse(const Page& page, const Result<Node>& parsed,
                               const std::string& probe, Random* rng) {
  const std::string before(page.data(), page.size());
  const std::string value = RandomBytes(rng, rng->Next() % 6);
  const Slice value_slice(value);
  for (int op = 0; op < 2; ++op) {
    BTreeOptions opts;
    opts.prefix_compression = (rng->Next() % 2 == 0);
    Result<Node::LeafEdit> plan = Node::PlanLeafEdit(
        page, Slice(probe), op == 0 ? &value_slice : nullptr, opts);
    ASSERT_EQ(std::string(page.data(), page.size()), before);
    if (!parsed.ok() || !parsed.value().is_leaf()) {
      EXPECT_TRUE(plan.status().IsCorruption());
      continue;
    }
    if (!KeysSorted(parsed.value())) continue;
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const Node::LeafEdit& edit = plan.value();
    EXPECT_EQ(edit.pos, parsed.value().LowerBound(Slice(probe)));
    if ((op == 1 && !edit.found) || edit.new_size > page.size()) continue;
    Page edited(page.size());
    std::memcpy(edited.data(), page.data(), page.size());
    Node::ApplyLeafEdit(edit, Slice(probe), value_slice, &edited);
    Result<Node> back = Node::Parse(edited);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    const Node want =
        EditedNode(parsed.value(), probe, op == 0 ? &value : nullptr);
    ASSERT_EQ(back.value().entry_count(), want.entry_count());
    for (size_t i = 0; i < want.entry_count(); ++i) {
      EXPECT_EQ(back.value().entries()[i].key, want.entries()[i].key);
      EXPECT_EQ(back.value().entries()[i].value, want.entries()[i].value);
    }
    EXPECT_EQ(back.value().next_leaf(), want.next_leaf());
  }
}

// Corruption fuzz: random garbage and randomly flipped bytes of valid
// images must never crash the compressed search or the leaf-edit plan, and
// whenever the full Parse still accepts the image both must agree with it.
// (The search is allowed to succeed where Parse rejects: it stops
// validating at its answer, just as it stops decompressing. The edit plan
// is not: it must find the image's end, so it validates every entry.)
TEST(NodeTest, SearchCompressedCorruptionFuzz) {
  Random rng(20260806);
  for (int round = 0; round < 400; ++round) {
    Page page(256);
    if (round % 2 == 0) {
      for (uint32_t i = 0; i < page.size(); ++i) {
        page.data()[i] = static_cast<char>(rng.Next() & 0xFF);
      }
    } else {
      Node node = round % 4 == 1 ? Node::MakeLeaf() : Node::MakeInternal();
      const auto keys = RandomSortedKeys(&rng, 1 + rng.Next() % 12);
      for (size_t i = 0; i < keys.size(); ++i) {
        node.entries().push_back(node.is_leaf()
                                     ? LeafEntry(keys[i], "v")
                                     : InternalEntry(keys[i], i));
      }
      BTreeOptions opts;
      opts.prefix_compression = (rng.Next() % 2 == 0);
      ASSERT_TRUE(node.SerializeTo(&page, opts).ok());
      const int flips = 1 + rng.Next() % 8;
      for (int f = 0; f < flips; ++f) {
        page.data()[rng.Next() % page.size()] =
            static_cast<char>(rng.Next() & 0xFF);
      }
    }
    std::string probe;
    const size_t len = rng.Next() % 8;
    for (size_t j = 0; j < len; ++j) {
      probe += static_cast<char>(rng.Next() & 0xFF);
    }

    Result<Node::CompressedSearch> r =
        Node::SearchCompressed(page, Slice(probe));
    Result<Node> parsed = Node::Parse(page);
    CheckLeafEditAgainstParse(page, parsed, probe, &rng);
    if (parsed.ok()) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const Node& node = parsed.value();
      EXPECT_EQ(r.value().is_leaf, node.is_leaf());
      // Equivalence with LowerBound/ChildFor additionally needs the node
      // invariant (strictly increasing keys), which Parse does not check —
      // flipped suffix bytes can silently reorder decoded keys, and on an
      // unsorted array both searches return arbitrary (different) answers.
      if (KeysSorted(node)) {
        EXPECT_EQ(r.value().lower_bound, node.LowerBound(Slice(probe)));
        if (!node.is_leaf()) {
          EXPECT_EQ(r.value().child, node.ChildFor(Slice(probe)));
        }
      }
    }
  }
}

TEST(NodeTest, DecodedBytesTracksContent) {
  Node small = Node::MakeLeaf();
  small.entries().push_back(LeafEntry("k", "v"));
  Node big = Node::MakeLeaf();
  for (int i = 0; i < 50; ++i) {
    big.entries().push_back(
        LeafEntry("key_" + std::to_string(i), std::string(32, 'v')));
  }
  EXPECT_GE(small.DecodedBytes(), sizeof(Node) + 2);
  EXPECT_GT(big.DecodedBytes(), small.DecodedBytes() + 50 * 32);
}

}  // namespace
}  // namespace uindex

#include "btree/node.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"
#include "util/hex.h"

namespace uindex {

namespace {

constexpr uint8_t kInternalTag = 1;
constexpr uint8_t kLeafTag = 2;

// Per-entry fixed overhead on the page.
//   internal: prefix_len(2) suffix_len(2) child(4)
//   leaf:     prefix_len(2) suffix_len(2) value_len(2)
constexpr uint32_t kInternalEntryOverhead = 8;
constexpr uint32_t kLeafEntryOverhead = 6;

// One step of the sequential compressed search: compares the entry stored
// as (`prefix_len`, `suffix`) against `target`, given that every earlier
// entry is below target and the previous key shares exactly `match`
// leading bytes with it. Returns the sign of entry vs target and sets
// `*common` to the length of their common prefix.
int CompareEntry(const Slice& target, size_t match, uint16_t prefix_len,
                 const Slice& suffix, size_t* common) {
  if (prefix_len > match) {
    // The entry shares more of the previous key than the target does, so
    // it diverges from the target exactly where the previous key did —
    // below it.
    *common = match;
    return -1;
  }
  // First prefix_len bytes equal target's; the suffix decides.
  Slice rest = target;
  rest.RemovePrefix(prefix_len);
  const size_t n = suffix.CommonPrefixLength(rest);
  *common = prefix_len + n;
  if (n < suffix.size() && n < rest.size()) {
    return static_cast<uint8_t>(suffix[n]) < static_cast<uint8_t>(rest[n])
               ? -1
               : 1;
  }
  if (suffix.size() == rest.size()) return 0;
  return suffix.size() < rest.size() ? -1 : 1;
}

void EncodeLeafEntryHeader(char* p, uint16_t prefix_len, uint16_t suffix_len,
                           uint16_t value_len) {
  EncodeFixed16(p, prefix_len);
  EncodeFixed16(p + 2, suffix_len);
  EncodeFixed16(p + 4, value_len);
}

}  // namespace

Result<Node> Node::Parse(const Page& page) {
  const char* p = page.data();
  const char* limit = page.data() + page.size();
  if (page.size() < kHeaderSize) {
    return Status::Corruption("page smaller than node header");
  }
  const uint8_t tag = static_cast<uint8_t>(p[0]);
  if (tag != kInternalTag && tag != kLeafTag) {
    return Status::Corruption("bad node tag");
  }
  Node node;
  node.is_leaf_ = (tag == kLeafTag);
  const uint16_t count = DecodeFixed16(p + 2);
  node.aux_ = DecodeFixed32(p + 4);
  p += kHeaderSize;

  node.entries_.reserve(count);
  std::string prev_key;
  for (uint16_t i = 0; i < count; ++i) {
    const uint32_t overhead =
        node.is_leaf_ ? kLeafEntryOverhead : kInternalEntryOverhead;
    if (p + overhead > limit) {
      return Status::Corruption("entry header overruns page");
    }
    const uint16_t prefix_len = DecodeFixed16(p);
    const uint16_t suffix_len = DecodeFixed16(p + 2);
    NodeEntry entry;
    uint16_t value_len = 0;
    if (node.is_leaf_) {
      value_len = DecodeFixed16(p + 4);
      p += kLeafEntryOverhead;
    } else {
      entry.child = DecodeFixed32(p + 4);
      p += kInternalEntryOverhead;
    }
    if (prefix_len > prev_key.size()) {
      return Status::Corruption("prefix length exceeds previous key");
    }
    if (p + suffix_len + value_len > limit) {
      return Status::Corruption("entry body overruns page");
    }
    entry.key.assign(prev_key, 0, prefix_len);
    entry.key.append(p, suffix_len);
    p += suffix_len;
    if (node.is_leaf_) {
      entry.value.assign(p, value_len);
      p += value_len;
    }
    prev_key = entry.key;
    node.entries_.push_back(std::move(entry));
  }
  return node;
}

Result<Node::CompressedSearch> Node::SearchCompressed(const Page& page,
                                                      const Slice& target) {
  const char* p = page.data();
  const char* limit = page.data() + page.size();
  if (page.size() < kHeaderSize) {
    return Status::Corruption("page smaller than node header");
  }
  const uint8_t tag = static_cast<uint8_t>(p[0]);
  if (tag != kInternalTag && tag != kLeafTag) {
    return Status::Corruption("bad node tag");
  }
  CompressedSearch out;
  out.is_leaf = (tag == kLeafTag);
  out.count = DecodeFixed16(p + 2);
  out.aux = DecodeFixed32(p + 4);
  out.child = out.aux;  // Leftmost child until an entry key is <= target.
  out.lower_bound = out.count;
  p += kHeaderSize;

  const uint32_t overhead =
      out.is_leaf ? kLeafEntryOverhead : kInternalEntryOverhead;
  // Invariant entering iteration i: every entry before i is < target,
  // `match` is the exact length of the common prefix of target and entry
  // i-1's key, and `prev_len` is that key's length.
  size_t match = 0;
  size_t prev_len = 0;
  for (uint16_t i = 0; i < out.count; ++i) {
    if (p + overhead > limit) {
      return Status::Corruption("entry header overruns page");
    }
    const uint16_t prefix_len = DecodeFixed16(p);
    const uint16_t suffix_len = DecodeFixed16(p + 2);
    uint16_t value_len = 0;
    PageId entry_child = kInvalidPageId;
    if (out.is_leaf) {
      value_len = DecodeFixed16(p + 4);
      p += kLeafEntryOverhead;
    } else {
      entry_child = DecodeFixed32(p + 4);
      p += kInternalEntryOverhead;
    }
    if (prefix_len > prev_len) {
      return Status::Corruption("prefix length exceeds previous key");
    }
    if (p + suffix_len + value_len > limit) {
      return Status::Corruption("entry body overruns page");
    }
    size_t common = 0;
    const int cmp = CompareEntry(target, match, prefix_len,
                                 Slice(p, suffix_len), &common);
    if (cmp >= 0) {
      out.lower_bound = i;
      out.found = (cmp == 0);
      if (out.found) {
        if (out.is_leaf) {
          out.value.assign(p + suffix_len, value_len);
        } else {
          // UpperBound(target) == i + 1: the separator routes right.
          out.child = entry_child;
        }
      }
      return out;
    }
    if (!out.is_leaf) out.child = entry_child;
    match = common;
    p += suffix_len + value_len;
    prev_len = static_cast<size_t>(prefix_len) + suffix_len;
  }
  return out;
}

bool Node::IsLeafImage(const Page& page) {
  return page.size() >= kHeaderSize &&
         static_cast<uint8_t>(page.data()[0]) == kLeafTag;
}

Result<Node::LeafEdit> Node::PlanLeafEdit(const Page& page, const Slice& key,
                                          const Slice* value,
                                          const BTreeOptions& opts) {
  const char* const base = page.data();
  const char* const limit = base + page.size();
  if (!IsLeafImage(page)) return Status::Corruption("not a leaf node");
  LeafEdit edit;
  edit.count = DecodeFixed16(base + 2);
  edit.pos = edit.count;
  const char* p = base + kHeaderSize;

  // The SearchCompressed scan up to the key's position; from there on the
  // entries are only validated and skipped, to find the image's end.
  bool located = false;
  size_t match = 0;    // Common prefix of key and the previous entry.
  size_t common = 0;   // Common prefix of key and entries[pos].
  size_t prev_len = 0;
  for (uint16_t i = 0; i < edit.count; ++i) {
    if (p + kLeafEntryOverhead > limit) {
      return Status::Corruption("entry header overruns page");
    }
    const uint16_t prefix_len = DecodeFixed16(p);
    const uint16_t suffix_len = DecodeFixed16(p + 2);
    const uint16_t value_len = DecodeFixed16(p + 4);
    if (prefix_len > prev_len) {
      return Status::Corruption("prefix length exceeds previous key");
    }
    const char* suffix = p + kLeafEntryOverhead;
    if (suffix + suffix_len + value_len > limit) {
      return Status::Corruption("entry body overruns page");
    }
    if (!located) {
      const int cmp = CompareEntry(key, match, prefix_len,
                                   Slice(suffix, suffix_len), &common);
      if (cmp >= 0) {
        located = true;
        edit.pos = i;
        edit.found = (cmp == 0);
        edit.offset = static_cast<uint32_t>(p - base);
        edit.entry_prefix = prefix_len;
        edit.entry_suffix = suffix_len;
        edit.entry_value = value_len;
      } else {
        match = common;
      }
    }
    // The entry that gets a new predecessor: entries[pos] itself under an
    // insert, entries[pos + 1] under an erase.
    if (located && i == (value == nullptr ? edit.pos + 1 : edit.pos)) {
      edit.has_next = true;
      edit.next_offset = static_cast<uint32_t>(p - base);
      edit.next_prefix = prefix_len;
      edit.next_suffix = suffix_len;
      edit.next_value = value_len;
    }
    p = suffix + suffix_len + value_len;
    prev_len = static_cast<size_t>(prefix_len) + suffix_len;
  }
  edit.size = static_cast<uint32_t>(p - base);
  if (!located) edit.offset = edit.size;
  edit.new_count = edit.count;
  edit.new_size = edit.size;

  if (value == nullptr) {
    edit.kind = LeafEdit::Kind::kErase;
    if (!edit.found) return edit;
    // entries[pos]'s stored prefix is its common prefix with entries[pos-1]
    // (0 for the first entry), so the successor shares min(that, its own
    // stored prefix) with its new predecessor. The bytes it regains are
    // the head of entries[pos]'s suffix.
    edit.next_prefix_new = std::min(edit.entry_prefix, edit.next_prefix);
    edit.new_count = static_cast<uint16_t>(edit.count - 1);
    edit.new_size = edit.size -
                    (kLeafEntryOverhead + edit.entry_suffix + edit.entry_value) +
                    (edit.next_prefix - edit.next_prefix_new);
    return edit;
  }
  if (edit.found) {
    edit.kind = LeafEdit::Kind::kOverwrite;
    edit.new_size = edit.size - edit.entry_value +
                    static_cast<uint32_t>(value->size());
    return edit;
  }
  edit.kind = LeafEdit::Kind::kInsert;
  if (opts.prefix_compression) {
    edit.key_prefix = static_cast<uint16_t>(match);
    if (edit.has_next) {
      // For sorted keys prev < key < next, the successor shares at least
      // as much with the new key as it did with the old predecessor.
      if (common < edit.next_prefix) {
        return Status::Corruption("keys out of order in leaf");
      }
      edit.next_prefix_new = static_cast<uint16_t>(common);
    }
  } else {
    edit.next_prefix_new = edit.next_prefix;
  }
  if (edit.count == 0xFFFF) {
    return Status::Corruption("too many entries for node format");
  }
  edit.new_count = static_cast<uint16_t>(edit.count + 1);
  edit.new_size = edit.size + kLeafEntryOverhead +
                  static_cast<uint32_t>(key.size() - edit.key_prefix +
                                        value->size()) -
                  (edit.next_prefix_new - edit.next_prefix);
  return edit;
}

void Node::ApplyLeafEdit(const LeafEdit& edit, const Slice& key,
                         const Slice& value, Page* page) {
  char* const base = page->data();
  char* const at = base + edit.offset;
  switch (edit.kind) {
    case LeafEdit::Kind::kInsert: {
      const uint32_t entry_size =
          kLeafEntryOverhead +
          static_cast<uint32_t>(key.size() - edit.key_prefix + value.size());
      if (edit.has_next) {
        // The successor drops the leading suffix bytes the new key now
        // supplies as shared prefix; everything after them shifts right.
        const uint32_t drop = edit.next_prefix_new - edit.next_prefix;
        char* src = at + kLeafEntryOverhead + drop;
        std::memmove(at + entry_size + kLeafEntryOverhead, src,
                     static_cast<size_t>(base + edit.size - src));
        EncodeLeafEntryHeader(at + entry_size, edit.next_prefix_new,
                              static_cast<uint16_t>(edit.next_suffix - drop),
                              edit.next_value);
      }
      const size_t suffix_len = key.size() - edit.key_prefix;
      EncodeLeafEntryHeader(at, edit.key_prefix,
                            static_cast<uint16_t>(suffix_len),
                            static_cast<uint16_t>(value.size()));
      std::memcpy(at + kLeafEntryOverhead, key.data() + edit.key_prefix,
                  suffix_len);
      std::memcpy(at + kLeafEntryOverhead + suffix_len, value.data(),
                  value.size());
      break;
    }
    case LeafEdit::Kind::kOverwrite: {
      char* old_value = at + kLeafEntryOverhead + edit.entry_suffix;
      char* old_end = old_value + edit.entry_value;
      std::memmove(old_value + value.size(), old_end,
                   static_cast<size_t>(base + edit.size - old_end));
      std::memcpy(old_value, value.data(), value.size());
      EncodeFixed16(at + 4, static_cast<uint16_t>(value.size()));
      break;
    }
    case LeafEdit::Kind::kErase: {
      if (!edit.found) return;
      if (edit.has_next) {
        // The successor takes the erased entry's place. The bytes it
        // regains are the head of the erased suffix, already in position
        // right after the header; its own suffix, payload and the rest of
        // the image follow them.
        const uint32_t regain = edit.next_prefix - edit.next_prefix_new;
        char* src = base + edit.next_offset + kLeafEntryOverhead;
        std::memmove(at + kLeafEntryOverhead + regain, src,
                     static_cast<size_t>(base + edit.size - src));
        EncodeLeafEntryHeader(
            at, edit.next_prefix_new,
            static_cast<uint16_t>(edit.next_suffix + regain), edit.next_value);
      }
      break;
    }
  }
  if (edit.new_size < edit.size) {
    std::memset(base + edit.new_size, 0, edit.size - edit.new_size);
  }
  EncodeFixed16(base + 2, edit.new_count);
}

size_t Node::DecodedBytes() const {
  size_t bytes = sizeof(Node) + entries_.capacity() * sizeof(NodeEntry);
  for (const NodeEntry& e : entries_) {
    bytes += e.key.size() + e.value.size();
  }
  return bytes;
}

size_t Node::LowerBound(const Slice& key) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const NodeEntry& e, const Slice& k) { return Slice(e.key) < k; });
  return static_cast<size_t>(it - entries_.begin());
}

size_t Node::UpperBound(const Slice& key) const {
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), key,
      [](const Slice& k, const NodeEntry& e) { return k < Slice(e.key); });
  return static_cast<size_t>(it - entries_.begin());
}

PageId Node::ChildFor(const Slice& key) const {
  // Child i holds keys in [entries[i].key, entries[i+1].key); the leftmost
  // child holds keys below entries[0].key.
  const size_t idx = UpperBound(key);
  if (idx == 0) return aux_;
  return entries_[idx - 1].child;
}

uint32_t Node::SerializedSize(const BTreeOptions& opts) const {
  uint32_t size = kHeaderSize;
  const uint32_t overhead =
      is_leaf_ ? kLeafEntryOverhead : kInternalEntryOverhead;
  const std::string* prev = nullptr;
  for (const NodeEntry& e : entries_) {
    size_t prefix_len = 0;
    if (opts.prefix_compression && prev != nullptr) {
      prefix_len = Slice(*prev).CommonPrefixLength(Slice(e.key));
    }
    size += overhead;
    size += static_cast<uint32_t>(e.key.size() - prefix_len);
    if (is_leaf_) size += static_cast<uint32_t>(e.value.size());
    prev = &e.key;
  }
  return size;
}

bool Node::Fits(uint32_t page_size, const BTreeOptions& opts) const {
  if (opts.max_entries_per_node != 0 &&
      entries_.size() > opts.max_entries_per_node) {
    return false;
  }
  return SerializedSize(opts) <= page_size;
}

Status Node::SerializeTo(Page* page, const BTreeOptions& opts) const {
  if (entries_.size() > 0xFFFF) {
    return Status::Corruption("too many entries for node format");
  }
  if (page->size() < kHeaderSize) {
    return Status::Corruption("node does not fit in page");
  }
  char* p = page->data();
  char* const limit = p + page->size();
  p[0] = static_cast<char>(is_leaf_ ? kLeafTag : kInternalTag);
  p[1] = 0;
  EncodeFixed16(p + 2, static_cast<uint16_t>(entries_.size()));
  EncodeFixed32(p + 4, aux_);
  EncodeFixed32(p + 8, 0);
  p += kHeaderSize;

  const uint32_t overhead =
      is_leaf_ ? kLeafEntryOverhead : kInternalEntryOverhead;
  const std::string* prev = nullptr;
  for (const NodeEntry& e : entries_) {
    size_t prefix_len = 0;
    if (opts.prefix_compression && prev != nullptr) {
      prefix_len = Slice(*prev).CommonPrefixLength(Slice(e.key));
    }
    const size_t suffix_len = e.key.size() - prefix_len;
    const size_t value_len = is_leaf_ ? e.value.size() : 0;
    if (static_cast<size_t>(limit - p) < overhead + suffix_len + value_len) {
      return Status::Corruption("node does not fit in page");
    }
    EncodeFixed16(p, static_cast<uint16_t>(prefix_len));
    EncodeFixed16(p + 2, static_cast<uint16_t>(suffix_len));
    if (is_leaf_) {
      EncodeFixed16(p + 4, static_cast<uint16_t>(value_len));
    } else {
      EncodeFixed32(p + 4, e.child);
    }
    p += overhead;
    std::memcpy(p, e.key.data() + prefix_len, suffix_len);
    p += suffix_len;
    if (is_leaf_) {
      std::memcpy(p, e.value.data(), value_len);
      p += value_len;
    }
    prev = &e.key;
  }
  std::memset(p, 0, static_cast<size_t>(limit - p));
  return Status::OK();
}

std::string Node::DebugString() const {
  std::string out = is_leaf_ ? "leaf[" : "internal[";
  if (!is_leaf_) {
    out += "L=" + std::to_string(aux_) + " ";
  }
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += EscapeBytes(Slice(entries_[i].key));
    if (!is_leaf_) out += "->" + std::to_string(entries_[i].child);
  }
  out += "]";
  return out;
}

}  // namespace uindex

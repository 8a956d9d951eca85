#ifndef UINDEX_BTREE_NODE_H_
#define UINDEX_BTREE_NODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "btree/options.h"
#include "storage/page.h"
#include "util/slice.h"
#include "util/status.h"

namespace uindex {

/// One key/payload pair inside a node (held decompressed in memory).
///
/// For leaf entries `value` is the payload and `child` is unused; for
/// internal entries `child` is the subtree holding keys >= `key` (up to the
/// next entry's key) and `value` is unused.
struct NodeEntry {
  std::string key;
  std::string value;
  PageId child = kInvalidPageId;
};

/// In-memory image of one B-tree node.
///
/// Nodes live on `Page`s in a front-compressed format: entry i stores the
/// length of the prefix it shares with entry i-1 plus the differing suffix
/// ("variable-length, front-compressed keys", paper §3.2.1). `Node` is the
/// parsed, fully decompressed form used to read and mutate a node; it
/// serializes itself back to a page. Whether a node "fits" is decided by its
/// serialized (compressed) size against the page size, so compression
/// directly increases fanout — the effect the paper's storage analysis
/// (§4.2) relies on.
class Node {
 public:
  /// On-page header size in bytes.
  static constexpr uint32_t kHeaderSize = 12;

  Node() = default;

  /// Builds an empty node of the given kind.
  static Node MakeLeaf() {
    Node n;
    n.is_leaf_ = true;
    return n;
  }
  static Node MakeInternal() {
    Node n;
    n.is_leaf_ = false;
    return n;
  }

  /// Parses the node stored in `page`. Fails with Corruption on a malformed
  /// image.
  static Result<Node> Parse(const Page& page);

  /// Outcome of `SearchCompressed`: one descent/lookup step answered
  /// directly from the compressed page image.
  struct CompressedSearch {
    bool is_leaf = false;
    uint16_t count = 0;           ///< Entries in the node.
    PageId aux = kInvalidPageId;  ///< next_leaf (leaf) / leftmost_child.
    size_t lower_bound = 0;  ///< First index whose key is >= the target.
    bool found = false;      ///< entries[lower_bound].key == target.
    std::string value;       ///< Leaf and found: the payload.
    PageId child = kInvalidPageId;  ///< Internal: ChildFor(target).
  };

  /// Searches the node image in `page` for `target` without materializing
  /// any entry: a single left-to-right pass over the front-compressed
  /// entries that tracks only the length of the prefix the target is known
  /// to share with the previous key, so each step compares at most the
  /// entry's stored suffix (cf. the sequential search of prefix B-trees).
  /// The one allocation is the matched payload on an exact leaf hit.
  ///
  /// Exactly equivalent to `Parse` + `LowerBound`/`ChildFor`/payload read
  /// on any image `Parse` accepts (it does not assume the stored prefix
  /// lengths are maximal, only that keys are increasing — the node
  /// invariant). Malformed images fail with Corruption; the scan validates
  /// every entry it passes, and stops validating at the answer just as it
  /// stops decompressing.
  static Result<CompressedSearch> SearchCompressed(const Page& page,
                                                   const Slice& target);

  /// True if `page` holds a leaf image (by its header tag alone; the
  /// entries are not validated).
  static bool IsLeafImage(const Page& page);

  /// A single-key edit of a leaf image, located and sized by
  /// `PlanLeafEdit` and carried out in place by `ApplyLeafEdit`.
  ///
  /// Front compression makes a one-key change local: only the edited entry
  /// and its successor (whose predecessor changes) are re-encoded, so the
  /// page changes by a `memmove` of the tail instead of a parse and a full
  /// re-serialization (the prefix B-tree of Bayer & Unterauer mutates its
  /// coded pages the same way).
  struct LeafEdit {
    enum class Kind : uint8_t {
      kInsert,     ///< `key` is absent: a new entry at `pos`.
      kOverwrite,  ///< `key` is entries[pos]: replace its payload.
      kErase,      ///< Remove entries[pos] (a no-op plan when !found).
    };
    Kind kind = Kind::kInsert;
    bool found = false;      ///< entries[pos].key == key.
    size_t pos = 0;          ///< LowerBound(key).
    uint16_t count = 0;      ///< Entries before the edit.
    uint16_t new_count = 0;  ///< Entries after it.
    uint32_t size = 0;       ///< `SerializedSize` before the edit.
    uint32_t new_size = 0;   ///< `SerializedSize` after it.

    // Layout of the change, for ApplyLeafEdit.
    uint32_t offset = 0;        // Byte offset of entries[pos] (or the end).
    uint16_t key_prefix = 0;    // kInsert: the new entry's stored prefix.
    uint16_t entry_prefix = 0;  // entries[pos]'s stored lengths.
    uint16_t entry_suffix = 0;
    uint16_t entry_value = 0;
    // The entry re-encoded against a new predecessor — entries[pos] for an
    // insert, entries[pos + 1] for an erase — when there is one.
    bool has_next = false;
    uint32_t next_offset = 0;
    uint16_t next_prefix = 0;  // Stored prefix before the edit...
    uint16_t next_prefix_new = 0;  // ...and after it.
    uint16_t next_suffix = 0;
    uint16_t next_value = 0;
  };

  /// Plans a one-key edit of the leaf image in `page` in a single pass
  /// over its compressed entries, materializing nothing: with `value`
  /// null, erasing `key`; otherwise inserting `key` → `*value`, or
  /// overwriting the payload when `key` is present. The pass locates the
  /// key exactly as `SearchCompressed` does and validates every entry as
  /// `Parse` does; a malformed image (or a non-leaf one) fails with
  /// Corruption. The page is never written.
  ///
  /// On a canonical image (as `SerializeTo` writes it under the same
  /// `opts`), `new_size` equals the `SerializedSize` of the edited node and
  /// `ApplyLeafEdit` produces exactly the bytes `Parse` → edit →
  /// `SerializeTo` would.
  static Result<LeafEdit> PlanLeafEdit(const Page& page, const Slice& key,
                                       const Slice* value,
                                       const BTreeOptions& opts);

  /// Applies `edit` — planned on an image byte-identical to `page`'s — in
  /// place: moves the tail, writes the edited entry and the successor's
  /// header, updates the count and zeroes bytes freed by a shrink. The
  /// caller has checked that `edit.new_size` fits the page. `key` and
  /// `value` are the ones planned with (`value` unused by an erase).
  static void ApplyLeafEdit(const LeafEdit& edit, const Slice& key,
                            const Slice& value, Page* page);

  bool is_leaf() const { return is_leaf_; }

  /// Leaf only: id of the next leaf in key order (kInvalidPageId at end).
  PageId next_leaf() const { return aux_; }
  void set_next_leaf(PageId id) { aux_ = id; }

  /// Internal only: child holding keys strictly below entries[0].key.
  PageId leftmost_child() const { return aux_; }
  void set_leftmost_child(PageId id) { aux_ = id; }

  const std::vector<NodeEntry>& entries() const { return entries_; }
  std::vector<NodeEntry>& entries() { return entries_; }
  size_t entry_count() const { return entries_.size(); }

  /// Index of the first entry whose key is >= `key` (== entry_count() if
  /// none). Keys within a node are strictly increasing.
  size_t LowerBound(const Slice& key) const;

  /// Index of the first entry whose key is > `key`.
  size_t UpperBound(const Slice& key) const;

  /// Internal only: the child to descend into when searching for `key`.
  PageId ChildFor(const Slice& key) const;

  /// Serialized size in bytes under `opts` (header + compressed entries).
  uint32_t SerializedSize(const BTreeOptions& opts) const;

  /// Approximate heap footprint of the decompressed form: the budget unit
  /// of the decoded-node cache (btree/node_cache.h).
  size_t DecodedBytes() const;

  /// True if the node fits in a page of `page_size` bytes under `opts`
  /// (including the optional max-entries cap).
  bool Fits(uint32_t page_size, const BTreeOptions& opts) const;

  /// Writes the node image into `page` in one pass, zeroing the unused
  /// tail. The caller must have checked `Fits`; returns Corruption if it
  /// does not fit after all, leaving the page contents unspecified.
  Status SerializeTo(Page* page, const BTreeOptions& opts) const;

  /// Renders keys/children for debugging.
  std::string DebugString() const;

 private:
  bool is_leaf_ = true;
  PageId aux_ = kInvalidPageId;  // next_leaf (leaf) or leftmost_child.
  std::vector<NodeEntry> entries_;
};

}  // namespace uindex

#endif  // UINDEX_BTREE_NODE_H_

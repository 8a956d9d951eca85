#ifndef UINDEX_BTREE_BTREE_H_
#define UINDEX_BTREE_BTREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "btree/node.h"
#include "btree/node_cache.h"
#include "btree/options.h"
#include "storage/buffer_manager.h"
#include "util/slice.h"
#include "util/status.h"

namespace uindex {

/// A single-rooted B+-tree over a `BufferManager`, with variable-length,
/// front-compressed keys.
///
/// This is the substrate of the U-index (paper §3.2): "the index is built
/// with a B-tree with variable-length, front-compressed keys". It also backs
/// the H-tree and path/nested-index baselines. Keys are unique byte strings
/// ordered by `memcmp`; leaf entries carry an opaque payload. Every node
/// access for reads and mutations goes through the buffer manager, so page
/// reads are accounted exactly as in the paper's experiments.
///
/// Thread-compatibility: a `BTree` is not internally synchronized; callers
/// serialize access. Iterators are invalidated by any mutation.
class BTree {
 public:
  /// Creates an empty tree (allocates a root leaf page).
  BTree(BufferManager* buffers, BTreeOptions options = BTreeOptions());

  /// Attaches to an existing tree on `buffers`'s pager — e.g. one restored
  /// from a `PagerSnapshot` — whose root page id and entry count were
  /// persisted by the caller. `options` must match the ones the tree was
  /// built with (compression affects the on-page format's size budget).
  BTree(BufferManager* buffers, PageId root, uint64_t size,
        BTreeOptions options);

  /// Attaches as a read-only *view* sharing `borrowed_cache` (may be null)
  /// instead of owning a decoded-node cache — the MVCC snapshot path:
  /// per-query `UIndex` views wrap the published root/size of a live tree
  /// and borrow its cache, so snapshot reads keep hitting warm decoded
  /// nodes. The borrowed cache must outlive the view (the database holds
  /// the shared latch over both for the view's whole life).
  BTree(BufferManager* buffers, PageId root, uint64_t size,
        BTreeOptions options, NodeCache* borrowed_cache);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts a new key. Fails with AlreadyExists if the key is present.
  Status Insert(const Slice& key, const Slice& value);

  /// Inserts a strictly-increasing run of new keys, descending once per
  /// target leaf instead of once per key — the batch B-tree update of
  /// Tsur/Gudes ([4] in the paper) that §3.5 leans on: because entries for
  /// one object cluster, its index updates hit few leaves. Fails with
  /// InvalidArgument on an unsorted batch and AlreadyExists on a
  /// collision; earlier keys of the batch stay inserted in that case.
  Status InsertBatch(
      const std::vector<std::pair<std::string, std::string>>& entries);

  /// Inserts or overwrites.
  Status Put(const Slice& key, const Slice& value);

  /// Removes a key. Fails with NotFound if absent.
  Status Delete(const Slice& key);

  /// Frees every page of the tree and resets it to an empty root leaf.
  Status Clear();

  /// Returns the payload stored under `key`, or NotFound.
  Result<std::string> Get(const Slice& key) const;

  bool Contains(const Slice& key) const;

  /// Number of live entries.
  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  PageId root() const { return root_; }
  const BTreeOptions& options() const { return options_; }
  BufferManager* buffers() const { return buffers_; }

  /// Loads and parses a node, charging a page read. Exposed so that the
  /// U-index "parallel" retrieval algorithm (paper Algorithm 1) can drive
  /// its own descent over internal nodes. Always pays a full `Node::Parse`;
  /// read paths that tolerate a shared immutable node should prefer
  /// `FetchNode`.
  Result<Node> LoadNode(PageId id) const;

  /// Like `LoadNode` but served through the decoded-node cache: charges the
  /// page read identically, then returns the cached decoded image when its
  /// page version is still current, parsing (and caching) only on a miss.
  /// The returned node is immutable and may be shared by concurrent
  /// readers; it stays valid after tree mutations (it just goes stale).
  Result<std::shared_ptr<const Node>> FetchNode(PageId id) const;

  /// The tree's decoded-node cache — owned or borrowed — or null when
  /// disabled (`BTreeOptions::node_cache_bytes == 0` or
  /// UINDEX_NODE_CACHE=off).
  NodeCache* node_cache() const { return cache(); }

  /// Background warm hook for the prefetch scheduler (storage/prefetch.h):
  /// decodes page `id` into the decoded-node cache under the usual
  /// version-before-bytes protocol, charging nothing — the demand fetch
  /// that later consumes the page gets the parse for free. Tolerates a
  /// freed/invalid id and a disabled cache (both are no-ops); thread-safe
  /// against concurrent readers (writers are excluded by the scheduler's
  /// drain contract).
  void WarmNode(PageId id) const;

  /// Uncounted lookup of a decoded node that is already in memory: served
  /// from the decoded-node cache, or parsed from the pager's bytes when the
  /// prefetch scheduler has the page staged. Returns null when the page is
  /// not known to be in memory — callers must NOT treat that as an error,
  /// and must NOT use this on a demand path (it would bypass page-read
  /// accounting); it exists for iterator readahead to walk discovery
  /// internal nodes without charging reads the demand scan never performs.
  std::shared_ptr<const Node> TryGetWarmNode(PageId id) const;

  /// Forward scanner over leaf entries in key order. Obtain via
  /// `NewIterator`; invalidated by tree mutation.
  ///
  /// While a `PrefetchScheduler` is attached to the tree's buffer manager
  /// (and `BTreeOptions::readahead_leaves > 0`), the iterator keeps a
  /// window of upcoming leaves in background reads ahead of its position.
  /// The leaf ids come from the internal nodes recorded during the seek
  /// descent — a parent names many consecutive leaves, so readahead runs a
  /// full window deep instead of the one-step lookahead a `next_leaf`
  /// pointer would allow. Crossing into the next parent's subtree requires
  /// that parent's sibling, which the demand scan never reads (the leaf
  /// chain crosses on its own): readahead fetches such discovery internals
  /// in the background too, reads them via `TryGetWarmNode` (uncounted),
  /// and stalls — never blocks — while one is still in flight. Those
  /// discovery reads surface as `prefetch_wasted` by design; `pages_read`
  /// stays byte-identical with readahead on or off.
  class Iterator {
   public:
    /// Positions at the first entry (invalid if the tree is empty).
    void SeekToFirst();

    /// Positions at the first entry with key >= `target`.
    void Seek(const Slice& target);

    bool Valid() const { return valid_; }

    /// OK while positioned or cleanly exhausted; the `FetchNode` error
    /// (Corruption/NotFound) that stopped the scan otherwise. Callers that
    /// treat `!Valid()` as end-of-scan must check this — a failed node
    /// load also clears `Valid()`.
    const Status& status() const { return status_; }

    /// Advances to the next entry in key order, following the leaf chain.
    void Next();

    Slice key() const { return Slice(node_->entries()[index_].key); }
    Slice value() const { return Slice(node_->entries()[index_].value); }

    /// Page id of the leaf currently under the iterator.
    PageId page_id() const { return page_id_; }

   private:
    friend class BTree;
    explicit Iterator(const BTree* tree) : tree_(tree) {}

    void LoadLeaf(PageId id);
    void SkipEmptyLeaves();

    // One internal level of the readahead enumerator's position. `depth`
    // is the level's distance from the root; children of the deepest
    // recorded level are leaves.
    struct RaStep {
      std::shared_ptr<const Node> node;
      size_t next_child;  // Next child index to enumerate (0 = leftmost).
      size_t depth;
    };

    // Starts readahead from the internal nodes visited by a seek descent
    // (each paired with the child index the descent took); no-op when no
    // scheduler is attached or the window is 0.
    void ArmReadahead(std::vector<RaStep> path);
    // Issues background leaf reads until the window is full, the
    // enumerator stalls on a discovery internal, or the tree is exhausted.
    void TopUpReadahead();
    // Next upcoming leaf id in chain order; kInvalidPageId when stalled
    // (discovery read in flight) or done.
    PageId NextReadaheadLeaf();

    const BTree* tree_;
    PageId page_id_ = kInvalidPageId;
    std::shared_ptr<const Node> node_;
    size_t index_ = 0;
    bool valid_ = false;
    Status status_;

    // Readahead state; dead weight unless ArmReadahead enables it.
    bool ra_active_ = false;
    std::vector<RaStep> ra_path_;
    size_t ra_leaf_parent_depth_ = 0;
    PageId ra_stall_ = kInvalidPageId;  // Discovery internal in flight.
    size_t ra_stall_depth_ = 0;
    size_t ra_issued_ = 0;    // Leaf ids handed to the scheduler.
    size_t ra_consumed_ = 0;  // Leaves the scan moved onto since arming.
  };

  Iterator NewIterator() const { return Iterator(this); }

  /// Structure counters gathered by a full (uncounted) walk.
  struct TreeStats {
    uint64_t internal_nodes = 0;
    uint64_t leaf_nodes = 0;
    uint64_t entries = 0;
    uint32_t height = 0;  ///< 1 for a lone root leaf.
    uint64_t total_bytes = 0;  ///< Sum of serialized node sizes.
  };

  /// Walks the whole tree without touching read counters.
  Result<TreeStats> ComputeStats() const;

  /// Exhaustively checks structural invariants (key order, separator
  /// bounds, node sizes, uniform leaf depth, leaf-chain consistency, entry
  /// count). Intended for tests; does not touch read counters.
  Status Validate() const;

 private:
  // One step of a root-to-leaf descent: the node visited and which child
  // pointer was taken (0 = leftmost, c = entries[c-1].child).
  struct PathStep {
    PageId page_id;
    Node node;
    size_t child_index;
  };

  // One internal level of a compressed descent: the page visited and which
  // child pointer was taken (as in PathStep).
  struct RouteStep {
    PageId page_id;
    size_t child_index;
  };

  Result<Node> LoadNodeUncounted(PageId id) const;
  Status WriteNode(PageId id, const Node& node);

  // Descends to the leaf that would hold `key`, filling `path` with the
  // internal steps (counted reads, every level fully parsed) — the batch
  // insert's descent. `upper_bound` receives the tightest separator
  // bounding the leaf's key range from above (empty = unbounded).
  Status DescendToLeaf(const Slice& key, std::vector<PathStep>* path,
                       PageId* leaf_id, Node* leaf,
                       std::string* upper_bound) const;

  // The single-key write path of Insert, Put (`overwrite`) and Delete
  // (`value` null). Descends with one counted Fetch and one
  // SearchCompressed per level, recording only the route, then plans the
  // edit on the leaf's compressed image. When the edited leaf fits (and a
  // delete leaves it above the underflow threshold) the image is edited in
  // place under one FetchForWrite; otherwise the route's pages are parsed
  // uncounted and the edit goes through StoreWithSplits /
  // RebalanceAfterDelete.
  Status WriteKey(const Slice& key, const Slice* value, bool overwrite);

  // Writes back `node` (which may violate the size limit), splitting and
  // propagating up through `path` as needed.
  Status StoreWithSplits(std::vector<PathStep> path, PageId node_id,
                         Node node);

  // Rebalances after a deletion made the node at the end of the implied
  // path underfull.
  Status RebalanceAfterDelete(std::vector<PathStep> path, PageId node_id,
                              Node node);

  // Whether a non-root node of `entry_count` entries and `serialized_size`
  // bytes is below the rebalancing threshold.
  bool IsUnderfull(size_t entry_count, uint32_t serialized_size) const;

  Status ValidateSubtree(PageId id, const std::string* lo,
                         const std::string* hi, uint32_t depth,
                         uint32_t leaf_depth, uint64_t* entries,
                         std::vector<PageId>* leaves_in_order) const;

  Status ComputeStatsSubtree(PageId id, uint32_t depth, TreeStats* stats,
                             uint32_t* leaf_depth) const;

  // Owned cache, or the borrowed one (snapshot views), or null.
  NodeCache* cache() const {
    return borrowed_cache_ != nullptr ? borrowed_cache_ : node_cache_.get();
  }

  BufferManager* buffers_;
  BTreeOptions options_;
  PageId root_;
  uint64_t size_ = 0;
  // Decoded-node cache shared by read paths; null when disabled. Mutations
  // need no hooks into it: invalidation rides on the buffer manager's page
  // versions (see btree/node_cache.h). Snapshot views borrow the live
  // tree's cache instead of owning one.
  std::unique_ptr<NodeCache> node_cache_;
  NodeCache* borrowed_cache_ = nullptr;
};

}  // namespace uindex

#endif  // UINDEX_BTREE_BTREE_H_

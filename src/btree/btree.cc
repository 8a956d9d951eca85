#include "btree/btree.h"

#include <cassert>
#include <cstring>

#include "storage/prefetch.h"
#include "util/hex.h"

namespace uindex {

namespace {

// Finds a split position for an over-full node: the smallest index at which
// the left half reaches half of the node's (uncompressed) payload. Returns
// an index in [1, n-1]; the caller interprets it per node kind.
size_t FindSplitIndex(const Node& node) {
  const auto& entries = node.entries();
  assert(entries.size() >= 2);
  size_t total = 0;
  for (const NodeEntry& e : entries) total += e.key.size() + e.value.size();
  size_t acc = 0;
  for (size_t i = 0; i < entries.size() - 1; ++i) {
    acc += entries[i].key.size() + entries[i].value.size();
    if (acc * 2 >= total) return i + 1;
  }
  return entries.size() - 1;
}

}  // namespace

BTree::BTree(BufferManager* buffers, BTreeOptions options)
    : buffers_(buffers), options_(options) {
  if (options_.node_cache_bytes > 0 && NodeCache::EnvEnabled()) {
    node_cache_ =
        std::make_unique<NodeCache>(buffers_, options_.node_cache_bytes);
  }
  root_ = buffers_->Allocate();
  Node root = Node::MakeLeaf();
  Status s = WriteNode(root_, root);
  assert(s.ok());
  (void)s;
}

BTree::BTree(BufferManager* buffers, PageId root, uint64_t size,
             BTreeOptions options)
    : buffers_(buffers), options_(options), root_(root), size_(size) {
  assert(buffers_->pager()->IsLive(root_) && "attached root must be live");
  if (options_.node_cache_bytes > 0 && NodeCache::EnvEnabled()) {
    node_cache_ =
        std::make_unique<NodeCache>(buffers_, options_.node_cache_bytes);
  }
}

BTree::BTree(BufferManager* buffers, PageId root, uint64_t size,
             BTreeOptions options, NodeCache* borrowed_cache)
    : buffers_(buffers), options_(options), root_(root), size_(size),
      borrowed_cache_(borrowed_cache) {
  assert(buffers_->pager()->IsLive(root_) && "attached root must be live");
}

Result<Node> BTree::LoadNode(PageId id) const {
  PageRef page = buffers_->Fetch(id);
  if (page == nullptr) {
    return Status::Corruption("missing page " + std::to_string(id));
  }
  Result<Node> node = Node::Parse(*page);
  if (node.ok()) buffers_->RecordNodeParse(node.value().DecodedBytes());
  return node;
}

Result<std::shared_ptr<const Node>> BTree::FetchNode(PageId id) const {
  if (cache() == nullptr) {
    Result<Node> r = LoadNode(id);
    if (!r.ok()) return r.status();
    return std::make_shared<const Node>(std::move(r).value());
  }
  // Read the version BEFORE the page bytes: a write that lands in between
  // bumps it, so the entry we might insert below is already stale and the
  // next Lookup drops it instead of serving it.
  const BufferManager::PageVersion version = buffers_->page_version(id);
  // Always charge the page read first — pages_read must be byte-identical
  // whether the decoded image then comes from the cache or a fresh parse.
  PageRef page = buffers_->Fetch(id);
  if (page == nullptr) {
    return Status::Corruption("missing page " + std::to_string(id));
  }
  if (page.versioned()) {
    // An MVCC chain revision: these bytes are not the base page's, so the
    // decoded-node cache (keyed by base-page versions) must neither serve
    // nor learn them. Parse directly; the read was charged identically.
    Result<Node> r = Node::Parse(*page);
    if (!r.ok()) return r.status();
    auto node = std::make_shared<const Node>(std::move(r).value());
    buffers_->RecordNodeParse(node->DecodedBytes());
    return node;
  }
  if (std::shared_ptr<const Node> cached = cache()->Lookup(id)) {
    buffers_->RecordNodeCacheHit();
    return cached;
  }
  Result<Node> r = Node::Parse(*page);
  if (!r.ok()) return r.status();
  auto node = std::make_shared<const Node>(std::move(r).value());
  buffers_->RecordNodeParse(node->DecodedBytes());
  cache()->Insert(id, version, node);
  return node;
}

void BTree::WarmNode(PageId id) const {
  if (cache() == nullptr || !cache()->enabled()) return;
  // Version BEFORE bytes, exactly like FetchNode: a write landing between
  // the two makes the inserted entry stale and Lookup drops it. This also
  // covers reclamation's fold-to-base (storage/mvcc.h): the copy is
  // bracketed by two bumps, so a parse spanning it is keyed with the
  // mid-window version and can never validate.
  const BufferManager::PageVersion version = buffers_->page_version(id);
  PageRef page = buffers_->FetchUncounted(id);
  if (page == nullptr) return;  // Freed while queued; nothing to warm.
  // A chain revision's bytes are not the base page's: inserting them under
  // the base version would serve revision content to base-byte readers.
  if (page.versioned()) return;
  Result<Node> r = Node::Parse(*page);
  if (!r.ok()) return;  // The demand fetch will surface the corruption.
  cache()->Insert(id, version,
                  std::make_shared<const Node>(std::move(r).value()));
}

std::shared_ptr<const Node> BTree::TryGetWarmNode(PageId id) const {
  if (cache() != nullptr) {
    if (std::shared_ptr<const Node> cached = cache()->Lookup(id)) {
      return cached;
    }
  }
  PrefetchScheduler* prefetcher = buffers_->prefetcher();
  if (prefetcher == nullptr || !prefetcher->IsStaged(id)) return nullptr;
  Result<Node> r = LoadNodeUncounted(id);
  if (!r.ok()) return nullptr;
  return std::make_shared<const Node>(std::move(r).value());
}

Result<Node> BTree::LoadNodeUncounted(PageId id) const {
  PageRef page = buffers_->FetchUncounted(id);
  if (page == nullptr) {
    return Status::Corruption("missing page " + std::to_string(id));
  }
  return Node::Parse(*page);
}

Status BTree::WriteNode(PageId id, const Node& node) {
  PageRef page = buffers_->FetchForWrite(id);
  if (page == nullptr) {
    return Status::Corruption("missing page " + std::to_string(id));
  }
  return node.SerializeTo(page.get(), options_);
}

Status BTree::DescendToLeaf(const Slice& key, std::vector<PathStep>* path,
                            PageId* leaf_id, Node* leaf,
                            std::string* upper_bound) const {
  upper_bound->clear();
  PageId id = root_;
  for (;;) {
    Result<Node> r = LoadNode(id);
    if (!r.ok()) return r.status();
    Node node = std::move(r).value();
    if (node.is_leaf()) {
      *leaf_id = id;
      *leaf = std::move(node);
      return Status::OK();
    }
    const size_t child_index = node.UpperBound(key);
    const PageId child = child_index == 0
                             ? node.leftmost_child()
                             : node.entries()[child_index - 1].child;
    // Deeper right-hand separators are always tighter than shallower ones.
    if (child_index < node.entry_count()) {
      *upper_bound = node.entries()[child_index].key;
    }
    path->push_back(PathStep{id, std::move(node), child_index});
    id = child;
  }
}

Result<std::string> BTree::Get(const Slice& key) const {
  // Cold point lookups are the worst case for front compression: a classic
  // descent pays a full Node::Parse (every entry decompressed into heap
  // strings) per level just to follow one child pointer. Answer each step
  // from the compressed page image instead — a cached decoded node when one
  // is current, otherwise SearchCompressed, which materializes nothing but
  // the matched payload. Page reads are charged exactly as before.
  PageId id = root_;
  for (;;) {
    PageRef page = buffers_->Fetch(id);
    if (page == nullptr) {
      return Status::Corruption("missing page " + std::to_string(id));
    }
    // A versioned ref's bytes are not the base page's — skip the cache
    // (see FetchNode) and search the revision's compressed image below.
    if (!page.versioned() && cache() != nullptr) {
      if (std::shared_ptr<const Node> cached = cache()->Lookup(id)) {
        buffers_->RecordNodeCacheHit();
        if (cached->is_leaf()) {
          const size_t pos = cached->LowerBound(key);
          if (pos < cached->entry_count() &&
              Slice(cached->entries()[pos].key) == key) {
            return cached->entries()[pos].value;
          }
          return Status::NotFound("key " + EscapeBytes(key));
        }
        id = cached->ChildFor(key);
        continue;
      }
    }
    Result<Node::CompressedSearch> r = Node::SearchCompressed(*page, key);
    if (!r.ok()) return r.status();
    Node::CompressedSearch& found = r.value();
    if (found.is_leaf) {
      if (found.found) return std::move(found.value);
      return Status::NotFound("key " + EscapeBytes(key));
    }
    id = found.child;
  }
}

bool BTree::Contains(const Slice& key) const { return Get(key).ok(); }

Status BTree::Insert(const Slice& key, const Slice& value) {
  return WriteKey(key, &value, /*overwrite=*/false);
}

Status BTree::Put(const Slice& key, const Slice& value) {
  return WriteKey(key, &value, /*overwrite=*/true);
}

Status BTree::Delete(const Slice& key) {
  return WriteKey(key, nullptr, /*overwrite=*/false);
}

Status BTree::WriteKey(const Slice& key, const Slice* value, bool overwrite) {
  std::vector<RouteStep> route;
  PageId id = root_;
  PageRef leaf;
  for (;;) {
    leaf = buffers_->Fetch(id);
    if (leaf == nullptr) {
      return Status::Corruption("missing page " + std::to_string(id));
    }
    if (Node::IsLeafImage(*leaf)) break;
    Result<Node::CompressedSearch> r = Node::SearchCompressed(*leaf, key);
    if (!r.ok()) return r.status();
    // UpperBound(key): an equal separator routes right.
    route.push_back(
        RouteStep{id, r.value().lower_bound + (r.value().found ? 1 : 0)});
    id = r.value().child;
  }

  Result<Node::LeafEdit> planned =
      Node::PlanLeafEdit(*leaf, key, value, options_);
  if (!planned.ok()) return planned.status();
  const Node::LeafEdit& edit = planned.value();
  if (value == nullptr && !edit.found) {
    return Status::NotFound("key " + EscapeBytes(key));
  }
  if (value != nullptr && edit.found && !overwrite) {
    return Status::AlreadyExists("key " + EscapeBytes(key));
  }
  if (edit.kind == Node::LeafEdit::Kind::kInsert) ++size_;
  if (edit.kind == Node::LeafEdit::Kind::kErase) --size_;

  bool in_place = edit.new_size <= buffers_->page_size() &&
                  (options_.max_entries_per_node == 0 ||
                   edit.new_count <= options_.max_entries_per_node);
  if (edit.kind == Node::LeafEdit::Kind::kErase && !route.empty()) {
    in_place = in_place && !IsUnderfull(edit.new_count, edit.new_size);
  }
  if (in_place) {
    PageRef page = buffers_->FetchForWrite(id);
    if (page == nullptr) {
      return Status::Corruption("missing page " + std::to_string(id));
    }
    // Legacy writes hit the very bytes planned on; an MVCC CoW copies the
    // newest revision, which is what the writer's own Fetch resolved.
    assert(std::memcmp(page->data(), leaf->data(), page->size()) == 0);
    Node::ApplyLeafEdit(edit, key, value != nullptr ? *value : Slice(),
                        page.get());
    return Status::OK();
  }

  // Structural change: parse the pages already fetched, without charging
  // them again, and run the node-level split / rebalance.
  Result<Node> parsed = Node::Parse(*leaf);
  leaf = PageRef();
  if (!parsed.ok()) return parsed.status();
  Node node = std::move(parsed).value();
  buffers_->RecordNodeParse(node.DecodedBytes());
  std::vector<PathStep> path;
  path.reserve(route.size());
  for (const RouteStep& step : route) {
    Result<Node> r = LoadNodeUncounted(step.page_id);
    if (!r.ok()) return r.status();
    buffers_->RecordNodeParse(r.value().DecodedBytes());
    path.push_back(
        PathStep{step.page_id, std::move(r).value(), step.child_index});
  }
  auto& entries = node.entries();
  const auto at = entries.begin() + static_cast<ptrdiff_t>(edit.pos);
  switch (edit.kind) {
    case Node::LeafEdit::Kind::kInsert: {
      NodeEntry entry;
      entry.key = key.ToString();
      entry.value = value->ToString();
      entries.insert(at, std::move(entry));
      break;
    }
    case Node::LeafEdit::Kind::kOverwrite:
      at->value = value->ToString();
      break;
    case Node::LeafEdit::Kind::kErase:
      entries.erase(at);
      return RebalanceAfterDelete(std::move(path), id, std::move(node));
  }
  return StoreWithSplits(std::move(path), id, std::move(node));
}

Status BTree::InsertBatch(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    if (!(Slice(entries[i - 1].first) < Slice(entries[i].first))) {
      return Status::InvalidArgument(
          "batch keys must be strictly increasing");
    }
  }
  size_t i = 0;
  while (i < entries.size()) {
    std::vector<PathStep> path;
    PageId leaf_id = kInvalidPageId;
    Node leaf;
    std::string upper_bound;
    UINDEX_RETURN_IF_ERROR(DescendToLeaf(Slice(entries[i].first), &path,
                                         &leaf_id, &leaf, &upper_bound));
    // Drain every batch key routed to this leaf in one pass.
    size_t inserted = 0;
    while (i < entries.size() &&
           (upper_bound.empty() ||
            Slice(entries[i].first) < Slice(upper_bound))) {
      const Slice key(entries[i].first);
      const size_t pos = leaf.LowerBound(key);
      if (pos < leaf.entry_count() &&
          Slice(leaf.entries()[pos].key) == key) {
        // Persist what was added so far, then report the collision.
        size_ += inserted;
        UINDEX_RETURN_IF_ERROR(
            StoreWithSplits(std::move(path), leaf_id, std::move(leaf)));
        return Status::AlreadyExists("key " + EscapeBytes(key));
      }
      NodeEntry entry;
      entry.key = entries[i].first;
      entry.value = entries[i].second;
      leaf.entries().insert(
          leaf.entries().begin() + static_cast<ptrdiff_t>(pos),
          std::move(entry));
      ++inserted;
      ++i;
    }
    size_ += inserted;
    UINDEX_RETURN_IF_ERROR(
        StoreWithSplits(std::move(path), leaf_id, std::move(leaf)));
  }
  return Status::OK();
}

namespace {

// Splits `node` (oversized) into itself (left half) plus a new right
// sibling, returning the promoted separator. Leaf chaining is fixed by the
// caller once the right sibling's page id is known.
std::string SplitOnce(Node* node, Node* right) {
  const size_t split = FindSplitIndex(*node);
  *right = node->is_leaf() ? Node::MakeLeaf() : Node::MakeInternal();
  std::string separator;
  auto& entries = node->entries();
  if (node->is_leaf()) {
    separator = entries[split].key;
    right->entries().assign(
        std::make_move_iterator(entries.begin() +
                                static_cast<ptrdiff_t>(split)),
        std::make_move_iterator(entries.end()));
    entries.erase(entries.begin() + static_cast<ptrdiff_t>(split),
                  entries.end());
  } else {
    // The separator entry moves up; its child seeds the right node.
    separator = entries[split].key;
    right->set_leftmost_child(entries[split].child);
    right->entries().assign(
        std::make_move_iterator(entries.begin() +
                                static_cast<ptrdiff_t>(split) + 1),
        std::make_move_iterator(entries.end()));
    entries.erase(entries.begin() + static_cast<ptrdiff_t>(split),
                  entries.end());
  }
  return separator;
}

}  // namespace

Status BTree::StoreWithSplits(std::vector<PathStep> path, PageId node_id,
                              Node node) {
  for (;;) {
    if (node.Fits(buffers_->page_size(), options_)) {
      UINDEX_RETURN_IF_ERROR(WriteNode(node_id, node));
      return Status::OK();
    }

    // Split into however many pieces fit (batch inserts can overfill a
    // node by more than 2x). pieces[0] stays on node_id; seps[i]
    // separates pieces[i] and pieces[i+1].
    std::vector<Node> pieces;
    std::vector<std::string> seps;
    pieces.push_back(std::move(node));
    for (size_t idx = 0; idx < pieces.size(); ++idx) {
      while (!pieces[idx].Fits(buffers_->page_size(), options_)) {
        if (pieces[idx].entry_count() < 2) {
          return Status::InvalidArgument(
              "entry too large for page size " +
              std::to_string(buffers_->page_size()));
        }
        Node right;
        std::string sep = SplitOnce(&pieces[idx], &right);
        pieces.insert(pieces.begin() + static_cast<ptrdiff_t>(idx) + 1,
                      std::move(right));
        seps.insert(seps.begin() + static_cast<ptrdiff_t>(idx),
                    std::move(sep));
      }
    }

    // Allocate pages for the new pieces and restore the leaf chain.
    std::vector<PageId> ids(pieces.size());
    ids[0] = node_id;
    for (size_t k = 1; k < pieces.size(); ++k) ids[k] = buffers_->Allocate();
    if (pieces[0].is_leaf()) {
      const PageId after = pieces[0].next_leaf();
      for (size_t k = 0; k + 1 < pieces.size(); ++k) {
        pieces[k].set_next_leaf(ids[k + 1]);
      }
      pieces.back().set_next_leaf(after);
    }
    for (size_t k = 0; k < pieces.size(); ++k) {
      UINDEX_RETURN_IF_ERROR(WriteNode(ids[k], pieces[k]));
    }

    if (path.empty()) {
      // Splitting the root: grow the tree by one level.
      Node new_root = Node::MakeInternal();
      new_root.set_leftmost_child(node_id);
      for (size_t k = 0; k < seps.size(); ++k) {
        NodeEntry up;
        up.key = std::move(seps[k]);
        up.child = ids[k + 1];
        new_root.entries().push_back(std::move(up));
      }
      const PageId new_root_id = buffers_->Allocate();
      root_ = new_root_id;
      // The new root itself can overflow for very wide splits; recurse
      // with an empty path so it splits again if needed.
      return StoreWithSplits({}, new_root_id, std::move(new_root));
    }

    PathStep parent = std::move(path.back());
    path.pop_back();
    for (size_t k = 0; k < seps.size(); ++k) {
      NodeEntry up;
      up.key = std::move(seps[k]);
      up.child = ids[k + 1];
      parent.node.entries().insert(
          parent.node.entries().begin() +
              static_cast<ptrdiff_t>(parent.child_index + k),
          std::move(up));
    }
    node_id = parent.page_id;
    node = std::move(parent.node);
  }
}

bool BTree::IsUnderfull(size_t entry_count, uint32_t serialized_size) const {
  if (entry_count == 0) return true;
  if (options_.max_entries_per_node != 0) {
    return entry_count * options_.underflow_divisor <
           options_.max_entries_per_node;
  }
  return serialized_size * options_.underflow_divisor < buffers_->page_size();
}

Status BTree::RebalanceAfterDelete(std::vector<PathStep> path, PageId node_id,
                                   Node node) {
  for (;;) {
    if (path.empty()) {
      // At the root. Collapse empty internal roots down onto their only
      // child; an empty leaf root just means an empty tree.
      UINDEX_RETURN_IF_ERROR(WriteNode(node_id, node));
      while (node_id == root_ && !node.is_leaf() && node.entry_count() == 0) {
        const PageId only_child = node.leftmost_child();
        buffers_->Free(node_id);
        root_ = only_child;
        node_id = only_child;
        Result<Node> r = LoadNodeUncounted(node_id);
        if (!r.ok()) return r.status();
        node = std::move(r).value();
      }
      return Status::OK();
    }
    if (!IsUnderfull(node.entry_count(), node.SerializedSize(options_))) {
      return WriteNode(node_id, node);
    }

    PathStep parent = std::move(path.back());
    path.pop_back();
    Node& pnode = parent.node;
    const size_t my_index = parent.child_index;
    const size_t child_count = pnode.entry_count() + 1;

    auto child_at = [&pnode](size_t c) -> PageId {
      return c == 0 ? pnode.leftmost_child() : pnode.entries()[c - 1].child;
    };

    // Pick the pair (left_index, left_index + 1) to merge or borrow across;
    // prefer our left neighbour, else our right.
    size_t left_index;
    if (my_index > 0) {
      left_index = my_index - 1;
    } else if (my_index + 1 < child_count) {
      left_index = my_index;
    } else {
      // Root with a single child pointer (only possible transiently).
      UINDEX_RETURN_IF_ERROR(WriteNode(node_id, node));
      node = std::move(pnode);
      node_id = parent.page_id;
      continue;
    }
    const size_t right_index = left_index + 1;
    const PageId left_id = child_at(left_index);
    const PageId right_id = child_at(right_index);

    // Load the sibling (the other side of the pair).
    Node left_node, right_node;
    if (left_id == node_id) {
      left_node = std::move(node);
      Result<Node> r = LoadNode(right_id);
      if (!r.ok()) return r.status();
      right_node = std::move(r).value();
    } else {
      right_node = std::move(node);
      Result<Node> r = LoadNode(left_id);
      if (!r.ok()) return r.status();
      left_node = std::move(r).value();
    }
    // The separator between the pair is parent entry `left_index`.
    NodeEntry& separator = pnode.entries()[left_index];

    // Try a merge: fold `right_node` into `left_node`.
    Node merged = left_node.is_leaf() ? Node::MakeLeaf()
                                      : Node::MakeInternal();
    merged.entries() = left_node.entries();
    if (left_node.is_leaf()) {
      merged.set_next_leaf(right_node.next_leaf());
      merged.entries().insert(merged.entries().end(),
                              right_node.entries().begin(),
                              right_node.entries().end());
    } else {
      merged.set_leftmost_child(left_node.leftmost_child());
      NodeEntry down;
      down.key = separator.key;
      down.child = right_node.leftmost_child();
      merged.entries().push_back(std::move(down));
      merged.entries().insert(merged.entries().end(),
                              right_node.entries().begin(),
                              right_node.entries().end());
    }
    if (merged.Fits(buffers_->page_size(), options_)) {
      UINDEX_RETURN_IF_ERROR(WriteNode(left_id, merged));
      buffers_->Free(right_id);
      pnode.entries().erase(pnode.entries().begin() +
                            static_cast<ptrdiff_t>(left_index));
      node = std::move(pnode);
      node_id = parent.page_id;
      continue;
    }

    // Merge impossible: borrow one entry across the pair towards the
    // underfull side, then stop (occupancy is best-effort for variable-
    // length entries, correctness does not depend on it).
    const bool underfull_is_left = (left_id == node_id);
    if (left_node.is_leaf()) {
      if (underfull_is_left && right_node.entry_count() > 1) {
        left_node.entries().push_back(right_node.entries().front());
        right_node.entries().erase(right_node.entries().begin());
        separator.key = right_node.entries().front().key;
      } else if (!underfull_is_left && left_node.entry_count() > 1) {
        right_node.entries().insert(right_node.entries().begin(),
                                    left_node.entries().back());
        left_node.entries().pop_back();
        separator.key = right_node.entries().front().key;
      }
    } else {
      if (underfull_is_left && right_node.entry_count() > 1) {
        NodeEntry down;
        down.key = separator.key;
        down.child = right_node.leftmost_child();
        left_node.entries().push_back(std::move(down));
        separator.key = right_node.entries().front().key;
        right_node.set_leftmost_child(right_node.entries().front().child);
        right_node.entries().erase(right_node.entries().begin());
      } else if (!underfull_is_left && left_node.entry_count() > 1) {
        NodeEntry down;
        down.key = separator.key;
        down.child = right_node.leftmost_child();
        right_node.entries().insert(right_node.entries().begin(),
                                    std::move(down));
        separator.key = left_node.entries().back().key;
        right_node.set_leftmost_child(left_node.entries().back().child);
        left_node.entries().pop_back();
      }
    }
    if (!left_node.Fits(buffers_->page_size(), options_) ||
        !right_node.Fits(buffers_->page_size(), options_)) {
      return Status::Corruption("borrow produced oversized node");
    }
    UINDEX_RETURN_IF_ERROR(WriteNode(left_id, left_node));
    UINDEX_RETURN_IF_ERROR(WriteNode(right_id, right_node));
    // The borrow replaced the pair's separator with a sibling boundary key
    // that can be *longer* than the one it displaced, so a full parent can
    // overflow here — store it through the insert-side split path. The
    // parent never shrinks, so rebalancing stops either way.
    return StoreWithSplits(std::move(path), parent.page_id,
                           std::move(pnode));
  }
}

Status BTree::Clear() {
  // Free the whole subtree, then start over with a fresh root leaf.
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    Result<Node> node = LoadNodeUncounted(id);
    if (!node.ok()) return node.status();
    if (!node.value().is_leaf()) {
      stack.push_back(node.value().leftmost_child());
      for (const NodeEntry& e : node.value().entries()) {
        stack.push_back(e.child);
      }
    }
    buffers_->Free(id);
  }
  root_ = buffers_->Allocate();
  size_ = 0;
  return WriteNode(root_, Node::MakeLeaf());
}

Result<BTree::TreeStats> BTree::ComputeStats() const {
  TreeStats stats;
  uint32_t leaf_depth = 0;
  UINDEX_RETURN_IF_ERROR(ComputeStatsSubtree(root_, 1, &stats, &leaf_depth));
  stats.height = leaf_depth;
  return stats;
}

Status BTree::ComputeStatsSubtree(PageId id, uint32_t depth, TreeStats* stats,
                                  uint32_t* leaf_depth) const {
  Result<Node> r = LoadNodeUncounted(id);
  if (!r.ok()) return r.status();
  const Node node = std::move(r).value();
  stats->total_bytes += node.SerializedSize(options_);
  if (node.is_leaf()) {
    ++stats->leaf_nodes;
    stats->entries += node.entry_count();
    *leaf_depth = depth;
    return Status::OK();
  }
  ++stats->internal_nodes;
  UINDEX_RETURN_IF_ERROR(
      ComputeStatsSubtree(node.leftmost_child(), depth + 1, stats,
                          leaf_depth));
  for (const NodeEntry& e : node.entries()) {
    UINDEX_RETURN_IF_ERROR(
        ComputeStatsSubtree(e.child, depth + 1, stats, leaf_depth));
  }
  return Status::OK();
}

Status BTree::Validate() const {
  uint64_t entries = 0;
  std::vector<PageId> leaves_in_order;

  // First pass establishes the uniform leaf depth.
  uint32_t leaf_depth = 1;
  {
    PageId id = root_;
    for (;;) {
      Result<Node> r = LoadNodeUncounted(id);
      if (!r.ok()) return r.status();
      if (r.value().is_leaf()) break;
      id = r.value().leftmost_child();
      ++leaf_depth;
    }
  }

  UINDEX_RETURN_IF_ERROR(ValidateSubtree(root_, nullptr, nullptr, 1,
                                         leaf_depth, &entries,
                                         &leaves_in_order));
  if (entries != size_) {
    return Status::Corruption("entry count mismatch: counted " +
                              std::to_string(entries) + " tracked " +
                              std::to_string(size_));
  }
  // The leaf chain must visit exactly the in-order leaves.
  for (size_t i = 0; i + 1 < leaves_in_order.size(); ++i) {
    Result<Node> r = LoadNodeUncounted(leaves_in_order[i]);
    if (!r.ok()) return r.status();
    if (r.value().next_leaf() != leaves_in_order[i + 1]) {
      return Status::Corruption("broken leaf chain after page " +
                                std::to_string(leaves_in_order[i]));
    }
  }
  if (!leaves_in_order.empty()) {
    Result<Node> r = LoadNodeUncounted(leaves_in_order.back());
    if (!r.ok()) return r.status();
    if (r.value().next_leaf() != kInvalidPageId) {
      return Status::Corruption("last leaf has a successor");
    }
  }
  return Status::OK();
}

Status BTree::ValidateSubtree(PageId id, const std::string* lo,
                              const std::string* hi, uint32_t depth,
                              uint32_t leaf_depth, uint64_t* entries,
                              std::vector<PageId>* leaves_in_order) const {
  Result<Node> r = LoadNodeUncounted(id);
  if (!r.ok()) return r.status();
  const Node node = std::move(r).value();

  if (node.SerializedSize(options_) > buffers_->page_size()) {
    return Status::Corruption("oversized node " + std::to_string(id));
  }
  const auto& es = node.entries();
  for (size_t i = 0; i < es.size(); ++i) {
    if (i > 0 && !(Slice(es[i - 1].key) < Slice(es[i].key))) {
      return Status::Corruption("keys out of order in node " +
                                std::to_string(id));
    }
    if (lo != nullptr && Slice(es[i].key) < Slice(*lo)) {
      return Status::Corruption("key below lower bound in node " +
                                std::to_string(id));
    }
    if (hi != nullptr && !(Slice(es[i].key) < Slice(*hi))) {
      return Status::Corruption("key above upper bound in node " +
                                std::to_string(id));
    }
  }

  if (node.is_leaf()) {
    if (depth != leaf_depth) {
      return Status::Corruption("leaf at non-uniform depth, node " +
                                std::to_string(id));
    }
    *entries += node.entry_count();
    leaves_in_order->push_back(id);
    return Status::OK();
  }

  // Children: [lo, e0), [e0, e1), ..., [eN-1, hi).
  const std::string* child_lo = lo;
  for (size_t i = 0; i <= es.size(); ++i) {
    const std::string* child_hi = i < es.size() ? &es[i].key : hi;
    const PageId child = i == 0 ? node.leftmost_child() : es[i - 1].child;
    UINDEX_RETURN_IF_ERROR(ValidateSubtree(child, child_lo, child_hi,
                                           depth + 1, leaf_depth, entries,
                                           leaves_in_order));
    child_lo = child_hi;
  }
  return Status::OK();
}

}  // namespace uindex

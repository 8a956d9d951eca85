#ifndef UINDEX_STORAGE_PAGER_H_
#define UINDEX_STORAGE_PAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/slice.h"

#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/stable_directory.h"
#include "util/status.h"

namespace uindex {

/// Where pages live: the storage backend under the buffer manager.
///
/// Two implementations exist. `Pager` (below) keeps every page in process
/// memory — the original reproduction setup, where `pages_read` is the
/// metric and I/O is simulated. `FilePager` (storage/file_pager.h) keeps
/// pages in a data file behind `Env` positioned I/O, so databases can
/// exceed RAM; the buffer manager then caches frames in a bounded
/// `BufferPool` and a charged read is an actual `pread` on a pool miss.
///
/// The allocation interface (Allocate/Free/IsLive/…) is identical for
/// both. The *access* interface splits: memory stores hand out stable
/// in-process pages via `DirectPage`; file stores only move whole pages
/// through `ReadPage`/`WritePage` and return null from `DirectPage`
/// (`backs_memory` tells the buffer manager which protocol applies).
/// Implementations are not thread-safe; callers serialize (the buffer
/// manager routes all file-store I/O through the pool's one lock, and
/// mutations require external exclusion). One exception: `IsLive`,
/// `max_page_id` and `DirectPage` of a live page may run beside the single
/// writer's `Allocate`/`Free`, since readers call them under the
/// database's shared latch.
class PageStore {
 public:
  virtual ~PageStore() = default;

  virtual uint32_t page_size() const = 0;

  /// Allocates a page id whose content reads as zeros, and returns it.
  virtual PageId Allocate() = 0;

  /// Returns the page to the free pool. The id must be live.
  virtual void Free(PageId id) = 0;

  /// True if `id` names a live (allocated, not freed) page.
  virtual bool IsLive(PageId id) const = 0;

  /// Number of live pages (the storage footprint in pages).
  virtual uint64_t live_page_count() const = 0;

  /// Highest page id ever allocated.
  virtual PageId max_page_id() const = 0;

  /// True when pages are process memory and `DirectPage` works; false for
  /// file stores, where access goes through `ReadPage`/`WritePage` (and,
  /// above this layer, the buffer pool's frames).
  virtual bool backs_memory() const = 0;

  /// Borrows a live page in memory stores (stable until freed); null for
  /// invalid/freed ids and ALWAYS null in file stores.
  virtual Page* DirectPage(PageId id) = 0;
  virtual const Page* DirectPage(PageId id) const = 0;

  /// Copies the page's current content into `out[0, page_size)`. For file
  /// stores this is positioned file I/O against the data file — callers
  /// holding newer bytes in pool frames must flush them first.
  virtual Status ReadPage(PageId id, char* out) const = 0;

  /// Persists `bytes[0, page_size)` as the page's content (volatile until
  /// `Sync` for file stores).
  virtual Status WritePage(PageId id, const char* bytes) = 0;

  /// Makes the store durable: file stores write their allocation bitmap
  /// and header and fdatasync the data file; memory stores no-op.
  virtual Status Sync() = 0;

  /// Restore support (used by `PagerSnapshot`): resets the store to an
  /// empty id space reaching `max_page_id`, every slot free;
  /// `RestorePage` then revives specific ids with content.
  virtual Status BeginRestore(PageId max_page_id) = 0;
  virtual Status RestorePage(PageId id, const Slice& bytes) = 0;
};

/// An in-memory paged file.
///
/// The paper's experiments run on index files with a fixed page size and
/// measure page reads, not wall-clock I/O, so an in-memory page store with
/// identical geometry preserves the metric exactly (see DESIGN.md,
/// "Substitutions"). Pages are allocated sequentially starting at id 1;
/// freed pages go on a free list and are reused.
///
/// The page directory never moves (a `StableDirectory`: a fixed table of
/// chunk pointers whose chunks, once allocated, stay put). A reader
/// resolving a live page (`GetPage` under the buffer manager's shared
/// latch) may therefore run beside the writer's `Allocate`; the highest
/// id is published with release ordering after its slot is filled.
class Pager : public PageStore {
 public:
  /// Creates a pager whose pages are all `page_size` bytes.
  explicit Pager(uint32_t page_size);

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  uint32_t page_size() const override { return page_size_; }

  /// Allocates a zeroed page and returns its id.
  PageId Allocate() override;

  /// Returns the page to the free list. The id must be live.
  void Free(PageId id) override;

  /// Borrows a live page for reading/writing. The pointer is stable until
  /// the page is freed. Returns nullptr for invalid or freed ids.
  Page* GetPage(PageId id);
  const Page* GetPage(PageId id) const;

  bool IsLive(PageId id) const override;

  uint64_t live_page_count() const override { return live_count_; }

  PageId max_page_id() const override { return pages_.max_id(); }

  bool backs_memory() const override { return true; }
  Page* DirectPage(PageId id) override { return GetPage(id); }
  const Page* DirectPage(PageId id) const override { return GetPage(id); }
  Status ReadPage(PageId id, char* out) const override;
  Status WritePage(PageId id, const char* bytes) override;
  Status Sync() override { return Status::OK(); }

  /// Restore support (used by `PagerSnapshot`): creates an empty pager
  /// whose id space reaches `max_page_id`, with every slot initially on
  /// the free list; `RestorePage` then revives specific ids with content.
  static std::unique_ptr<Pager> CreateForRestore(uint32_t page_size,
                                                 PageId max_page_id);
  Status BeginRestore(PageId max_page_id) override;
  Status RestorePage(PageId id, const Slice& bytes) override;

 private:
  uint32_t page_size_;
  // pages_.At(id) backs page id `id` (slot 0 unused); nullptr for freed
  // pages. 4096 chunks of 4096 slots: ids below 16M.
  StableDirectory<std::unique_ptr<Page>, 4096, 4096> pages_;
  std::vector<PageId> free_list_;
  uint64_t live_count_ = 0;
};

}  // namespace uindex

#endif  // UINDEX_STORAGE_PAGER_H_

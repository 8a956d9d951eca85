#ifndef UINDEX_STORAGE_FILE_PAGER_H_
#define UINDEX_STORAGE_FILE_PAGER_H_

#include <atomic>
#include <memory>
#include <string>

#include "storage/env/env.h"
#include "storage/pager.h"
#include "storage/stable_directory.h"

namespace uindex {

/// A page store backed by one data file behind `Env` positioned I/O — the
/// backend that lets a database exceed RAM. Page `id` occupies file bytes
/// `[id * page_size, (id + 1) * page_size)`; slot 0 holds the header.
///
/// On-disk layout (little-endian, see DESIGN.md "Disk-backed pager &
/// buffer pool"):
///   slot 0: "UIDXPAGE" magic ∥ version u32 ∥ page_size u32
///           ∥ max_page_id u32 ∥ live_count u64 ∥ bitmap_len u32
///           ∥ bitmap crc u32
///   slots 1..max_page_id: page content
///   tail (offset (max_page_id + 1) * page_size): the free-page bitmap,
///           one bit per id, bit set = live.
///
/// Allocation state (the bitmap) lives in memory and is written out — tail
/// first, then the header that frames it, then fdatasync — only by
/// `Sync()`, which `Database::Checkpoint` calls after flushing dirty
/// frames. Between syncs the data file is a volatile working store: crash
/// recovery never trusts it and rebuilds it from the snapshot + journal
/// (`BeginRestore` truncates and rewrites), which is what keeps the PR-5
/// crash-atomicity proof intact with no page-level WAL.
///
/// `ReadPage` zero-fills any bytes past end of file, so allocated-but-
/// never-written pages read as zeros, matching the in-memory `Pager`.
/// Not thread-safe, with one exception: `IsLive` and `max_page_id` may
/// run beside the (single) writer's `Allocate`/`Free`, as readers call
/// them under the database's shared latch. The bitmap is therefore a
/// fixed table of chunks of atomic words that never move. Page I/O goes
/// through the buffer pool's lock.
class FilePager : public PageStore {
 public:
  /// Creates (or truncates) the data file at `path`. Nothing is written
  /// until pages are, and the header only at `Sync`.
  static Result<std::unique_ptr<FilePager>> Create(Env* env,
                                                   const std::string& path,
                                                   uint32_t page_size);

  /// Opens an existing data file, reading the header and bitmap a prior
  /// `Sync` wrote. Fails with Corruption on any mismatch.
  static Result<std::unique_ptr<FilePager>> Open(Env* env,
                                                 const std::string& path);

  ~FilePager() override;

  FilePager(const FilePager&) = delete;
  FilePager& operator=(const FilePager&) = delete;

  const std::string& path() const { return path_; }

  uint32_t page_size() const override { return page_size_; }
  PageId Allocate() override;
  void Free(PageId id) override;
  bool IsLive(PageId id) const override;
  uint64_t live_page_count() const override { return live_count_; }
  PageId max_page_id() const override { return live_.max_id(); }

  bool backs_memory() const override { return false; }
  Page* DirectPage(PageId) override { return nullptr; }
  const Page* DirectPage(PageId) const override { return nullptr; }

  Status ReadPage(PageId id, char* out) const override;
  Status WritePage(PageId id, const char* bytes) override;

  /// Writes the free-page bitmap and header and fdatasyncs the file.
  Status Sync() override;

  Status BeginRestore(PageId max_page_id) override;
  Status RestorePage(PageId id, const Slice& bytes) override;

 private:
  FilePager(Env* env, std::string path, uint32_t page_size,
            std::unique_ptr<RandomRWFile> file);

  uint64_t OffsetOf(PageId id) const {
    return static_cast<uint64_t>(id) * page_size_;
  }

  Env* env_;
  std::string path_;
  uint32_t page_size_;
  std::unique_ptr<RandomRWFile> file_;
  // Liveness bitmap: bit id % 64 of word id / 64; 4096 chunks of 1024
  // words cover ids below 256M.
  bool TestLive(PageId id) const {
    return (live_.At(id / 64).load(std::memory_order_relaxed) >> (id % 64)) &
           1;
  }
  void SetLive(PageId id, bool live);

  StableDirectory<std::atomic<uint64_t>, 1024, 4096> live_;
  uint64_t live_count_ = 0;
  PageId cursor_ = 1;  ///< Next-fit allocation scan start.
};

}  // namespace uindex

#endif  // UINDEX_STORAGE_FILE_PAGER_H_

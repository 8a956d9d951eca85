#include "storage/file_pager.h"

#include <cassert>
#include <cstring>

#include "util/coding.h"
#include "util/crc32.h"

namespace uindex {

namespace {

constexpr char kMagic[8] = {'U', 'I', 'D', 'X', 'P', 'A', 'G', 'E'};
constexpr uint32_t kVersion = 1;
// magic ∥ version ∥ page_size ∥ max_page_id ∥ live_count ∥ bitmap_len
// ∥ bitmap crc — fits the 64-byte minimum page size.
constexpr size_t kHeaderSize = 8 + 4 + 4 + 4 + 8 + 4 + 4;

}  // namespace

FilePager::FilePager(Env* env, std::string path, uint32_t page_size,
                     std::unique_ptr<RandomRWFile> file)
    : env_(env), path_(std::move(path)), page_size_(page_size),
      file_(std::move(file)) {
  assert(page_size_ >= kHeaderSize && "page size too small for the header");
}

void FilePager::SetLive(PageId id, bool live) {
  const uint64_t bit = uint64_t{1} << (id % 64);
  if (live) {
    live_.At(id / 64).fetch_or(bit, std::memory_order_relaxed);
  } else {
    live_.At(id / 64).fetch_and(~bit, std::memory_order_relaxed);
  }
}

FilePager::~FilePager() {
  // Best effort; the data file is a volatile working store (see class
  // comment), so a lost close costs nothing recovery cannot rebuild.
  if (file_ != nullptr) file_->Close();
}

Result<std::unique_ptr<FilePager>> FilePager::Create(
    Env* env, const std::string& path, uint32_t page_size) {
  if (env == nullptr) env = Env::Default();
  if (page_size < 64) {
    return Status::InvalidArgument("page size too small");
  }
  Result<std::unique_ptr<RandomRWFile>> file =
      env->NewRandomRWFile(path, /*truncate=*/true);
  if (!file.ok()) return file.status();
  return std::unique_ptr<FilePager>(
      new FilePager(env, path, page_size, std::move(file).value()));
}

Result<std::unique_ptr<FilePager>> FilePager::Open(Env* env,
                                                   const std::string& path) {
  if (env == nullptr) env = Env::Default();
  if (!env->FileExists(path)) {
    return Status::NotFound("no such data file " + path);
  }
  Result<std::unique_ptr<RandomRWFile>> opened =
      env->NewRandomRWFile(path, /*truncate=*/false);
  if (!opened.ok()) return opened.status();
  RandomRWFile* file = opened.value().get();

  char header[kHeaderSize];
  Result<size_t> got = file->ReadAt(0, sizeof(header), header);
  if (!got.ok()) return got.status();
  if (got.value() != sizeof(header) ||
      std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad data-file header " + path);
  }
  const uint32_t version = DecodeFixed32(header + 8);
  if (version != kVersion) {
    return Status::NotSupported("data-file version " +
                                std::to_string(version));
  }
  const uint32_t page_size = DecodeFixed32(header + 12);
  const PageId max_page_id = DecodeFixed32(header + 16);
  const uint64_t live_count = DecodeFixed64(header + 20);
  const uint32_t bitmap_len = DecodeFixed32(header + 28);
  const uint32_t bitmap_crc = DecodeFixed32(header + 32);
  if (page_size < 64 || bitmap_len != (max_page_id + 7) / 8) {
    return Status::Corruption("inconsistent data-file header " + path);
  }

  std::unique_ptr<FilePager> pager(
      new FilePager(env, path, page_size, std::move(opened).value()));
  std::string bitmap(bitmap_len, '\0');
  if (bitmap_len > 0) {
    got = pager->file_->ReadAt(pager->OffsetOf(max_page_id + 1), bitmap_len,
                               bitmap.data());
    if (!got.ok()) return got.status();
    if (got.value() != bitmap_len) {
      return Status::Corruption("truncated data-file bitmap " + path);
    }
  }
  if (Crc32(Slice(bitmap)) != bitmap_crc) {
    return Status::Corruption("data-file bitmap checksum mismatch " + path);
  }
  if (!pager->live_.EnsureUpTo(max_page_id / 64)) {
    return Status::Corruption("data-file id space too large " + path);
  }
  for (PageId id = 1; id <= max_page_id; ++id) {
    if (bitmap[(id - 1) / 8] & (1 << ((id - 1) % 8))) {
      pager->SetLive(id, true);
      ++pager->live_count_;
    }
  }
  pager->live_.Publish(max_page_id);
  if (pager->live_count_ != live_count) {
    return Status::Corruption("data-file live count mismatch " + path);
  }
  return pager;
}

PageId FilePager::Allocate() {
  // Next-fit over the bitmap: resume where the last allocation stopped,
  // which is O(1) amortized and (unlike a free list rebuilt at restore)
  // needs no per-id bookkeeping beyond the bitmap itself.
  const PageId max_id = max_page_id();
  for (PageId id = cursor_; id <= max_id; ++id) {
    if (!TestLive(id)) {
      SetLive(id, true);
      ++live_count_;
      cursor_ = id + 1;
      return id;
    }
  }
  const PageId id = max_id + 1;
  live_.GrowOrDie(id / 64, "FilePager");
  SetLive(id, true);
  ++live_count_;
  cursor_ = id + 1;
  live_.Publish(id);
  return id;
}

void FilePager::Free(PageId id) {
  assert(IsLive(id));
  SetLive(id, false);
  --live_count_;
  if (id < cursor_) cursor_ = id;
}

bool FilePager::IsLive(PageId id) const {
  return id != kInvalidPageId && id <= max_page_id() && TestLive(id);
}

Status FilePager::ReadPage(PageId id, char* out) const {
  if (!IsLive(id)) {
    return Status::InvalidArgument("read of dead page " +
                                   std::to_string(id));
  }
  Result<size_t> got = file_->ReadAt(OffsetOf(id), page_size_, out);
  if (!got.ok()) return got.status();
  // Past-EOF bytes read as zeros: pages are allocated in the bitmap first
  // and the file extends lazily at first write-back.
  if (got.value() < page_size_) {
    std::memset(out + got.value(), 0, page_size_ - got.value());
  }
  return Status::OK();
}

Status FilePager::WritePage(PageId id, const char* bytes) {
  if (!IsLive(id)) {
    return Status::InvalidArgument("write of dead page " +
                                   std::to_string(id));
  }
  return file_->WriteAt(OffsetOf(id), Slice(bytes, page_size_));
}

Status FilePager::Sync() {
  // Tail bitmap first, then the header that frames it: a crash between
  // the two leaves the old header describing the old bitmap. Both are
  // advisory anyway — recovery rebuilds the file from snapshot+journal.
  const PageId max_id = max_page_id();
  std::string bitmap((max_id + 7) / 8, '\0');
  for (PageId id = 1; id <= max_id; ++id) {
    if (TestLive(id)) {
      bitmap[(id - 1) / 8] |= static_cast<char>(1 << ((id - 1) % 8));
    }
  }
  if (!bitmap.empty()) {
    UINDEX_RETURN_IF_ERROR(
        file_->WriteAt(OffsetOf(max_id + 1), Slice(bitmap)));
  }
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  PutFixed32(&header, kVersion);
  PutFixed32(&header, page_size_);
  PutFixed32(&header, max_id);
  PutFixed64(&header, live_count_);
  PutFixed32(&header, static_cast<uint32_t>(bitmap.size()));
  PutFixed32(&header, Crc32(Slice(bitmap)));
  UINDEX_RETURN_IF_ERROR(file_->WriteAt(0, Slice(header)));
  return file_->Sync();
}

Status FilePager::BeginRestore(PageId max_page_id) {
  // Recreate the file from scratch: stale bytes of dropped generations
  // must not survive into recycled ids.
  file_.reset();
  Result<std::unique_ptr<RandomRWFile>> file =
      env_->NewRandomRWFile(path_, /*truncate=*/true);
  if (!file.ok()) return file.status();
  file_ = std::move(file).value();
  live_.Reset();
  live_count_ = 0;
  if (!live_.EnsureUpTo(max_page_id / 64)) {
    return Status::InvalidArgument("restore beyond the page id space");
  }
  live_.Publish(max_page_id);
  cursor_ = 1;
  return Status::OK();
}

Status FilePager::RestorePage(PageId id, const Slice& bytes) {
  if (id == kInvalidPageId || id > max_page_id()) {
    return Status::InvalidArgument("restore id out of range");
  }
  if (TestLive(id)) return Status::AlreadyExists("page restored twice");
  if (bytes.size() != page_size_) {
    return Status::InvalidArgument("restore size mismatch");
  }
  UINDEX_RETURN_IF_ERROR(file_->WriteAt(OffsetOf(id), bytes));
  SetLive(id, true);
  ++live_count_;
  return Status::OK();
}

}  // namespace uindex

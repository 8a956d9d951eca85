#include "storage/pager.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace uindex {

Pager::Pager(uint32_t page_size) : page_size_(page_size) {
  assert(page_size_ >= 64 && "page size too small for any node header");
}

PageId Pager::Allocate() {
  ++live_count_;
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    pages_.At(id) = std::make_unique<Page>(page_size_);
    return id;
  }
  const PageId id = max_page_id() + 1;
  pages_.GrowOrDie(id, "Pager");
  pages_.At(id) = std::make_unique<Page>(page_size_);
  pages_.Publish(id);
  return id;
}

void Pager::Free(PageId id) {
  assert(IsLive(id));
  pages_.At(id).reset();
  free_list_.push_back(id);
  --live_count_;
}

Page* Pager::GetPage(PageId id) {
  if (id == kInvalidPageId || id > max_page_id()) return nullptr;
  return pages_.At(id).get();
}

const Page* Pager::GetPage(PageId id) const {
  if (id == kInvalidPageId || id > max_page_id()) return nullptr;
  return pages_.At(id).get();
}

Status Pager::ReadPage(PageId id, char* out) const {
  const Page* page = GetPage(id);
  if (page == nullptr) {
    return Status::InvalidArgument("read of dead page " +
                                   std::to_string(id));
  }
  std::memcpy(out, page->data(), page->size());
  return Status::OK();
}

Status Pager::WritePage(PageId id, const char* bytes) {
  Page* page = GetPage(id);
  if (page == nullptr) {
    return Status::InvalidArgument("write of dead page " +
                                   std::to_string(id));
  }
  std::memcpy(page->data(), bytes, page->size());
  return Status::OK();
}

std::unique_ptr<Pager> Pager::CreateForRestore(uint32_t page_size,
                                               PageId max_page_id) {
  auto pager = std::make_unique<Pager>(page_size);
  pager->BeginRestore(max_page_id);
  return pager;
}

Status Pager::BeginRestore(PageId max_page_id) {
  pages_.Reset();
  free_list_.clear();
  live_count_ = 0;
  if (!pages_.EnsureUpTo(max_page_id)) {
    return Status::InvalidArgument("restore beyond the page directory");
  }
  pages_.Publish(max_page_id);
  // Free slots in descending order so future Allocate() reuses low ids
  // first (cosmetic; any order is correct).
  for (PageId id = max_page_id; id >= 1; --id) {
    free_list_.push_back(id);
  }
  return Status::OK();
}

Status Pager::RestorePage(PageId id, const Slice& bytes) {
  if (id == kInvalidPageId || id > max_page_id()) {
    return Status::InvalidArgument("restore id out of range");
  }
  if (pages_.At(id) != nullptr) {
    return Status::AlreadyExists("page restored twice");
  }
  if (bytes.size() != page_size_) {
    return Status::InvalidArgument("restore size mismatch");
  }
  auto page = std::make_unique<Page>(page_size_);
  std::memcpy(page->data(), bytes.data(), bytes.size());
  pages_.At(id) = std::move(page);
  ++live_count_;
  free_list_.erase(std::remove(free_list_.begin(), free_list_.end(), id),
                   free_list_.end());
  return Status::OK();
}

bool Pager::IsLive(PageId id) const {
  return id != kInvalidPageId && id <= max_page_id() &&
         pages_.At(id) != nullptr;
}

}  // namespace uindex

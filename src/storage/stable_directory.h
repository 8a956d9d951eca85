#ifndef UINDEX_STORAGE_STABLE_DIRECTORY_H_
#define UINDEX_STORAGE_STABLE_DIRECTORY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "storage/page.h"

namespace uindex {

/// A growable array of `T` slots whose slots never move, for pager
/// directories that readers index while the writer grows them.
///
/// It is a fixed table of `kMaxChunks` chunk pointers; a chunk holds
/// `kChunk` value-initialised slots and, once allocated, stays put until
/// `Reset`. Growing therefore never copies a slot a reader may be using
/// (as `std::vector::push_back` would). Beside the slots the directory
/// publishes the owner's highest page id: the single writer fills the
/// slots a new id needs, then calls `Publish` (release); a reader loads
/// `max_id` (acquire) and may then read every slot up to it.
///
/// The writer methods (`EnsureUpTo`, `GrowOrDie`, `Publish`, `Reset`)
/// must be serialized by the caller; `Reset` needs no reader running.
template <typename T, size_t kChunk, size_t kMaxChunks>
class StableDirectory {
 public:
  static constexpr size_t kCapacity = kChunk * kMaxChunks;

  StableDirectory()
      : chunks_(std::make_unique<std::unique_ptr<Chunk>[]>(kMaxChunks)) {}

  StableDirectory(const StableDirectory&) = delete;
  StableDirectory& operator=(const StableDirectory&) = delete;

  /// Makes slots [0, index] addressable; false when `index` is past the
  /// capacity.
  bool EnsureUpTo(size_t index) {
    if (index >= kCapacity) return false;
    while (chunks_used_ <= index / kChunk) {
      chunks_[chunks_used_++] = std::make_unique<Chunk>();
    }
    return true;
  }

  /// `EnsureUpTo` for an allocation path that has no error channel: a
  /// full directory ends the process with a message naming `owner`.
  void GrowOrDie(size_t index, const char* owner) {
    if (!EnsureUpTo(index)) {
      std::fprintf(stderr, "%s: directory full (%zu slots)\n", owner,
                   kCapacity);
      std::abort();
    }
  }

  /// The slot at `index`, which `EnsureUpTo` has covered.
  T& At(size_t index) { return (*chunks_[index / kChunk])[index % kChunk]; }
  const T& At(size_t index) const {
    return (*chunks_[index / kChunk])[index % kChunk];
  }

  PageId max_id() const { return max_id_.load(std::memory_order_acquire); }
  void Publish(PageId max_id) {
    max_id_.store(max_id, std::memory_order_release);
  }

  /// Drops every chunk and publishes 0.
  void Reset() {
    for (size_t c = 0; c < chunks_used_; ++c) chunks_[c].reset();
    chunks_used_ = 0;
    Publish(0);
  }

 private:
  using Chunk = std::array<T, kChunk>;

  std::unique_ptr<std::unique_ptr<Chunk>[]> chunks_;
  size_t chunks_used_ = 0;  ///< Chunks [0, chunks_used_) are allocated.
  std::atomic<PageId> max_id_{0};
};

}  // namespace uindex

#endif  // UINDEX_STORAGE_STABLE_DIRECTORY_H_

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/env/env.h"
#include "storage/env/fault_env.h"
#include "storage/file_pager.h"

namespace uindex {
namespace {

// ------------------------------------------------- PosixEnv RandomRWFile

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "uindex_file_pager_test_" + name;
}

TEST(PosixRandomRWTest, WriteReadRoundtrip) {
  const std::string path = TempPath("roundtrip");
  Result<std::unique_ptr<RandomRWFile>> file =
      Env::Default()->NewRandomRWFile(path, /*truncate=*/true);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  RandomRWFile* f = file.value().get();

  ASSERT_TRUE(f->WriteAt(0, Slice("hello")).ok());
  ASSERT_TRUE(f->WriteAt(100, Slice("world")).ok());

  char buf[16];
  Result<size_t> n = f->ReadAt(0, 5, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 5u);
  EXPECT_EQ(std::string(buf, 5), "hello");

  // The gap between the two writes reads as zeros.
  n = f->ReadAt(5, 5, buf);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(buf[i], '\0') << i;

  // A read crossing end of file returns a short count...
  n = f->ReadAt(102, 16, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 3u);
  EXPECT_EQ(std::string(buf, 3), "rld");

  // ...and a read entirely past it returns 0, not an error.
  n = f->ReadAt(4096, 8, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);

  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Close().ok());
  Env::Default()->RemoveFile(path);
}

TEST(PosixRandomRWTest, ReopenWithoutTruncateKeepsContent) {
  const std::string path = TempPath("reopen");
  {
    Result<std::unique_ptr<RandomRWFile>> file =
        Env::Default()->NewRandomRWFile(path, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->WriteAt(0, Slice("persist")).ok());
    ASSERT_TRUE(file.value()->Close().ok());
  }
  {
    Result<std::unique_ptr<RandomRWFile>> file =
        Env::Default()->NewRandomRWFile(path, /*truncate=*/false);
    ASSERT_TRUE(file.ok());
    char buf[8];
    Result<size_t> n = file.value()->ReadAt(0, 7, buf);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(std::string(buf, n.value()), "persist");
  }
  {
    // truncate=true discards it.
    Result<std::unique_ptr<RandomRWFile>> file =
        Env::Default()->NewRandomRWFile(path, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    char buf[8];
    Result<size_t> n = file.value()->ReadAt(0, 7, buf);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 0u);
  }
  Env::Default()->RemoveFile(path);
}

// Caps every pread/pwrite to a few bytes so the short-count retry loops
// must iterate; the data must come through intact anyway.
TEST(PosixRandomRWTest, ShortCountLoopsCoverLargeIo) {
  const std::string path = TempPath("chunked");
  std::string payload;
  for (int i = 0; i < 1000; ++i) payload.push_back(static_cast<char>(i));

  SetPosixIoChunkForTesting(7);
  {
    Result<std::unique_ptr<RandomRWFile>> file =
        Env::Default()->NewRandomRWFile(path, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->WriteAt(3, Slice(payload)).ok());
    std::vector<char> buf(payload.size());
    Result<size_t> n = file.value()->ReadAt(3, payload.size(), buf.data());
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), payload.size());
    EXPECT_EQ(std::string(buf.data(), n.value()), payload);
    ASSERT_TRUE(file.value()->Close().ok());
  }
  SetPosixIoChunkForTesting(0);
  Env::Default()->RemoveFile(path);
}

TEST(PosixRandomRWTest, SequentialWriterAlsoLoopsOnShortWrites) {
  const std::string path = TempPath("chunked_append");
  std::string payload(4096, 'x');
  SetPosixIoChunkForTesting(11);
  {
    Result<std::unique_ptr<WritableFile>> file =
        Env::Default()->NewWritableFile(path, Env::WriteMode::kTruncate);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append(Slice(payload)).ok());
    ASSERT_TRUE(file.value()->Close().ok());
  }
  SetPosixIoChunkForTesting(0);
  Result<uint64_t> size = Env::Default()->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), payload.size());
  Env::Default()->RemoveFile(path);
}

// ------------------------------------------ FaultInjectingEnv positioned IO

TEST(FaultRandomRWTest, UnsyncedWriteAtRollsBackAtReboot) {
  FaultInjectingEnv env;
  Result<std::unique_ptr<RandomRWFile>> file =
      env.NewRandomRWFile("/f", /*truncate=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(env.SyncDir("/").ok());  // The file's creation itself.
  ASSERT_TRUE(file.value()->WriteAt(0, Slice("AAAA")).ok());
  ASSERT_TRUE(file.value()->Sync().ok());
  // An overwrite *below* the synced length that is never synced: a
  // watermark model could not express its rollback, the dual-image one
  // must.
  ASSERT_TRUE(file.value()->WriteAt(0, Slice("BB")).ok());
  env.Reboot();
  Result<std::string> bytes = env.ReadFileBytes("/f");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), "AAAA");
}

TEST(FaultRandomRWTest, CrashOutcomesAtWriteAt) {
  struct Case {
    FaultInjectingEnv::CrashOutcome outcome;
    std::string expect;
  };
  const std::vector<Case> cases = {
      {FaultInjectingEnv::CrashOutcome::kNone, "AAAA"},
      {FaultInjectingEnv::CrashOutcome::kPartial, "BBAA"},  // torn: half
      {FaultInjectingEnv::CrashOutcome::kFull, "BBBB"},
  };
  for (const Case& c : cases) {
    FaultInjectingEnv env;
    Result<std::unique_ptr<RandomRWFile>> file =
        env.NewRandomRWFile("/f", /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(env.SyncDir("/").ok());  // The file's creation itself.
    ASSERT_TRUE(file.value()->WriteAt(0, Slice("AAAA")).ok());
    ASSERT_TRUE(file.value()->Sync().ok());
    env.ScheduleCrashAtKthOpOfKind(FaultInjectingEnv::OpKind::kWriteAt, 1,
                                   c.outcome);
    EXPECT_FALSE(file.value()->WriteAt(0, Slice("BBBB")).ok());
    EXPECT_TRUE(env.powered_off());
    // Powered off: every further op fails.
    EXPECT_FALSE(file.value()->Sync().ok());
    env.Reboot();
    Result<std::string> bytes = env.ReadFileBytes("/f");
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value(), c.expect)
        << "outcome " << static_cast<int>(c.outcome);
  }
}

TEST(FaultRandomRWTest, StaleHandleFailsAfterReboot) {
  FaultInjectingEnv env;
  Result<std::unique_ptr<RandomRWFile>> file =
      env.NewRandomRWFile("/f", /*truncate=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->WriteAt(0, Slice("x")).ok());
  env.Reboot();
  EXPECT_FALSE(file.value()->WriteAt(0, Slice("y")).ok());
  char c;
  EXPECT_FALSE(file.value()->ReadAt(0, 1, &c).ok());
}

// ----------------------------------------------------------- FilePager

constexpr uint32_t kPage = 128;

std::vector<char> PagePattern(PageId id) {
  std::vector<char> buf(kPage);
  for (uint32_t i = 0; i < kPage; ++i) {
    buf[i] = static_cast<char>((id * 31 + i) & 0xff);
  }
  return buf;
}

TEST(FilePagerTest, AllocateWriteReadFree) {
  FaultInjectingEnv env;
  Result<std::unique_ptr<FilePager>> created =
      FilePager::Create(&env, "/data", kPage);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  FilePager& pager = *created.value();
  EXPECT_EQ(pager.page_size(), kPage);
  EXPECT_EQ(pager.live_page_count(), 0u);
  EXPECT_FALSE(pager.backs_memory());
  EXPECT_EQ(pager.DirectPage(1), nullptr);

  const PageId a = pager.Allocate();
  const PageId b = pager.Allocate();
  EXPECT_NE(a, kInvalidPageId);
  EXPECT_NE(b, a);
  EXPECT_TRUE(pager.IsLive(a));
  EXPECT_EQ(pager.live_page_count(), 2u);

  ASSERT_TRUE(pager.WritePage(a, PagePattern(a).data()).ok());
  std::vector<char> buf(kPage);
  ASSERT_TRUE(pager.ReadPage(a, buf.data()).ok());
  EXPECT_EQ(buf, PagePattern(a));

  // Allocated but never written: reads as zeros (zero-fill past EOF).
  ASSERT_TRUE(pager.ReadPage(b, buf.data()).ok());
  for (uint32_t i = 0; i < kPage; ++i) EXPECT_EQ(buf[i], '\0');

  pager.Free(a);
  EXPECT_FALSE(pager.IsLive(a));
  EXPECT_EQ(pager.live_page_count(), 1u);
  // Next-fit recycles the freed slot eventually.
  const PageId c = pager.Allocate();
  EXPECT_TRUE(pager.IsLive(c));
}

TEST(FilePagerTest, ReadersSeeLivenessWhileTheWriterAllocates) {
  // Readers probe IsLive under a database's shared latch while the writer
  // allocates and frees; the bitmap spans several chunks here. Ids that
  // are multiples of 10 flip (freed and re-allocated), every other id
  // below `stable` must read live throughout. Under ThreadSanitizer this
  // is the race check for the liveness bitmap.
  constexpr PageId kPages = 150000;
  FaultInjectingEnv env;
  Result<std::unique_ptr<FilePager>> created =
      FilePager::Create(&env, "/data", kPage);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  FilePager& pager = *created.value();
  std::atomic<PageId> stable{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      PageId probe = 1 + r;
      while (!done.load(std::memory_order_acquire)) {
        const PageId limit = stable.load(std::memory_order_acquire);
        if (limit == 0) continue;
        probe = 1 + (probe * 7919) % limit;
        if (probe % 10 != 0 && !pager.IsLive(probe)) mismatches.fetch_add(1);
        if (pager.IsLive(kPages + 1)) mismatches.fetch_add(1);
      }
    });
  }
  for (PageId i = 1; i <= kPages; ++i) {
    ASSERT_EQ(pager.Allocate(), i);
    if (i % 10 == 0) {
      pager.Free(i);
      ASSERT_EQ(pager.Allocate(), i);  // Next-fit reuses the freed id.
    }
    stable.store(i, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(pager.live_page_count(), kPages);
  EXPECT_EQ(pager.max_page_id(), kPages);

  // The bitmap survives a sync and reopen across chunk boundaries.
  pager.Free(65536);
  ASSERT_TRUE(pager.Sync().ok());
  Result<std::unique_ptr<FilePager>> opened = FilePager::Open(&env, "/data");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value()->live_page_count(), kPages - 1);
  EXPECT_FALSE(opened.value()->IsLive(65536));
  EXPECT_TRUE(opened.value()->IsLive(65537));
  EXPECT_TRUE(opened.value()->IsLive(kPages));
}

TEST(FilePagerTest, SyncThenOpenRoundtrip) {
  FaultInjectingEnv env;
  std::vector<PageId> ids;
  {
    Result<std::unique_ptr<FilePager>> created =
        FilePager::Create(&env, "/data", kPage);
    ASSERT_TRUE(created.ok());
    FilePager& pager = *created.value();
    for (int i = 0; i < 20; ++i) {
      const PageId id = pager.Allocate();
      ASSERT_TRUE(pager.WritePage(id, PagePattern(id).data()).ok());
      ids.push_back(id);
    }
    pager.Free(ids[3]);
    pager.Free(ids[7]);
    ASSERT_TRUE(pager.Sync().ok());
  }
  Result<std::unique_ptr<FilePager>> opened = FilePager::Open(&env, "/data");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  FilePager& pager = *opened.value();
  EXPECT_EQ(pager.page_size(), kPage);
  EXPECT_EQ(pager.live_page_count(), 18u);
  EXPECT_FALSE(pager.IsLive(ids[3]));
  EXPECT_FALSE(pager.IsLive(ids[7]));
  std::vector<char> buf(kPage);
  for (const PageId id : ids) {
    if (id == ids[3] || id == ids[7]) continue;
    ASSERT_TRUE(pager.ReadPage(id, buf.data()).ok());
    EXPECT_EQ(buf, PagePattern(id)) << "page " << id;
  }
  // Allocation still works after a reopen.
  const PageId recycled = pager.Allocate();
  EXPECT_TRUE(pager.IsLive(recycled));
  EXPECT_EQ(pager.live_page_count(), 19u);
}

TEST(FilePagerTest, OpenRejectsGarbage) {
  FaultInjectingEnv env;
  // Not a pager file at all.
  {
    Result<std::unique_ptr<WritableFile>> f =
        env.NewWritableFile("/junk", Env::WriteMode::kTruncate);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append(Slice("this is not a page file")).ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }
  EXPECT_FALSE(FilePager::Open(&env, "/junk").ok());
  // Absent file.
  EXPECT_FALSE(FilePager::Open(&env, "/missing").ok());
  // Created but never synced: no header yet.
  {
    Result<std::unique_ptr<FilePager>> created =
        FilePager::Create(&env, "/unsynced", kPage);
    ASSERT_TRUE(created.ok());
    created.value()->Allocate();
  }
  EXPECT_FALSE(FilePager::Open(&env, "/unsynced").ok());
}

TEST(FilePagerTest, OpenRejectsCorruptedHeader) {
  FaultInjectingEnv env;
  {
    Result<std::unique_ptr<FilePager>> created =
        FilePager::Create(&env, "/data", kPage);
    ASSERT_TRUE(created.ok());
    const PageId id = created.value()->Allocate();
    ASSERT_TRUE(
        created.value()->WritePage(id, PagePattern(id).data()).ok());
    ASSERT_TRUE(created.value()->Sync().ok());
  }
  // Flip one magic byte.
  Result<std::string> bytes = env.ReadFileBytes("/data");
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = bytes.value();
  corrupted[0] ^= 0x01;
  {
    Result<std::unique_ptr<RandomRWFile>> f =
        env.NewRandomRWFile("/data", /*truncate=*/true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->WriteAt(0, Slice(corrupted)).ok());
  }
  Result<std::unique_ptr<FilePager>> opened = FilePager::Open(&env, "/data");
  EXPECT_FALSE(opened.ok());
}

TEST(FilePagerTest, RestoreRebuildsFromScratch) {
  FaultInjectingEnv env;
  Result<std::unique_ptr<FilePager>> created =
      FilePager::Create(&env, "/data", kPage);
  ASSERT_TRUE(created.ok());
  FilePager& pager = *created.value();
  for (int i = 0; i < 5; ++i) {
    const PageId id = pager.Allocate();
    ASSERT_TRUE(pager.WritePage(id, PagePattern(id).data()).ok());
  }

  // Restore a different shape: pages {2, 4} live up to max id 4.
  ASSERT_TRUE(pager.BeginRestore(4).ok());
  EXPECT_EQ(pager.live_page_count(), 0u);
  ASSERT_TRUE(
      pager.RestorePage(2, Slice(PagePattern(2).data(), kPage)).ok());
  ASSERT_TRUE(
      pager.RestorePage(4, Slice(PagePattern(4).data(), kPage)).ok());
  EXPECT_EQ(pager.live_page_count(), 2u);
  EXPECT_TRUE(pager.IsLive(2));
  EXPECT_FALSE(pager.IsLive(1));
  EXPECT_FALSE(pager.IsLive(3));
  std::vector<char> buf(kPage);
  ASSERT_TRUE(pager.ReadPage(4, buf.data()).ok());
  EXPECT_EQ(buf, PagePattern(4));
}

TEST(FilePagerTest, RejectsTinyPageSize) {
  FaultInjectingEnv env;
  EXPECT_FALSE(FilePager::Create(&env, "/data", 32).ok());
}

TEST(FilePagerTest, WorksOnPosixEnvToo) {
  const std::string path = TempPath("pager_posix");
  {
    Result<std::unique_ptr<FilePager>> created =
        FilePager::Create(Env::Default(), path, kPage);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    FilePager& pager = *created.value();
    const PageId id = pager.Allocate();
    ASSERT_TRUE(pager.WritePage(id, PagePattern(id).data()).ok());
    ASSERT_TRUE(pager.Sync().ok());
  }
  Result<std::unique_ptr<FilePager>> opened =
      FilePager::Open(Env::Default(), path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value()->live_page_count(), 1u);
  Env::Default()->RemoveFile(path);
}

}  // namespace
}  // namespace uindex

// Crash-safety proofs for the persistence layer: with a fault injected at
// EVERY stage of the atomic-replacement protocol (util/atomic_file.h), the
// target path always holds either the complete old file or the complete
// new file — never a torn hybrid. The stages are probed two ways:
//
//   * injected errors (error:ENOSPC and friends): the writer must fail
//     with a clean Status and leave the old file byte-identical;
//   * injected crashes (_exit(42) at the stage, via fork): the process
//     dies with no destructors and the parent inspects the debris, which
//     is exactly what a power cut at that instant would leave.
//
// A deliberately-short write that still commits models the one failure
// the protocol cannot prevent (the environment lying about durability);
// the loader must then refuse the file with a clean Corruption, which
// closes the contract: readers never consume a torn snapshot.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/wc_index.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "labeling/snapshot.h"
#include "paper_fixtures.h"
#include "serve/query_engine.h"
#include "util/atomic_file.h"
#include "util/failpoint.h"

namespace wcsd {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

class CrashSafetyTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoints::ClearAll(); }
  void TearDown() override { failpoints::ClearAll(); }

  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/crash_safety_" + name;
  }
};

// ------------------------------------------------- AtomicFileWriter core

TEST_F(CrashSafetyTest, CommitReplacesAtomically) {
  std::string path = TempPath("basic");
  {
    auto w = AtomicFileWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().Write("old content", 11).ok());
    ASSERT_TRUE(w.value().Commit().ok());
  }
  EXPECT_EQ(ReadAll(path), "old content");
  {
    auto w = AtomicFileWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().Write("new", 3).ok());
    // Until Commit, the target still holds the old bytes.
    EXPECT_EQ(ReadAll(path), "old content");
    ASSERT_TRUE(w.value().Commit().ok());
  }
  EXPECT_EQ(ReadAll(path), "new");
  std::remove(path.c_str());
}

TEST_F(CrashSafetyTest, ErrorAtEveryStageLeavesTheOldFile) {
  // Every pre-commit-point stage: an injected error must fail the write
  // cleanly and leave the old content byte-identical, with no temp debris.
  const char* stages[] = {"atomic_file.open", "atomic_file.write",
                          "atomic_file.sync", "atomic_file.rename"};
  for (const char* stage : stages) {
    std::string path = TempPath(std::string("err_") + stage);
    {
      auto w = AtomicFileWriter::Open(path);
      ASSERT_TRUE(w.ok());
      ASSERT_TRUE(w.value().Write("precious", 8).ok());
      ASSERT_TRUE(w.value().Commit().ok());
    }

    ASSERT_TRUE(failpoints::Set(stage, "error:ENOSPC").ok());
    Status failed = Status::OK();
    {
      auto w = AtomicFileWriter::Open(path);
      if (!w.ok()) {
        failed = w.status();
      } else {
        failed = w.value().Write("replacement", 11);
        if (failed.ok()) failed = w.value().Commit();
      }
    }
    failpoints::Clear(stage);

    EXPECT_FALSE(failed.ok()) << stage;
    EXPECT_EQ(ReadAll(path), "precious") << stage;
    EXPECT_FALSE(
        FileExists(path + ".tmp." + std::to_string(getpid())))
        << stage << " left a temp file";
    std::remove(path.c_str());
  }
}

TEST_F(CrashSafetyTest, DirsyncErrorStillCommits) {
  // The directory fsync runs after the rename: an error there is reported
  // (the entry may not be durable) but the target already holds the
  // complete NEW file — the one post-commit-point stage.
  std::string path = TempPath("dirsync");
  {
    auto w = AtomicFileWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().Write("old", 3).ok());
    ASSERT_TRUE(w.value().Commit().ok());
  }
  ASSERT_TRUE(failpoints::Set("atomic_file.dirsync", "error:EIO").ok());
  {
    auto w = AtomicFileWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().Write("new", 3).ok());
    EXPECT_FALSE(w.value().Commit().ok());
  }
  failpoints::Clear("atomic_file.dirsync");
  EXPECT_EQ(ReadAll(path), "new");
  std::remove(path.c_str());
}

// --------------------------------------------------- snapshot round trips

WcIndex BuildFinalizedFig3() {
  WcIndex index = WcIndex::Build(MakeFigure3Graph(), WcIndexOptions::Plus());
  index.Finalize();
  return index;
}

TEST_F(CrashSafetyTest, SnapshotWriteFaultsLeaveTheOldSnapshotServing) {
  WcIndex index = BuildFinalizedFig3();
  std::string path = TempPath("snap.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string good = ReadAll(path);
  ASSERT_FALSE(good.empty());

  const char* stages[] = {"snapshot.write.header", "snapshot.write.section",
                          "atomic_file.write", "atomic_file.sync",
                          "atomic_file.rename"};
  for (const char* stage : stages) {
    ASSERT_TRUE(failpoints::Set(stage, "error:ENOSPC").ok());
    EXPECT_FALSE(index.SaveSnapshot(path).ok()) << stage;
    failpoints::Clear(stage);
    EXPECT_EQ(ReadAll(path), good) << stage << " tore the old snapshot";
    // The old snapshot still loads and serves.
    auto loaded = WcIndex::LoadMmap(path);
    ASSERT_TRUE(loaded.ok()) << stage << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded.value().Query(2, 5, 2.0f), 2u) << stage;
  }
  std::remove(path.c_str());
}

TEST_F(CrashSafetyTest, ShortCommittedWriteIsRefusedByTheLoader) {
  // The one scenario atomic replacement cannot mask: the write silently
  // truncates but every commit step "succeeds". The file at the target is
  // then torn by construction — and the loader must say so, cleanly.
  WcIndex index = BuildFinalizedFig3();
  std::string path = TempPath("short.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  ASSERT_GT(ReadAll(path).size(), 64u);

  // 64 bytes is well short of the 4 KiB header page, so the header (and
  // its CRC) is guaranteed torn regardless of section sizes.
  ASSERT_TRUE(failpoints::Set("atomic_file.write", "short:64").ok());
  Status st = index.SaveSnapshot(path);
  failpoints::Clear("atomic_file.write");
  // Whether or not the save reported the truncation, the reader is the
  // backstop: a torn snapshot must never load.
  if (st.ok()) {
    auto loaded = WcIndex::LoadMmap(path);
    EXPECT_FALSE(loaded.ok());
  }
  std::remove(path.c_str());
}

TEST_F(CrashSafetyTest, ManifestWriteFaultLeavesTheOldManifest) {
  WcIndex index = BuildFinalizedFig3();
  const FlatLabelSet& flat = index.flat_labels();
  ShardPlanOptions plan_options;
  plan_options.num_shards = 2;
  auto plan = PlanShards(flat, plan_options);
  ASSERT_TRUE(plan.ok());
  std::string stem = TempPath("set");
  auto written = WriteShardSet(stem, flat, plan.value());
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  std::string good = ReadAll(written.value().manifest_path);
  ASSERT_FALSE(good.empty());

  ASSERT_TRUE(failpoints::Set("manifest.write", "error:EIO").ok());
  auto rewritten = WriteShardSet(stem, flat, plan.value());
  failpoints::Clear("manifest.write");
  EXPECT_FALSE(rewritten.ok());
  EXPECT_EQ(ReadAll(written.value().manifest_path), good);
  // The intact set still opens and serves.
  auto engine = QueryEngine::OpenManifest(
      written.value().manifest_path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine.value().Query(2, 5, 2.0f), 2u);
  for (const std::string& p : written.value().shard_paths) {
    std::remove(p.c_str());
  }
  std::remove(written.value().manifest_path.c_str());
}

// ------------------------------------------------------- real crashes

// Sanitizer runtimes and fork do not mix reliably; the crash-at-a-point
// scenarios run in plain builds (CI also covers them end-to-end through
// the CLI crash-recovery smoke).
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__) && \
    !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
#define WCSD_CRASH_TESTS 1
#endif

#ifdef WCSD_CRASH_TESTS

/// Forks; the child arms `stage` as a crash failpoint, attempts the save,
/// and dies AT that stage with no destructors (or exits 1 if the crash
/// never fired). Returns the child's wait status outcome.
int CrashSaveAt(const char* stage, const WcIndex& index,
                const std::string& path) {
  pid_t pid = fork();
  if (pid == 0) {
    // Child: arm, save, and report "no crash" if we survive.
    if (!failpoints::Set(stage, "crash").ok()) _exit(3);
    (void)index.SaveSnapshot(path);
    _exit(1);
  }
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

TEST_F(CrashSafetyTest, CrashBeforeTheRenameLeavesTheOldSnapshot) {
  WcIndex index = BuildFinalizedFig3();
  std::string path = TempPath("crash_pre.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());
  std::string good = ReadAll(path);

  for (const char* stage :
       {"atomic_file.write", "atomic_file.sync", "atomic_file.rename"}) {
    EXPECT_EQ(CrashSaveAt(stage, index, path), 42) << stage;
    EXPECT_EQ(ReadAll(path), good) << "crash at " << stage
                                   << " tore the old snapshot";
    auto loaded = WcIndex::LoadMmap(path);
    ASSERT_TRUE(loaded.ok()) << stage;
    EXPECT_EQ(loaded.value().Query(2, 5, 2.0f), 2u) << stage;
  }
  std::remove(path.c_str());
}

TEST_F(CrashSafetyTest, CrashAfterTheRenameLeavesTheNewSnapshot) {
  WcIndex index = BuildFinalizedFig3();
  std::string path = TempPath("crash_post.wcsnap");
  ASSERT_TRUE(index.SaveSnapshot(path).ok());

  // The dirsync failpoint sits just past the rename: the crash lands
  // after the commit point, so the NEW file must be complete at the
  // target.
  EXPECT_EQ(CrashSaveAt("atomic_file.dirsync", index, path), 42);
  auto loaded = WcIndex::LoadMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().Query(2, 5, 2.0f), 2u);
  std::remove(path.c_str());
}

TEST_F(CrashSafetyTest, CrashNeverLeavesAFreshFileTorn) {
  // First-ever save (no old file): a crash mid-write must leave either
  // nothing at the target or a complete loadable snapshot — a torn
  // half-file would poison the next startup.
  WcIndex index = BuildFinalizedFig3();
  for (const char* stage :
       {"atomic_file.write", "atomic_file.sync", "atomic_file.rename",
        "atomic_file.dirsync"}) {
    std::string path = TempPath(std::string("fresh_") + stage + ".wcsnap");
    std::remove(path.c_str());
    EXPECT_EQ(CrashSaveAt(stage, index, path), 42) << stage;
    if (FileExists(path)) {
      auto loaded = WcIndex::LoadMmap(path);
      ASSERT_TRUE(loaded.ok())
          << "crash at " << stage << " left a torn file at the target";
      EXPECT_EQ(loaded.value().Query(2, 5, 2.0f), 2u);
    }
    std::remove(path.c_str());
  }
}

#endif  // WCSD_CRASH_TESTS

}  // namespace
}  // namespace wcsd

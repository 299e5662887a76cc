// The headline durability test: SIGKILL a process mid-mutation, recover
// from snapshot + WAL, and assert the recovered database is BIT-IDENTICAL
// (float64 matrix and id column; the int8 matrix is a rebuilt cache) to a
// reference built by serially replaying the same operation prefix —
// the crashed process's durable history — from scratch.
//
// Mechanism: this binary is both the gtest suite and the crash child.
// Invoked with --crash_child=<dir> --shards=<S> it recovers
// whatever the directory holds, then applies a DETERMINISTIC op sequence
// (fixed seed; op k gets WAL seq k+1 because every op succeeds by
// construction) through a DurableBackend until it is killed.  The parent
// forks/execs itself, waits until a snapshot exists AND a WAL tail has
// grown past it, SIGKILLs the child mid-stream, recovers, reads
// last_seq() = L, and replays ops[0..L) serially into the reference.
// A second generation (kill, restart the child so IT recovers, kill
// again, recover) checks that recovery composes with itself.  Each case
// runs over one shard (the "Mono" tests) and over three.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/persist/durability.h"
#include "src/persist/durable_backend.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/util/logging.h"
#include "tests/line_universe.h"
#include "tests/test_util.h"

namespace qse {
namespace persist {

using test::DxOfObject;
using test::kLineDims;
using test::LineEmbedder;
using test::MakeDx;
using test::Mix64;

namespace {

constexpr uint64_t kCrashSeed = 0x9a7e5c0ffeeull;
constexpr size_t kMaxOps = 500000;

struct CrashOp {
  bool insert;
  size_t id;
};

/// The deterministic op sequence both the child and the reference replay.
/// Every op is valid by construction (fresh ids for inserts, live ids for
/// removes), so the op at index k is exactly the mutation that got WAL
/// sequence k + 1 — the key that lets the parent reconstruct the durable
/// prefix from last_seq() alone.
std::vector<CrashOp> MakeCrashOps(uint64_t seed, size_t count) {
  std::vector<CrashOp> ops;
  ops.reserve(count);
  std::vector<size_t> live;
  size_t next_id = 0;
  uint64_t state = seed;
  auto rnd = [&state]() {
    state = Mix64(state + 0x632be59bd9b4e019ull);
    return state;
  };
  for (size_t i = 0; i < count; ++i) {
    const bool insert =
        live.size() < 64 || (live.size() < 4096 && (rnd() & 1) != 0);
    if (insert) {
      const size_t id = next_id++;
      live.push_back(id);
      ops.push_back({true, id});
    } else {
      const size_t pick = rnd() % live.size();
      const size_t id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ops.push_back({false, id});
    }
  }
  return ops;
}

DurabilityOptions CrashOptions(const std::string& dir, size_t shards) {
  DurabilityOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kEveryN;
  options.fsync_every_n = 8;
  // Different cadences so the shard counts cut snapshots at different
  // seqs.
  options.snapshot_every_records = shards > 1 ? 97 : 64;
  return options;
}

/// The op stream of one shard count.
std::vector<CrashOp> CrashOpsFor(size_t shards) {
  return MakeCrashOps(kCrashSeed + (shards > 1 ? 1 : 0), kMaxOps);
}

/// An engine over `shards` owned shards.
struct Stack {
  explicit Stack(size_t shards)
      : engine(&embedder, &scorer, ShardedEngineOptions{shards, 1}) {}

  std::vector<EmbeddedDatabase*> dbs() { return test::ShardDbs(&engine); }

  /// Installs the recovered snapshot and replays the WAL tail.
  Status Recover(DurabilityManager* manager) {
    QSE_RETURN_IF_ERROR(manager->InstallSnapshot(dbs()));
    engine.RebuildIdIndex();
    return manager->Replay(&engine).status();
  }

  LineEmbedder embedder;
  L2Scorer scorer;
  RetrievalEngine engine;
};

Status ApplyOp(RetrievalBackend* backend, const CrashOp& op) {
  return op.insert ? backend->Insert(op.id, DxOfObject(op.id))
                   : backend->Remove(op.id);
}

}  // namespace

/// The crash child: recover the directory, then apply the deterministic
/// op stream from wherever the durable history ends, until killed.
/// Returns nonzero only on a genuine failure (the parent expects to
/// SIGKILL us, never to see a clean exit).
int RunCrashChild(const std::string& dir, size_t shards) {
  const DurabilityOptions options = CrashOptions(dir, shards);
  StatusOr<std::unique_ptr<DurabilityManager>> opened =
      DurabilityManager::Open(options);
  QSE_CHECK_MSG(opened.ok(), "child open failed: " << opened.status());
  DurabilityManager* manager = opened.value().get();

  Stack stack(shards);
  Status recovered = stack.Recover(manager);
  QSE_CHECK_MSG(recovered.ok(), "child recovery failed: " << recovered);
  std::vector<EmbeddedDatabase*> dbs = stack.dbs();
  DurableBackend durable(&stack.engine, &stack.embedder, manager,
                         {dbs.begin(), dbs.end()});
  const std::vector<CrashOp> ops = CrashOpsFor(shards);
  const uint64_t start = manager->last_seq();
  QSE_CHECK(start <= ops.size());

  // Recovery done: tell the parent we are live, then mutate until killed.
  { std::ofstream ready(dir + "/ready"); ready << start; }
  for (size_t i = static_cast<size_t>(start); i < ops.size(); ++i) {
    Status status = ApplyOp(&durable, ops[i]);
    QSE_CHECK_MSG(status.ok(),
                  "child op " << i << " failed: " << status.ToString());
  }
  return 0;
}

namespace {

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

pid_t SpawnChild(const std::string& dir, size_t shards) {
  std::remove((dir + "/ready").c_str());
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  QSE_CHECK_MSG(n > 0, "readlink /proc/self/exe failed");
  exe[n] = '\0';
  const pid_t pid = ::fork();
  QSE_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    std::string child_flag = "--crash_child=" + dir;
    std::string shards_flag = "--shards=" + std::to_string(shards);
    char* argv[] = {exe, child_flag.data(), shards_flag.data(), nullptr};
    ::execv(exe, argv);
    _exit(127);  // execv only returns on failure.
  }
  return pid;
}

/// Polls until `done` holds, failing the test (and reaping the child) if
/// the child dies early or the deadline passes.
template <typename Predicate>
bool WaitUntil(pid_t pid, const Predicate& done, const char* what) {
  for (int spins = 0; spins < 30000; ++spins) {  // ~30s at 1ms.
    if (done()) return true;
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
      ADD_FAILURE() << "crash child exited early while waiting for " << what
                    << " (status " << wstatus << ")";
      return false;
    }
    ::usleep(1000);
  }
  ADD_FAILURE() << "timed out waiting for " << what;
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return false;
}

void KillAndReap(pid_t pid) {
  ASSERT_EQ(0, ::kill(pid, SIGKILL));
  int wstatus = 0;
  ASSERT_EQ(pid, ::waitpid(pid, &wstatus, 0));
  ASSERT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL)
      << "child did not die by SIGKILL: status " << wstatus;
}

/// Exact answer parity between two same-shaped backends.
void ExpectSameAnswers(const RetrievalBackend& a, const RetrievalBackend& b) {
  for (size_t q = 0; q < 24; ++q) {
    const double xq =
        static_cast<double>(Mix64(kCrashSeed + q) >> 11) * 0x1p-53;
    RetrievalOptions options(8, SIZE_MAX);
    StatusOr<RetrievalResponse> ra = a.Retrieve({MakeDx(xq), options});
    StatusOr<RetrievalResponse> rb = b.Retrieve({MakeDx(xq), options});
    ASSERT_TRUE(ra.ok()) << ra.status();
    ASSERT_TRUE(rb.ok()) << rb.status();
    EXPECT_EQ(ra->neighbors, rb->neighbors);
  }
}

/// Kill-window controller: wait until the durability dir shows a
/// published snapshot AND a WAL tail beyond it, linger a moment so the
/// kill lands mid-stream, then SIGKILL.
void KillAfterSnapshotAndTail(pid_t pid, const std::string& dir,
                              unsigned linger_ms) {
  const bool reached = WaitUntil(
      pid,
      [&] {
        return FileExists(dir + "/snapshot.qse") &&
               FileSize(dir + "/wal.qse") > kWalFileHeaderBytes + 256;
      },
      "snapshot + WAL tail");
  if (!reached) return;
  ::usleep(linger_ms * 1000);
  KillAndReap(pid);
}

/// Recovery + golden-parity assertion for one shard count.
/// `generations` is how many kill cycles to run; each restart makes the
/// CHILD recover before continuing the op stream.
void RunCrashRecoverTest(size_t shards, int generations) {
  const std::string dir = test::FreshDir("crash_recover");
  const DurabilityOptions options = CrashOptions(dir, shards);

  for (int gen = 0; gen < generations; ++gen) {
    const pid_t pid = SpawnChild(dir, shards);
    if (gen == 0) {
      KillAfterSnapshotAndTail(pid, dir, 5 + 4 * static_cast<unsigned>(gen));
    } else {
      // Later generations: wait for the child to finish ITS recovery and
      // make fresh progress, then kill again.
      const uint64_t size_at_spawn = FileSize(dir + "/wal.qse");
      const bool reached = WaitUntil(
          pid,
          [&] {
            return FileExists(dir + "/ready") &&
                   FileSize(dir + "/wal.qse") != size_at_spawn;
          },
          "second-generation progress");
      if (!reached) return;
      ::usleep(20000);
      KillAndReap(pid);
    }
    if (::testing::Test::HasFailure()) return;
  }

  // Recover in-process.
  StatusOr<std::unique_ptr<DurabilityManager>> opened =
      DurabilityManager::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurabilityManager* manager = opened.value().get();
  EXPECT_TRUE(manager->recovery().loaded_snapshot);
  const uint64_t kills_left_torn_tail = manager->recovery().repaired_bytes;
  std::printf("[ crash ] S=%zu: snapshot cut %llu, wal tail %llu records, "
              "repaired %llu torn bytes\n",
              shards,
              static_cast<unsigned long long>(
                  manager->recovery().snapshot_cut_seq),
              static_cast<unsigned long long>(manager->recovery().wal_records),
              static_cast<unsigned long long>(kills_left_torn_tail));

  Stack recovered(shards);
  Status status = recovered.Recover(manager);
  ASSERT_TRUE(status.ok()) << status;

  // The durable history is exactly ops[0..L): rebuild it serially.
  const uint64_t L = manager->last_seq();
  ASSERT_GT(L, 0u);
  const std::vector<CrashOp> ops = CrashOpsFor(shards);
  ASSERT_LE(L, ops.size());
  Stack reference(shards);
  for (uint64_t i = 0; i < L; ++i) {
    status = ApplyOp(&reference.engine, ops[static_cast<size_t>(i)]);
    ASSERT_TRUE(status.ok()) << "reference op " << i << ": " << status;
  }
  for (size_t s = 0; s < shards; ++s) {
    test::ExpectDbsIdentical(reference.engine.db(s), recovered.engine.db(s),
                             "recovered shard " + std::to_string(s));
  }
  ExpectSameAnswers(reference.engine, recovered.engine);
}

TEST(CrashRecover, MonoKillRecoverBitIdentical) {
  RunCrashRecoverTest(1, 1);
}

TEST(CrashRecover, ShardedKillRecoverBitIdentical) {
  RunCrashRecoverTest(3, 1);
}

TEST(CrashRecover, MonoTwoGenerationsOfKills) {
  RunCrashRecoverTest(1, 2);
}

TEST(CrashRecover, ShardedTwoGenerationsOfKills) {
  RunCrashRecoverTest(3, 2);
}

}  // namespace
}  // namespace persist
}  // namespace qse

int main(int argc, char** argv) {
  std::string dir;
  size_t shards = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--crash_child=", 14) == 0) {
      dir = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::strtoul(argv[i] + 9, nullptr, 10);
    }
  }
  if (!dir.empty()) return qse::persist::RunCrashChild(dir, shards);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

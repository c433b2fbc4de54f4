// Crash recovery: a child process runs a durable serve::Server, applies
// acknowledged edit batches over loopback, then is SIGKILLed mid-epoch right
// after a partial journal append (exactly what power loss during a write
// leaves behind).  The parent restarts serving on the same journal and the
// replayed view must be byte-identical to a fresh core::solve over the same
// edit stream — for the incremental engine under repair-dominated and
// rebuild-heavy regimes, and for the batch engine, which keeps no warm
// state and recovers from the journal alone.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/generators.hpp"
#include "util/io.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

constexpr std::size_t kN = 900;
constexpr u64 kInstanceSeed = 4242;
constexpr u64 kStreamSeed = 777;
constexpr std::size_t kBatches = 12;
constexpr std::size_t kBatch = 8;

/// The same deterministic workload on both sides of the crash.
graph::Instance crash_instance() {
  util::Rng rng(kInstanceSeed);
  return util::random_function(kN, 5, rng);
}

std::vector<inc::Edit> crash_stream(util::EditMix mix) {
  const graph::Instance inst = crash_instance();
  util::Rng rng(kStreamSeed);
  return util::random_edit_stream(inst, kBatches * kBatch, mix, 6, rng);
}

/// Child side: serve durably, land every batch (acked => journaled, the
/// fsync=Always policy makes each record crash-safe), optionally checkpoint
/// halfway, then die the ugly way with half a record appended.
[[noreturn]] void run_child(const std::string& journal, const std::string& engine_kind,
                            util::EditMix mix, bool checkpoint_halfway) {
  try {
    serve::ServerOptions opt;
    opt.journal_path = journal;
    opt.fsync = serve::FsyncPolicy::Always;
    serve::Server server(engines().make(engine_kind, crash_instance()), opt);
    std::thread loop([&server] { server.run(); });
    serve::Client client = serve::Client::connect("127.0.0.1", server.port());

    const std::vector<inc::Edit> stream = crash_stream(mix);
    u64 epoch = 0;
    for (std::size_t i = 0; i < kBatches; ++i) {
      epoch = client.apply(std::span(stream).subspan(i * kBatch, kBatch));
      if (checkpoint_halfway && i + 1 == kBatches / 2) client.checkpoint();
    }

    // Tear the tail: a record whose bytes stop partway through, fsynced so
    // the recovering parent definitely sees the torn prefix.
    const std::string rec =
        util::encode_journal_record({epoch, {inc::Edit::set_b(0, 123456)}});
    const int fd = ::open(journal.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) _exit(4);
    if (::write(fd, rec.data(), rec.size() - 5) != static_cast<ssize_t>(rec.size() - 5)) {
      _exit(5);
    }
    ::fsync(fd);
    ::raise(SIGKILL);  // no destructors, no flush — a real crash
    _exit(6);          // unreachable
  } catch (...) {
    _exit(3);
  }
}

void run_crash_recovery(const std::string& tag, const std::string& engine_kind,
                        util::EditMix mix, bool checkpoint_halfway) {
  const std::string dir = ::testing::TempDir() + "serve_crash_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/wal";

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) run_child(journal, engine_kind, mix, checkpoint_halfway);

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with "
                                   << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
                                   << " instead of dying by signal";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Restart serving on the crashed journal, exactly like `sfcp_cli serve`:
  // restore the checkpoint when one exists, replay the journal tail.
  serve::ServerOptions opt;
  opt.journal_path = journal;
  std::unique_ptr<Engine> engine =
      serve::recover_engine(journal + ".ckpt", engine_kind, crash_instance());
  serve::Server server(std::move(engine), opt);

  const serve::ServeStats st = server.stats();
  EXPECT_TRUE(st.journal_tail_torn) << "the partial append must be detected as a tear";
  if (checkpoint_halfway) {
    // The checkpoint reset the journal; only post-checkpoint batches remain.
    EXPECT_EQ(st.recovered_records, kBatches - kBatches / 2);
  } else {
    EXPECT_EQ(st.recovered_records, kBatches);
  }

  // Oracle: a fresh solve over the identically edited instance, plus a
  // reference engine for the epoch clock (epoch counts state-changing edits,
  // so it is chunking-invariant).
  graph::Instance reference = crash_instance();
  const std::vector<inc::Edit> stream = crash_stream(mix);
  for (const inc::Edit& e : stream) inc::apply_raw(e, reference.f, reference.b);
  const core::Result want = core::solve(reference);
  std::unique_ptr<Engine> ref_engine = engines().make(engine_kind, crash_instance());
  ref_engine->apply(stream);

  EXPECT_EQ(server.engine().epoch(), ref_engine->epoch());
  const core::PartitionView v = server.engine().view();
  EXPECT_EQ(v.num_classes(), want.num_blocks);
  const std::span<const u32> labels = v.labels();
  ASSERT_EQ(labels.size(), want.q.size());
  EXPECT_TRUE(std::equal(labels.begin(), labels.end(), want.q.begin(), want.q.end()))
      << "replayed view must be byte-identical to a fresh solve";

  std::filesystem::remove_all(dir);
}

TEST(ServeCrashRecovery, IncrementalRepairRegime) {
  run_crash_recovery("inc_repair", "incremental", util::EditMix::LocalizedHotspot, false);
}

TEST(ServeCrashRecovery, IncrementalRebuildRegime) {
  run_crash_recovery("inc_rebuild", "incremental", util::EditMix::CycleChurn, false);
}

TEST(ServeCrashRecovery, BatchEngineReplaysJournal) {
  run_crash_recovery("batch", "batch", util::EditMix::LocalizedHotspot, false);
}

TEST(ServeCrashRecovery, CheckpointMidwayThenCrash) {
  run_crash_recovery("inc_ckpt", "incremental", util::EditMix::LocalizedHotspot, true);
}

TEST(ServeCrashRecovery, UniformCheckpointMidwayThenCrash) {
  run_crash_recovery("inc_ckpt_uniform", "incremental", util::EditMix::Uniform, true);
}

}  // namespace
}  // namespace sfcp

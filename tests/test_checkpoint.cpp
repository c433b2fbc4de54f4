// sfcp-checkpoint v1: a warm IncrementalSolver round-trips through save/load
// — labels, counters, maps, epoch and stats — and keeps answering edits
// identically to the original; malformed streams fail loudly.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine.hpp"
#include "inc/incremental_solver.hpp"
#include "util/generators.hpp"
#include "util/io.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

void apply_single(inc::IncrementalSolver& solver, const inc::Edit& e) {
  if (e.kind == inc::Edit::Kind::SetF) {
    solver.set_f(e.node, e.value);
  } else {
    solver.set_b(e.node, e.value);
  }
}

/// A solver warmed by a mixed edit stream, so the checkpoint carries live
/// cycle classes, signature refcounts and non-trivial stats.
inc::IncrementalSolver warmed_solver(std::size_t n, u64 seed, std::size_t edits) {
  util::Rng rng(seed);
  auto inst = util::random_function(n, 4, rng);
  util::Rng stream_rng(seed + 1);
  const auto stream = util::random_edit_stream(inst, edits, util::EditMix::Uniform, 6, stream_rng);
  inc::IncrementalSolver solver(std::move(inst));
  for (const auto& e : stream) apply_single(solver, e);
  return solver;
}

std::string checkpoint_bytes(const inc::IncrementalSolver& solver) {
  std::ostringstream os;
  solver.save(os);
  return os.str();
}

TEST(Checkpoint, RoundTripRestoresTheWholeEngine) {
  const inc::IncrementalSolver original = warmed_solver(1500, 90, 100);
  std::istringstream is(checkpoint_bytes(original));
  const inc::IncrementalSolver restored = inc::IncrementalSolver::load(is);

  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.epoch(), original.epoch());
  EXPECT_EQ(restored.num_blocks(), original.num_blocks());
  EXPECT_EQ(restored.stats().edits, original.stats().edits);
  EXPECT_EQ(restored.stats().repairs, original.stats().repairs);
  EXPECT_EQ(restored.stats().rebuilds, original.stats().rebuilds);

  const core::Result a = original.snapshot();
  const core::Result b = restored.snapshot();
  EXPECT_EQ(a.q, b.q);
  EXPECT_EQ(a.num_blocks, b.num_blocks);
  EXPECT_EQ(a.num_cycles, b.num_cycles);
  EXPECT_EQ(a.cycle_nodes, b.cycle_nodes);
  EXPECT_EQ(a.kept_tree_nodes, b.kept_tree_nodes);
  EXPECT_EQ(a.residual_tree_nodes, b.residual_tree_nodes);
}

TEST(Checkpoint, SaveIsDeterministic) {
  const inc::IncrementalSolver original = warmed_solver(800, 91, 80);
  const std::string first = checkpoint_bytes(original);
  // Save -> load -> save must reproduce the byte stream (sections are
  // key-sorted, so equal engines write equal files).
  std::istringstream is(first);
  const inc::IncrementalSolver restored = inc::IncrementalSolver::load(is);
  EXPECT_EQ(checkpoint_bytes(restored), first);
}

TEST(Checkpoint, RestoredEngineKeepsAnsweringEditsIdentically) {
  inc::IncrementalSolver original = warmed_solver(1200, 92, 60);
  std::istringstream is(checkpoint_bytes(original));
  inc::IncrementalSolver restored = inc::IncrementalSolver::load(is);

  util::Rng stream_rng(93);
  const auto more = util::random_edit_stream(original.instance(), 80, util::EditMix::Uniform, 6,
                                             stream_rng);
  for (const auto& e : more) {
    apply_single(original, e);
    apply_single(restored, e);
  }
  EXPECT_EQ(original.snapshot().q, restored.snapshot().q);
  // And the restored engine still matches a fresh solve — its maps were
  // genuinely warm, not just cosmetically equal.
  const core::Result fresh = core::solve(restored.instance());
  EXPECT_EQ(restored.snapshot().q, fresh.q);
}

TEST(Checkpoint, FileHelpersRoundTrip) {
  const inc::IncrementalSolver original = warmed_solver(600, 94, 40);
  const std::string path = ::testing::TempDir() + "sfcp_checkpoint_test.bin";
  inc::save_checkpoint_file(path, original);
  const inc::IncrementalSolver restored = inc::load_checkpoint_file(path);
  EXPECT_EQ(restored.snapshot().q, original.snapshot().q);
  std::remove(path.c_str());
  EXPECT_THROW(inc::load_checkpoint_file(path), std::runtime_error);
}

// ---- error paths ---------------------------------------------------------

TEST(Checkpoint, BadMagicIsRejected) {
  std::istringstream empty("");
  EXPECT_THROW(inc::IncrementalSolver::load(empty), std::runtime_error);

  std::istringstream text("sfcp-instance v1\n3\n0 1 2\n0 0 0\n");
  EXPECT_THROW(inc::IncrementalSolver::load(text), std::runtime_error);

  std::string bytes = checkpoint_bytes(warmed_solver(64, 95, 10));
  bytes[1] ^= 0x20;  // corrupt the magic
  std::istringstream is(bytes);
  EXPECT_THROW(inc::IncrementalSolver::load(is), std::runtime_error);
}

TEST(Sharded, CheckpointErrorPaths) {
  // load_engine_checkpoint dispatches on the magic: a plain stream loads as
  // "incremental"; garbage and the retired sharded magic are rejected,
  // whether or not bytes follow it.
  const std::string good = checkpoint_bytes(warmed_solver(64, 95, 10));
  std::istringstream plain(good);
  const LoadedEngine loaded = load_engine_checkpoint(plain);
  EXPECT_EQ(loaded.kind, "incremental");
  EXPECT_EQ(loaded.engine->kind(), "incremental");
  std::istringstream garbage("not a checkpoint at all");
  EXPECT_THROW(load_engine_checkpoint(garbage), std::runtime_error);
  const std::string retired_sharded_magic("\x7f" "sfcks1\n", 8);
  for (const std::string& tail : {std::string(), good.substr(8)}) {
    std::istringstream retired(retired_sharded_magic + tail);
    EXPECT_THROW(load_engine_checkpoint(retired), std::runtime_error)
        << tail.size() << " bytes after the magic";
  }
}

TEST(Checkpoint, TruncationAtEveryBoundaryIsRejected) {
  const std::string bytes = checkpoint_bytes(warmed_solver(128, 96, 20));
  // Probe a spread of prefix lengths, including section boundaries near the
  // start and the very last byte; every one must throw, never crash or
  // silently succeed.
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, std::size_t{8}, std::size_t{20},
                          bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    std::istringstream is(bytes.substr(0, len));
    EXPECT_THROW(inc::IncrementalSolver::load(is), std::runtime_error)
        << "prefix of " << len << " bytes";
  }
}

TEST(Checkpoint, HugeLabelBoundIsRejectedBeforeAllocating) {
  inc::IncrementalSolver original = warmed_solver(64, 98, 10);
  std::string bytes = checkpoint_bytes(original);
  // The u32 label bound sits after the checkpoint magic, the embedded
  // instance section and the u64 epoch; a corrupt ~4e9 value must throw
  // instead of sizing the per-label arrays to gigabytes.
  const std::size_t bound_offset = 8 + (8 + 4 + 2 * original.size() * 4) + 8;
  ASSERT_LT(bound_offset + 4, bytes.size());
  for (std::size_t i = 0; i < 4; ++i) bytes[bound_offset + i] = static_cast<char>(0xfe);
  std::istringstream is(bytes);
  EXPECT_THROW(inc::IncrementalSolver::load(is), std::runtime_error);
}

TEST(Checkpoint, CorruptLabelIsRejected) {
  inc::IncrementalSolver original = warmed_solver(64, 97, 10);
  std::string bytes = checkpoint_bytes(original);
  // The label array starts right after the embedded instance section (8-byte
  // checkpoint magic + 8-byte instance magic + u32 n + 2n u32 arrays) and
  // the u64 epoch + u32 label bound.  Overwrite the first label with a value
  // far above the label bound.
  const std::size_t n = original.size();
  const std::size_t q_offset = 8 + (8 + 4 + 2 * n * 4) + 8 + 4;
  ASSERT_LT(q_offset + 4, bytes.size());
  bytes[q_offset + 0] = static_cast<char>(0xff);
  bytes[q_offset + 1] = static_cast<char>(0xff);
  bytes[q_offset + 2] = static_cast<char>(0xff);
  bytes[q_offset + 3] = static_cast<char>(0x7f);
  std::istringstream is(bytes);
  EXPECT_THROW(inc::IncrementalSolver::load(is), std::runtime_error);
}

}  // namespace
}  // namespace sfcp

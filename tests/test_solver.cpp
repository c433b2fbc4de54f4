// The session API: Solver workspace reuse, solve_batch, ExecutionContext
// isolation, and the strategy registry.
//
// Acceptance-critical invariants:
//   * a Solver constructed once and reused across solves produces
//     byte-identical canonical labels to fresh per-call core::solve, for
//     every strategy in the registry;
//   * solve_batch matches per-instance solve on a 100-instance mixed
//     workload;
//   * two Solvers with different ExecutionContexts run concurrently without
//     interfering (labels and metrics).
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "core/solver.hpp"
#include "core/verify.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

std::vector<graph::Instance> mixed_workload(std::size_t count, u64 seed) {
  util::Rng rng(seed);
  std::vector<graph::Instance> insts;
  insts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    switch (i % 5) {
      case 0:
        insts.push_back(util::random_function(1 + rng.below(700), 1 + rng.below(5), rng));
        break;
      case 1:
        insts.push_back(util::random_permutation(1 + rng.below(400), 3, rng));
        break;
      case 2:
        insts.push_back(util::long_tail(64 + rng.below(400), 8, 2, rng));
        break;
      case 3:
        insts.push_back(util::bushy(64 + rng.below(400), 4, 16, 2, rng));
        break;
      default:
        insts.push_back(util::mergeable(64 + rng.below(400), 4, rng));
        break;
    }
  }
  return insts;
}

TEST(Registry, EnumeratesEveryCombinationPlusAliases) {
  const auto& reg = sfcp::registry();
  // 3 detectors x 2 structures x 3 tree labelers + parallel + sequential.
  EXPECT_EQ(reg.all().size(), 3u * 2u * 3u + 2u);
  std::set<std::string> names;
  for (const auto& e : reg.all()) names.insert(e.name);
  EXPECT_EQ(names.size(), reg.all().size()) << "registry names must be unique";
  EXPECT_NE(reg.find("parallel"), nullptr);
  EXPECT_NE(reg.find("sequential"), nullptr);
  EXPECT_NE(reg.find("euler-jump-level"), nullptr);
  EXPECT_EQ(reg.find("no-such-strategy"), nullptr);
  try {
    (void)reg.at("no-such-strategy");
    FAIL() << "at() must throw for unknown names";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-strategy"), std::string::npos);
  }
}

TEST(Registry, AddReplacesByName) {
  core::StrategyRegistry reg;
  reg.add({"x", "first", core::Options::parallel()});
  reg.add({"x", "second", core::Options::sequential()});
  ASSERT_EQ(reg.all().size(), 1u);
  EXPECT_EQ(reg.find("x")->description, "second");
}

// One Solver reused across >= 2 solves must match fresh per-call
// core::solve byte-for-byte, for every registry strategy.
TEST(Solver, ReusedWorkspaceMatchesFreshSolveForEveryStrategy) {
  const auto insts = mixed_workload(6, 0xA11CE);
  for (const auto& entry : sfcp::registry().all()) {
    core::Solver solver(entry.options);
    for (const auto& inst : insts) {
      const core::Result got = solver.solve(inst);
      const core::Result want = core::solve(inst, entry.options);
      ASSERT_EQ(got.q, want.q) << "strategy " << entry.name;
      ASSERT_EQ(got.num_blocks, want.num_blocks) << "strategy " << entry.name;
    }
    // Same instance twice through the same solver: identical output.
    const core::Result a = solver.solve(insts[0]);
    const core::Result b = solver.solve(insts[0]);
    ASSERT_EQ(a.q, b.q) << "strategy " << entry.name;
  }
}

TEST(Solver, WorkspaceSurvivesShrinkingAndGrowingInstances) {
  util::Rng rng(77);
  core::Solver solver;
  for (const std::size_t n : {2000u, 10u, 1500u, 1u, 800u}) {
    const auto inst = util::random_function(n, 3, rng);
    const auto got = solver.solve(inst);
    EXPECT_EQ(got.q, core::solve(inst).q) << "n=" << n;
  }
}

// The same reuse on the pooled path: at grain 64 every round of these
// instances splits across both lanes.  Labels must stay byte-identical to a
// sequential solve through a smaller, a tree-less and a deep instance, and
// solving the first instance again must reuse the buffers of the forest
// context and of the Euler partition it holds, whether the cycle detector
// built that partition or the tree labelling did.
TEST(Solver, PooledWorkspaceReusesForestContextAcrossInstances) {
  util::Rng rng(0xF0E57);
  const graph::Instance tree_heavy = util::random_function(5000, 3, rng);
  const graph::Instance insts[] = {tree_heavy, util::random_permutation(4096, 3, rng),
                                   util::long_tail(4000, 8, 2, rng), tree_heavy};
  std::vector<std::vector<u32>> want;
  for (const auto& inst : insts) want.push_back(core::solve(inst, core::Options::sequential()).q);
  const auto buffers = [](const core::Solver& solver) {
    const graph::ForestContext& fc = solver.workspace().tl.forest;
    const graph::EulerPartition& arcs = fc.arcs;
    return std::vector<const void*>{arcs.pre_off.data(), arcs.pre.data(), arcs.succ.data(),
                                    arcs.leader.data(),  arcs.pos.data(), fc.level.data(),
                                    fc.root_of.data()};
  };
  for (const auto& entry : sfcp::registry().all()) {
    core::Solver solver(entry.options, pram::ExecutionContext{}.with_threads(2).with_grain(64));
    std::vector<const void*> first;
    for (std::size_t i = 0; i < std::size(insts); ++i) {
      ASSERT_EQ(solver.solve(insts[i]).q, want[i])
          << "strategy " << entry.name << " instance " << i;
      if (i == 0) first = buffers(solver);
    }
    EXPECT_EQ(buffers(solver), first) << "strategy " << entry.name;
  }
}

// The forest shapes the Euler partition's layout distinguishes: self-loop
// roots and 2-cycles, cycle nodes whose cycle predecessor is their smallest
// or largest preimage (one of the two runs empty), a tree on every cycle
// node, a deep chain and many components.  Every registry strategy, at 1, 2
// and 4 threads, must label them byte for byte as the sequential solve;
// under `seq-*` and `powers-*` the tree labelling builds the partition
// itself.
TEST(Solver, RegistryMatchesSequentialOnEulerPartitionShapes) {
  const auto instance_of = [](std::vector<u32> f) {
    graph::Instance inst;
    for (std::size_t x = 0; x < f.size(); ++x) inst.b.push_back(static_cast<u32>(x % 3 % 2));
    inst.f = std::move(f);
    return inst;
  };
  std::vector<graph::Instance> insts{
      instance_of({0, 1, 3, 2, 5, 4, 0, 6, 1, 2, 3, 3, 9, 4}),
      instance_of({1, 7, 7, 5, 8, 6, 7, 5, 6, 6, 5}),
  };
  std::vector<u32> ring(200), chain(1u << 14), blocks(3000);
  for (u32 v = 0; v < 50; ++v) {
    ring[v] = (v + 1) % 50;
    ring[v + 50] = v;
    ring[v + 100] = v + 50;
    ring[v + 150] = v;
  }
  for (u32 x = 0; x < chain.size(); ++x) chain[x] = x == 0 ? 0 : x - 1;
  util::Rng rng(0x5A9E);
  for (u32 x = 0; x < blocks.size(); ++x) blocks[x] = x / 5 * 5 + static_cast<u32>(rng.below(5));
  for (auto* f : {&ring, &chain, &blocks}) insts.push_back(instance_of(std::move(*f)));
  for (const auto& inst : insts) {
    const auto want = core::solve(inst, core::Options::sequential()).q;
    for (const int threads : {1, 2, 4}) {
      for (const auto& entry : sfcp::registry().all()) {
        core::Solver solver(entry.options,
                            pram::ExecutionContext{}.with_threads(threads).with_grain(64));
        ASSERT_EQ(solver.solve(inst).q, want)
            << "strategy " << entry.name << ", " << threads << " threads, n=" << inst.size();
      }
    }
  }
}

// A permutation with hundreds of cycles of very different lengths: cycle
// labelling balances them across lanes by node count, and the Euler
// detector stops at the preimage lists.  One tree node attached to it
// takes every stage down its tree path instead.  Every registry strategy,
// at 1, 2 and 4 threads, must label both byte for byte as the sequential
// solve.
TEST(Solver, RegistryMatchesSequentialOnManyCyclePermutations) {
  util::Rng rng(0xC1C1E);
  graph::Instance perm;
  for (u32 piece = 0; piece < 64; ++piece) {
    const auto part = util::random_permutation(512, 3, rng);
    for (std::size_t x = 0; x < part.size(); ++x) {
      perm.f.push_back(piece * 512 + part.f[x]);
      perm.b.push_back(part.b[x]);
    }
  }
  graph::Instance attached = perm;
  attached.f.push_back(static_cast<u32>(rng.below(perm.size())));
  attached.b.push_back(1);
  for (const auto* inst : {&perm, &attached}) {
    const auto want = core::solve(*inst, core::Options::sequential()).q;
    for (const int threads : {1, 2, 4}) {
      for (const auto& entry : sfcp::registry().all()) {
        core::Solver solver(entry.options,
                            pram::ExecutionContext{}.with_threads(threads).with_grain(64));
        ASSERT_EQ(solver.solve(*inst).q, want)
            << "strategy " << entry.name << ", " << threads << " threads, n=" << inst->size();
      }
    }
  }
}

TEST(Solver, SolveBatchMatchesPerInstanceOn100InstanceMixedWorkload) {
  const auto insts = mixed_workload(100, 0xBA7C4);
  core::Solver solver;
  const auto batch = solver.solve_batch(insts);
  ASSERT_EQ(batch.size(), insts.size());
  for (std::size_t i = 0; i < insts.size(); ++i) {
    const core::Result want = core::solve(insts[i]);
    ASSERT_EQ(batch[i].result.q, want.q) << "instance " << i;
    ASSERT_EQ(batch[i].result.num_blocks, want.num_blocks) << "instance " << i;
    EXPECT_GT(batch[i].metrics.operations, 0u) << "instance " << i;
    EXPECT_GT(batch[i].metrics.rounds, 0u) << "instance " << i;
  }
}

TEST(Solver, SolveBatchMatchesPerInstanceForEveryStrategy) {
  const auto insts = mixed_workload(8, 0x5EED);
  for (const auto& entry : sfcp::registry().all()) {
    core::Solver solver(entry.options);
    const auto batch = solver.solve_batch(insts);
    for (std::size_t i = 0; i < insts.size(); ++i) {
      ASSERT_EQ(batch[i].result.q, core::solve(insts[i], entry.options).q)
          << "strategy " << entry.name << " instance " << i;
    }
  }
}

TEST(Solver, SolveBatchLeavesSessionSinkUntouched) {
  pram::Metrics session;
  core::Solver solver(core::Options::parallel(),
                      pram::ExecutionContext{}.with_metrics(&session));
  const auto insts = mixed_workload(4, 0xF00D);
  const auto batch = solver.solve_batch(insts);
  // Batch work is charged to the per-instance sinks, not the session sink.
  EXPECT_EQ(session.ops(), 0u);
  u64 total = 0;
  for (const auto& e : batch) total += e.metrics.operations;
  EXPECT_GT(total, 0u);
  // A plain solve() afterwards charges the session sink again.
  (void)solver.solve(insts[0]);
  EXPECT_GT(session.ops(), 0u);
}

TEST(Solver, ContextThreadCountDoesNotChangeLabels) {
  util::Rng rng(13007);
  const auto inst = util::random_function(600, 3, rng);
  const core::Result want = core::solve(inst);
  for (int t : {1, 2, 8}) {
    core::Solver solver(core::Options::parallel(),
                        pram::ExecutionContext{}.with_threads(t).with_grain(64));
    EXPECT_EQ(solver.solve(inst).q, want.q) << "threads=" << t;
  }
}

// Two sessions with different contexts, running concurrently from two
// threads, must neither corrupt each other's labels nor leak work into each
// other's metrics sinks.  Work counts are deterministic for a fixed context,
// so each session must observe exactly the totals it observes when running
// alone.
TEST(Solver, ConcurrentSessionsWithDifferentContextsDoNotInterfere) {
  const auto insts = mixed_workload(12, 0xC0FFEE);
  std::vector<core::Result> expected;
  expected.reserve(insts.size());
  for (const auto& inst : insts) expected.push_back(core::solve(inst));

  const auto run_session = [&](int threads, std::size_t grain, pram::Metrics& sink,
                               int repeats, std::atomic<bool>& labels_ok) {
    core::Solver solver(core::Options::parallel(), pram::ExecutionContext{}
                                                       .with_threads(threads)
                                                       .with_grain(grain)
                                                       .with_metrics(&sink));
    for (int r = 0; r < repeats; ++r) {
      for (std::size_t i = 0; i < insts.size(); ++i) {
        if (solver.solve(insts[i]).q != expected[i].q) {
          labels_ok.store(false);
        }
      }
    }
  };

  // Solo baselines (deterministic per-context op totals).
  pram::Metrics solo_a, solo_b;
  std::atomic<bool> ok_solo{true};
  run_session(1, 4096, solo_a, 1, ok_solo);
  run_session(4, 64, solo_b, 1, ok_solo);
  ASSERT_TRUE(ok_solo.load());

  pram::Metrics m_a, m_b;
  std::atomic<bool> ok_a{true}, ok_b{true};
  constexpr int kRepeats = 3;
  std::thread ta([&] { run_session(1, 4096, m_a, kRepeats, ok_a); });
  std::thread tb([&] { run_session(4, 64, m_b, kRepeats, ok_b); });
  ta.join();
  tb.join();
  EXPECT_TRUE(ok_a.load()) << "session A produced wrong labels under concurrency";
  EXPECT_TRUE(ok_b.load()) << "session B produced wrong labels under concurrency";
  EXPECT_EQ(m_a.ops(), kRepeats * solo_a.ops()) << "session A's sink saw foreign work";
  EXPECT_EQ(m_b.ops(), kRepeats * solo_b.ops()) << "session B's sink saw foreign work";
}

TEST(Validate, NamesTheOffendingSizesAndIndex) {
  graph::Instance mismatched;
  mismatched.f = {0, 1, 2};
  mismatched.b = {0, 1};
  try {
    graph::validate(mismatched);
    FAIL() << "size mismatch must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("|b| = 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("|f| = 3"), std::string::npos) << msg;
  }

  graph::Instance out_of_range;
  out_of_range.f = {0, 1, 2, 99, 1, 98};
  out_of_range.b = {0, 0, 0, 0, 0, 0};
  try {
    graph::validate(out_of_range);
    FAIL() << "out-of-range f must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("f[3] = 99"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[0, 6)"), std::string::npos) << msg;
  }
}

TEST(Validate, SolveAndSolveBatchRejectMalformedInstances) {
  graph::Instance bad;
  bad.f = {0, 7};
  bad.b = {0, 0};
  core::Solver solver;
  EXPECT_THROW((void)solver.solve(bad), std::invalid_argument);
  EXPECT_THROW((void)core::solve(bad), std::invalid_argument);

  util::Rng rng(5);
  std::vector<graph::Instance> batch;
  batch.push_back(util::random_function(50, 2, rng));
  batch.push_back(bad);
  batch.push_back(util::random_function(50, 2, rng));
  EXPECT_THROW((void)solver.solve_batch(batch), std::invalid_argument);
}

TEST(Solver, ResultsAreCorrectPartitions) {
  const auto insts = mixed_workload(10, 0xCAFE);
  core::Solver solver;
  const auto batch = solver.solve_batch(insts);
  for (std::size_t i = 0; i < insts.size(); ++i) {
    const auto report = core::verify_solution(insts[i], batch[i].result.q);
    EXPECT_TRUE(report.ok()) << "instance " << i << ": " << report.to_string();
  }
}

}  // namespace
}  // namespace sfcp

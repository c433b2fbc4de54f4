// The repair delta as a first-class value: a delta taken from the solver
// and applied to the previous view must reproduce a fresh solve exactly
// (for all three edit regimes, on the repair and rebuild paths), its
// class-churn lists must balance the block count, and the adaptive policy
// must stay byte-correct while its cost fit converges.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/coarsest_partition.hpp"
#include "inc/incremental_solver.hpp"
#include "inc/repair_delta.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

std::vector<u32> to_vec(std::span<const u32> s) { return {s.begin(), s.end()}; }

void expect_delta_well_formed(const inc::RepairDelta& d, const std::string& what) {
  if (d.full) {
    EXPECT_TRUE(d.nodes.empty()) << what;
    EXPECT_EQ(d.touched_classes(), 0u) << what;
    return;
  }
  // The three categories partition the touched labels.
  std::set<u32> seen;
  for (const auto* list : {&d.classes_created, &d.classes_destroyed, &d.classes_resized}) {
    for (const u32 l : *list) {
      EXPECT_TRUE(seen.insert(l).second) << what << ": label " << l << " in two categories";
    }
  }
  std::set<u32> nodes(d.nodes.begin(), d.nodes.end());
  EXPECT_EQ(nodes.size(), d.nodes.size()) << what << ": duplicate delta nodes";
}

/// Drives one solver through a stream in chunks; after every chunk the
/// flushed delta, applied to the previously reconstructed view, must equal
/// a fresh core::solve of the evolved instance — the delta invariant.
void run_delta_invariant(graph::Instance inst, util::EditMix mix, std::size_t count, u64 seed,
                         inc::RepairPolicy policy, const std::string& what,
                         std::size_t chunk_size = 7) {
  util::Rng rng(seed);
  const auto stream = util::random_edit_stream(inst, count, mix, 6, rng);
  graph::Instance reference = inst;
  inc::IncrementalSolver solver(std::move(inst), core::Options::parallel(), {}, policy);

  u32 blocks_before = solver.num_blocks();
  core::PartitionView reconstructed =
      core::PartitionView::from_raw(to_vec(solver.labels()), solver.label_bound(),
                                    solver.num_blocks(), solver.epoch(),
                                    solver.view_counters());
  solver.take_delta();  // drop the construction window; start clean

  for (std::size_t i = 0; i < stream.size(); i += chunk_size) {
    const auto chunk =
        std::span<const inc::Edit>(stream).subspan(i, std::min(chunk_size, stream.size() - i));
    for (const inc::Edit& e : chunk) inc::apply_raw(e, reference.f, reference.b);
    solver.apply(chunk);

    const inc::RepairDelta d = solver.take_delta();
    const std::string at = what + " after " + std::to_string(i + chunk.size()) + " edits";
    expect_delta_well_formed(d, at);
    ASSERT_EQ(d.epoch, solver.epoch()) << at;

    if (d.full) {
      reconstructed = core::PartitionView::from_raw(to_vec(solver.labels()),
                                                    solver.label_bound(), solver.num_blocks(),
                                                    solver.epoch(), solver.view_counters());
    } else {
      // Class churn balances the block count over a repair-only window.
      const auto created = static_cast<i64>(d.classes_created.size());
      const auto destroyed = static_cast<i64>(d.classes_destroyed.size());
      ASSERT_EQ(static_cast<i64>(solver.num_blocks()) - static_cast<i64>(blocks_before),
                created - destroyed)
          << at;
      reconstructed = core::PartitionView::patched_from_delta(
          reconstructed, d.nodes, solver.labels(), solver.label_bound(), solver.num_blocks(),
          solver.epoch(), solver.view_counters());
    }
    blocks_before = solver.num_blocks();

    const core::Result want = core::solve(reference);
    ASSERT_EQ(reconstructed.num_classes(), want.num_blocks) << at;
    const std::span<const u32> q = reconstructed.labels();
    ASSERT_TRUE(std::equal(q.begin(), q.end(), want.q.begin(), want.q.end()))
        << "delta-reconstructed view diverged from fresh solve, " << at;
    const core::ViewCounters& c = reconstructed.counters();
    ASSERT_EQ(c.num_cycles, want.num_cycles) << at;
    ASSERT_EQ(c.cycle_nodes, want.cycle_nodes) << at;
    ASSERT_EQ(c.kept_tree_nodes, want.kept_tree_nodes) << at;
    ASSERT_EQ(c.residual_tree_nodes, want.residual_tree_nodes) << at;
  }
}

inc::RepairPolicy repair_biased(std::size_t n) {
  inc::RepairPolicy p;
  p.max_dirty_fraction = 1.0;
  p.min_dirty_absolute = n;
  return p;
}

inc::RepairPolicy rebuild_biased() {
  inc::RepairPolicy p;
  p.max_dirty_fraction = 0.0;
  p.min_dirty_absolute = 0;
  return p;
}

inc::RepairPolicy adaptive_policy() {
  inc::RepairPolicy p;
  p.adaptive = true;
  return p;
}

// ---- the invariant, three regimes x repair/rebuild/adaptive paths --------

TEST(RepairDelta, InvariantLocalizedRepairPath) {
  util::Rng rng(501);
  const auto inst = util::random_function(1200, 4, rng);
  run_delta_invariant(inst, util::EditMix::LocalizedHotspot, 140, 41,
                      repair_biased(inst.size()), "localized/repair");
}

TEST(RepairDelta, InvariantUniformRepairPath) {
  util::Rng rng(502);
  const auto inst = util::random_function(1200, 4, rng);
  run_delta_invariant(inst, util::EditMix::Uniform, 140, 42, repair_biased(inst.size()),
                      "uniform/repair");
}

TEST(RepairDelta, InvariantChurnRepairPath) {
  util::Rng rng(503);
  const auto inst = util::random_function(1200, 4, rng);
  run_delta_invariant(inst, util::EditMix::CycleChurn, 120, 43, repair_biased(inst.size()),
                      "churn/repair");
}

TEST(RepairDelta, InvariantRebuildPath) {
  util::Rng rng(504);
  const auto inst = util::random_function(900, 4, rng);
  for (const auto mix :
       {util::EditMix::LocalizedHotspot, util::EditMix::Uniform, util::EditMix::CycleChurn}) {
    run_delta_invariant(inst, mix, 60, 44, rebuild_biased(),
                        "rebuild mix=" + std::to_string(static_cast<int>(mix)));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RepairDelta, InvariantMixedDefaultPolicy) {
  util::Rng rng(505);
  const auto inst = util::random_function(1500, 4, rng);
  run_delta_invariant(inst, util::EditMix::CycleChurn, 120, 45, inc::RepairPolicy{},
                      "churn/default");
}

TEST(RepairDelta, InvariantAdaptivePolicy) {
  util::Rng rng(506);
  const auto inst = util::random_function(1200, 4, rng);
  for (const auto mix :
       {util::EditMix::LocalizedHotspot, util::EditMix::Uniform, util::EditMix::CycleChurn}) {
    run_delta_invariant(inst, mix, 120, 46, adaptive_policy(),
                        "adaptive mix=" + std::to_string(static_cast<int>(mix)));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---- delta bookkeeping ---------------------------------------------------

TEST(RepairDelta, ConstructionWindowIsFullAndEmpty) {
  util::Rng rng(507);
  inc::IncrementalSolver solver(util::random_function(300, 3, rng));
  const inc::RepairDelta d = solver.take_delta();
  EXPECT_TRUE(d.full);  // the construction solve owes consumers a refresh
  EXPECT_TRUE(d.empty());
  EXPECT_TRUE(d.nodes.empty());
  // A clean flush right after is empty and not full.
  const inc::RepairDelta d2 = solver.take_delta();
  EXPECT_TRUE(d2.empty());
  EXPECT_FALSE(d2.full);
}

TEST(RepairDelta, NoOpEditsProduceEmptyDeltas) {
  util::Rng rng(508);
  const auto inst = util::random_function(200, 3, rng);
  inc::IncrementalSolver solver{graph::Instance(inst)};
  solver.take_delta();
  solver.set_b(5, inst.b[5]);
  solver.set_f(6, inst.f[6]);
  const inc::RepairDelta d = solver.take_delta();
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.epoch, 0u);
}

TEST(RepairDelta, ViewAfterExternalTakeReRootsCorrectly) {
  util::Rng rng(509);
  graph::Instance inst = util::random_function(400, 4, rng);
  inc::IncrementalSolver solver{graph::Instance(inst)};
  solver.view();
  util::Rng srng(510);
  const auto stream = util::random_edit_stream(inst, 30, util::EditMix::Uniform, 5, srng);
  for (const inc::Edit& e : stream) inc::apply_raw(e, inst.f, inst.b);
  solver.apply(stream);
  solver.take_delta();  // delta leaves through the side door...
  const core::Result want = core::solve(inst);
  const core::PartitionView v = solver.view();  // ...so view() must re-root
  ASSERT_EQ(v.num_classes(), want.num_blocks);
  const std::span<const u32> q = v.labels();
  EXPECT_TRUE(std::equal(q.begin(), q.end(), want.q.begin(), want.q.end()));
}

TEST(RepairDelta, DeltaStatsAccumulate) {
  util::Rng rng(511);
  graph::Instance inst = util::random_function(600, 4, rng);
  inc::IncrementalSolver solver(std::move(inst), core::Options::parallel(), {},
                                repair_biased(600));
  solver.take_delta();
  util::Rng srng(512);
  const auto stream =
      util::random_edit_stream(solver.instance(), 40, util::EditMix::Uniform, 5, srng);
  u64 nodes_total = 0;
  for (const inc::Edit& e : stream) {
    if (e.kind == inc::Edit::Kind::SetF) {
      solver.set_f(e.node, e.value);
    } else {
      solver.set_b(e.node, e.value);
    }
    nodes_total += solver.take_delta().nodes.size();
  }
  const inc::DeltaStats& ds = solver.delta_stats();
  EXPECT_GT(ds.windows, 0u);
  EXPECT_EQ(ds.nodes, nodes_total);
  EXPECT_GT(ds.classes_created + ds.classes_destroyed + ds.classes_resized, 0u);
}

// ---- adaptive policy convergence -----------------------------------------

TEST(RepairDelta, AdaptiveFitConvergesAndStaysCorrect) {
  util::Rng rng(513);
  graph::Instance inst = util::random_function(2000, 4, rng);
  graph::Instance reference = inst;
  inc::IncrementalSolver solver(std::move(inst), core::Options::parallel(), {},
                                adaptive_policy());
  // The construction solve anchors the rebuild side immediately.
  EXPECT_GE(solver.cost_model().full_samples, 1u);
  util::Rng srng(514);
  const auto stream =
      util::random_edit_stream(reference, 150, util::EditMix::LocalizedHotspot, 6, srng);
  for (const inc::Edit& e : stream) inc::apply_raw(e, reference.f, reference.b);
  // Small chunks keep apply() on the per-edit path (a whole-stream batch
  // would trip the batch-rebuild shortcut and feed no repair samples).
  for (std::size_t i = 0; i < stream.size(); i += 10) {
    solver.apply(std::span<const inc::Edit>(stream).subspan(
        i, std::min<std::size_t>(10, stream.size() - i)));
  }
  EXPECT_GT(solver.cost_model().unit_samples, 8u);  // repairs fed the unit side
  EXPECT_TRUE(solver.cost_model().fitted());
  EXPECT_GT(solver.cost_model().crossover(), 0.0);
  const core::Result want = core::solve(reference);
  const std::span<const u32> q = solver.view().labels();
  ASSERT_TRUE(std::equal(q.begin(), q.end(), want.q.begin(), want.q.end()));
}

}  // namespace
}  // namespace sfcp

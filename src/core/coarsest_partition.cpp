#include "core/coarsest_partition.hpp"

#include <utility>

#include "prim/rename.hpp"
#include "prof/profile.hpp"

namespace sfcp::core {

namespace {
ViewCounters counters_of(const Result& r) {
  return ViewCounters{r.num_cycles, r.cycle_nodes, r.kept_tree_nodes, r.residual_tree_nodes};
}
}  // namespace

PartitionView Result::view(u64 epoch) const& {
  return PartitionView::from_canonical(q, num_blocks, epoch, counters_of(*this));
}

PartitionView Result::view(u64 epoch) && {
  return PartitionView::from_canonical(std::move(q), num_blocks, epoch, counters_of(*this));
}

Result PartitionView::to_result() const {
  Result r;
  const std::span<const u32> q = labels();
  r.q.assign(q.begin(), q.end());
  r.num_blocks = num_classes();
  const ViewCounters& c = counters();
  r.num_cycles = c.num_cycles;
  r.cycle_nodes = c.cycle_nodes;
  r.kept_tree_nodes = c.kept_tree_nodes;
  r.residual_tree_nodes = c.residual_tree_nodes;
  return r;
}

Options Options::parallel() { return Options{}; }

Options Options::sequential() {
  Options o;
  o.cycle_detect = graph::CycleDetectStrategy::Sequential;
  o.cycle_structure = graph::CycleStructureStrategy::Sequential;
  o.cycle_labeling.msp = strings::MspStrategy::Booth;
  o.cycle_labeling.parallel_period = false;
  o.tree_labeling.strategy = TreeLabelStrategy::SequentialDFS;
  return o;
}

std::size_t SolveWorkspace::capacity_bytes() const noexcept {
  const auto b = [](const auto& v) { return v.capacity() * sizeof(*v.data()); };
  const graph::ForestContext& fc = tl.forest;
  const graph::EulerPartition& arcs = fc.arcs;
  return b(on_cycle) + b(cs.on_cycle) + b(cs.leader) + b(cs.rank) + b(cs.length) +
         b(cs.cycle_nodes) + b(cs.cycle_offset) + b(cs.cycle_of) + b(cl.q) + b(cl.period) +
         b(cl.msp) + b(cl.class_id) + b(tl.q) + b(arcs.pre_off) + b(arcs.pre) + b(arcs.succ) +
         b(arcs.leader) + b(arcs.pos) + b(fc.level) + b(fc.root_of) + b(fc.scratch) +
         tl.table.bytes();
}

Result solve(const graph::Instance& inst, const Options& opt) {
  SolveWorkspace ws;
  return solve(inst, opt, ws);
}

Result solve(const graph::Instance& inst, const Options& opt, SolveWorkspace& ws) {
  graph::validate(inst);
  Result result;
  const std::size_t n = inst.size();
  if (n == 0) return result;
  prof::Scope prof_solve("solve");

  // Step 1 (Section 5): mark the cycle nodes with the configured detector
  // (Euler partition by default, per the paper), then derive the full cycle
  // structure (leader, rank, contiguous arrangement).  The Euler detector
  // leaves its ranked partition where the tree labelling reads it.
  {
    prof::Scope s("cycle_detect");
    prof::charge_bytes(8 * n);  // read f, write on_cycle (one logical pass)
    graph::find_cycle_nodes_into(inst.f, opt.cycle_detect, ws.on_cycle, ws.tl.forest.arcs);
  }
  {
    prof::Scope s("cycle_structure");
    prof::charge_bytes(16 * n);  // leader/rank/arrangement over all nodes
    graph::cycle_structure_with_flags_into(inst.f, ws.on_cycle, opt.cycle_structure, ws.cs);
  }

  // Step 2 (Section 3): Q-labels of cycle nodes.
  {
    prof::Scope s("cycle_label");
    prof::charge_bytes(8 * ws.cs.cycle_nodes.size());
    prof::charge_flops(2 * ws.cs.cycle_nodes.size());  // period + necklace compares
    label_cycles_into(inst, ws.cs, opt.cycle_labeling, ws.cl);
  }

  // Step 3 (Section 4): Q-labels of tree nodes.
  {
    prof::Scope s("tree_label");
    prof::charge_bytes(16 * n);  // forest build + signature passes
    prof::charge_flops(2 * n);
    label_trees_into(inst, ws.cs, ws.cl, opt.tree_labeling, ws.tl,
                     opt.cycle_detect == graph::CycleDetectStrategy::EulerTour);
  }

  // Canonicalize to first-occurrence dense labels.
  prof::Scope prof_rename("rename");
  prof::charge_bytes(8 * n);  // read q, write dense labels
  auto canon = prim::canonicalize_labels(ws.tl.q);
  result.q = std::move(canon.labels);
  result.num_blocks = canon.num_classes;
  result.num_cycles = static_cast<u32>(ws.cs.num_cycles());
  result.cycle_nodes = static_cast<u32>(ws.cs.cycle_nodes.size());
  result.kept_tree_nodes = ws.tl.kept;
  result.residual_tree_nodes = ws.tl.residual;
  return result;
}

}  // namespace sfcp::core

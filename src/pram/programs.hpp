#pragma once
// The paper's algorithms written as *PRAM programs* for the step simulator —
// the closest this reproduction gets to running the 1993 pseudocode as-is.
//
// Each builder returns a self-contained program (round function + memory
// layout + termination predicate) for pram::Simulator.  The pooled library
// code computes the same results fast; these programs exist to measure the
// paper's claims in the paper's own cost model: exact synchronous rounds
// and processor activations, under the exact write discipline.
//
//   * broadcast_or  — the [9]-style "is any bit set" flag raise
//                     (common CRCW, O(1) rounds)
//   * list_rank     — Wyllie pointer jumping (CREW, ceil(lg n) rounds)
//   * partition_round / simulate_partition — Algorithm partition §3.2
//                     (ARBITRARY CRCW: writers carry different values)

#include <functional>
#include <memory>
#include <vector>

#include "pram/simulator.hpp"
#include "pram/types.hpp"

namespace sfcp::pram {

/// A packaged PRAM program: construct with make_*, run with `run`.
/// (The simulator lives behind a shared_ptr so the program's closures can
/// reference it safely across moves.)
struct Program {
  std::shared_ptr<Simulator> sim;
  Simulator::RoundFn round;
  std::function<bool()> done;
  u64 max_rounds = 0;

  /// Executes the program and returns the simulator's report.
  SimReport run() { return sim->run(round, done, max_rounds); }
};

/// Flag-raise OR over `bits`: after one round, cell 0 holds 1 iff any bit
/// is set.  Requires (at least) common CRCW — the program FAULTS on CREW,
/// which is exactly the [9] separation the tests assert.
Program make_broadcast_or(PramModel model, const std::vector<u8>& bits);

/// Wyllie list ranking over successor array `next` (kNone-terminated
/// single list): memory holds next[0..n) and rank[n..2n); terminates when
/// all pointers reach the tail.  CREW suffices.
Program make_list_rank(PramModel model, const std::vector<u32>& next);

/// One round j of Algorithm partition (§3.2) on k cycles of length l
/// stored flat in EQ[0..kl): each participating position d writes its id
/// into BB[EQ[d], EQ[d+2^{j-1}]] and reads the winner back.  BB is realized
/// as a dense (kl)^2 table inside simulator memory — exactly the paper's
/// layout.  Needs ARBITRARY CRCW (writers disagree); common CRCW faults
/// whenever two cycles share a label pair.
Program make_partition_round(PramModel model, const std::vector<u32>& eq, u32 j);

/// Runs Algorithm partition (§3.2) to completion on the simulator for k
/// cycles of power-of-two length l given B-labels flat in `labels`;
/// returns the final EQ array (one label per position) and the report.
struct PartitionRun {
  std::vector<u32> eq;
  SimReport report;
};
PartitionRun simulate_partition(PramModel model, const std::vector<u32>& labels, u32 k, u32 l);

}  // namespace sfcp::pram

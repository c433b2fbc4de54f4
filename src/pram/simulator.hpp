#pragma once
// An explicit PRAM step simulator.
//
// The production code paths of this library run on a worker pool
// (pram/parallel_for) and only *account* PRAM work.  This module complements them with a faithful
// executable model of the machine the paper states its bounds on: P
// processors over a shared memory, advancing in synchronous rounds of
//
//     read phase  ->  compute phase  ->  write phase
//
// with the write-conflict discipline of the chosen PRAM variant:
//
//   * EREW      — concurrent reads OR writes to one cell are a fault
//   * CREW      — concurrent reads allowed, concurrent writes are a fault
//   * CommonCRCW    — concurrent writes allowed iff all write the same value
//   * ArbitraryCRCW — one of the concurrent writers wins (deterministically:
//                     the lowest processor id, a valid "arbitrary" choice)
//
// The simulator checks the discipline every round and reports violations,
// so tests can *prove* statements like "Algorithm partition needs arbitrary
// CRCW" (the paper's Remark after Lemma 3.11) by running the same program
// under a weaker model and observing the fault.
//
// Programs are written as round functions: given a processor id and a
// read-only snapshot of memory, emit read/write requests.  Cost accounting
// (rounds = time, sum of active processors = operations) matches the
// paper's work measure.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pram/types.hpp"

namespace sfcp::pram {

enum class PramModel { Erew, Crew, CommonCrcw, ArbitraryCrcw };

/// A single write request issued by a processor in a round.
struct WriteRequest {
  u32 address;
  u32 value;
};

/// Outcome of a simulated program run.
struct SimReport {
  u64 rounds = 0;       ///< synchronous steps executed ("parallel time")
  u64 operations = 0;   ///< total processor-round activations ("work")
  bool faulted = false; ///< a conflict violated the model's discipline
  std::string fault;    ///< human-readable description of the first fault

  bool ok() const { return !faulted; }
};

/// A synchronous PRAM with `memory_size` shared cells and `processors`
/// processors, simulated round by round under `model`.
class Simulator {
 public:
  /// Per-round program: called once per active processor id with a snapshot
  /// of memory as of the round start; returns the writes to apply (empty =
  /// idle this round).  Reads are implicit through the snapshot; read
  /// conflicts are checked via declare_reads (optional, EREW only).
  using RoundFn =
      std::function<std::vector<WriteRequest>(u32 pid, std::span<const u32> memory)>;

  /// Optional read-set declaration for EREW read-conflict checking: list of
  /// addresses each processor reads this round.
  using ReadSetFn = std::function<std::vector<u32>(u32 pid)>;

  Simulator(PramModel model, std::size_t memory_size, u32 processors);

  /// Executes one synchronous round; returns false if the model faulted
  /// (memory is left at the round-start state in that case).
  bool step(const RoundFn& fn, const ReadSetFn& reads = nullptr);

  /// Runs `fn` for up to `max_rounds` rounds or until `done` returns true.
  SimReport run(const RoundFn& fn, const std::function<bool()>& done, u64 max_rounds,
                const ReadSetFn& reads = nullptr);

  std::span<const u32> memory() const { return mem_; }
  std::span<u32> memory() { return mem_; }
  u32 processors() const { return processors_; }
  const SimReport& report() const { return report_; }

 private:
  PramModel model_;
  std::vector<u32> mem_;
  u32 processors_;
  SimReport report_;
};

/// Name of a model, for messages and test labels.
std::string to_string(PramModel model);

}  // namespace sfcp::pram

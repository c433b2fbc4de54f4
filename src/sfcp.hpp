#pragma once
// Umbrella header: the full public API of the sfcp library.
//
//   #include "sfcp.hpp"
//
// Solving (the session API): construct a Solver once, reuse it.
//
//   sfcp::graph::Instance inst = ...;               // A_f and A_B
//   sfcp::pram::Metrics metrics;
//   sfcp::core::Solver solver(
//       sfcp::registry().at("parallel"),            // strategy by name
//       sfcp::pram::ExecutionContext{}              // per-session knobs:
//           .with_threads(4)                        //   thread budget
//           .with_metrics(&metrics));               //   isolated work counters
//   sfcp::core::PartitionView v = solver.solve_view(inst);
//
// Querying (the read surface): every producer hands back an immutable,
// shareable core::PartitionView — O(1) class_of/same_class/class_size, a
// lazily-built CSR members index, class iteration, and an epoch() stamp.
//
//   v.same_class(x, y);                 // iff one block of the coarsest
//                                       // f-stable refinement holds both
//   v.class_members(v.class_of(x));     // that block, ascending
//   for (auto [id, members] : v.classes()) ...
//
// The classic record is still there: Result r = solver.solve(inst) (labels
// in r.q), r.view() to lift it, and core::solve(inst) as the one-shot free
// function.
//
// Serving (edits against a live instance): program against sfcp::Engine and
// pick an implementation from sfcp::engines() — "incremental" repairs the
// dirty region per edit (inc::IncrementalSolver), "batch" re-solves lazily
// per epoch (core::Solver).
//
//   auto eng = sfcp::engines().make("incremental", std::move(inst));
//   eng->set_b(x, 3);                         // O(dirty) repair
//   sfcp::core::PartitionView v1 = eng->view();   // O(dirty) snapshot,
//   eng->set_f(y, z);                             // isolated from this edit
//   eng->save_checkpoint(os);                 // sfcp-checkpoint v1: restart
//                                             // warm via
//                                             // sfcp::load_engine_checkpoint
//
// Views taken from an engine are snapshots: edits applied afterwards never
// change a view a reader already holds, and view() after k localized edits
// costs O(dirty region), not O(n) — the canonical renaming is maintained
// incrementally as a patch chain (core/partition_view.hpp).
//
// Dirtiness itself is a first-class value: repairs accumulate an
// inc::RepairDelta (relabelled nodes + created/destroyed/resized classes,
// inc/repair_delta.hpp) that views patch from, and the adaptive
// RepairPolicy mode fits its repair-vs-rebuild crossover from
// (pram::CostModel; --policy adaptive in sfcp_cli).
// Engine::serving_stats() reports the delta and policy counters.
//
// Serving over the network: serve::Server puts any engine behind a durable
// epoch-batched TCP front end speaking `sfcp-wire v1` (serve/protocol.hpp)
// with an `sfcp-journal v1` write-ahead log + auto-checkpoint recovery
// (serve/journal.hpp); serve::Client is its blocking peer.  `sfcp_cli
// serve`/`connect` drive it from the shell.
//
// Fleet serving (many instances behind one surface): fleet::FleetEngine
// multiplexes up to millions of small instance-keyed engines — open-
// addressed id→slot routing with on-demand factory materialization, a
// bounded warm set whose LRU tail is checkpointed to a cold tier (memory or
// spill dir) and faulted back byte-identically, cold-start floods batched
// through core::Solver::solve_batch, and per-instance arrays drawn from a
// shared fleet::SlabArena (the pram::ExecutionContext::arena hook).  A
// fleet-mode serve::Server speaks FLEET_EDIT/FLEET_VIEW and journals per-
// instance records; `sfcp_cli fleet` serves one from the shell and the
// connect REPL routes with `instance <id>` — see fleet/fleet_engine.hpp.
//
// Strategy selection: sfcp::registry() enumerates every cycle-detect x
// cycle-structure x tree-labelling combination ("euler-jump-level", ...)
// plus the "parallel" and "sequential" aliases — see core/registry.hpp.
// Execution configuration: pram::ExecutionContext (threads, grain, metrics
// sink, RNG seed) installs thread-locally, so concurrent sessions with
// different settings never interfere — see pram/execution_context.hpp.
//
// Profiling (builds configured with -DSFCP_PROFILE=ON): prof::ScopedProfiler
// installs a session profiler, solver/incremental/fleet/serve hot paths open
// prof::Scope phases with charged FLOP/byte counts, and the merged
// prof::ProfileTree travels through Engine::serving_stats(), the STATS wire
// frame and bench --json records — rendered as a roofline against the
// bench_machine_peak STREAM measurement by tools/profile_report.py.  In
// default builds every scope compiles out — see prof/profile.hpp.

#include "core/baselines.hpp"
#include "core/coarsest_partition.hpp"
#include "core/cycle_labeling.hpp"
#include "core/moore.hpp"
#include "core/partition_view.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "core/tree_labeling.hpp"
#include "core/verify.hpp"
#include "engine.hpp"
#include "fleet/fleet_engine.hpp"
#include "fleet/slab_arena.hpp"
#include "graph/cycle_detect.hpp"
#include "graph/cycle_structure.hpp"
#include "graph/euler_tour.hpp"
#include "graph/functional_graph.hpp"
#include "graph/orbits.hpp"
#include "graph/reverse_adjacency.hpp"
#include "graph/rooted_forest.hpp"
#include "inc/edit.hpp"
#include "inc/incremental_solver.hpp"
#include "inc/repair_delta.hpp"
#include "pram/arena.hpp"
#include "pram/config.hpp"
#include "pram/execution_context.hpp"
#include "pram/metrics.hpp"
#include "pram/types.hpp"
#include "prim/compact.hpp"
#include "prim/find_first.hpp"
#include "prim/hash_table.hpp"
#include "prim/integer_sort.hpp"
#include "prim/list_ranking.hpp"
#include "prim/merge.hpp"
#include "prim/rename.hpp"
#include "prim/scan.hpp"
#include "prof/clock.hpp"
#include "prof/profile.hpp"
#include "serve/client.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "strings/lyndon.hpp"
#include "strings/matching.hpp"
#include "strings/msp.hpp"
#include "strings/necklace.hpp"
#include "strings/period.hpp"
#include "strings/string_sort.hpp"
#include "strings/suffix_array.hpp"
#include "util/dot_export.hpp"
#include "util/generators.hpp"
#include "util/io.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

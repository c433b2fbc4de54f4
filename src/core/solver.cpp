#include "core/solver.hpp"

#include <algorithm>
#include <exception>
#include <mutex>

#include "pram/config.hpp"
#include "pram/worker_pool.hpp"

namespace sfcp::core {

Result Solver::solve(const graph::Instance& inst) {
  pram::ScopedContext guard(&ctx_);
  return core::solve(inst, opt_, ws_);
}

PartitionView Solver::solve_view(const graph::Instance& inst, u64 epoch) {
  return solve(inst).view(epoch);
}

std::vector<Solver::BatchEntry> Solver::solve_batch(std::span<const graph::Instance> instances) {
  std::vector<BatchEntry> out(instances.size());
  std::vector<pram::MetricsSnapshot> metrics =
      solve_batch(instances, [&out](std::size_t i, Result&& r, const SolveWorkspace&) {
        out[i].result = std::move(r);
      });
  for (std::size_t i = 0; i < out.size(); ++i) out[i].metrics = metrics[i];
  return out;
}

std::vector<pram::MetricsSnapshot> Solver::solve_batch(
    std::span<const graph::Instance> instances, const BatchConsumer& consume) {
  const std::size_t m = instances.size();
  if (m == 0) return {};

  // Validate everything up front so a malformed instance throws before any
  // solving starts (and from the calling thread, not a pool worker).
  // Charged to no sink: each instance's own validation inside solve() is
  // what its per-instance metrics report.
  {
    pram::ExecutionContext preflight = ctx_;
    preflight.metrics = nullptr;
    pram::ScopedContext guard(preflight);
    for (const auto& inst : instances) graph::validate(inst);
  }

  // Fan the instances over the session pool: each solves serially on its
  // lane, where threads() is pinned to 1 (fleet floods have m >> width, so
  // outer parallelism is all that matters), with per-instance metrics and
  // seed.  A lone instance, or a session of width 1, solves on the calling
  // thread at the session width.  Lanes own their workspaces, amortized
  // across the batch.
  pram::WorkerPool* pool = nullptr;
  if (m > 1) {
    pram::ScopedContext session(&ctx_);
    if (const int width = pram::threads(); width > 1) pool = &pram::session_pool(width);
  }
  std::vector<pram::Metrics> sinks(m);
  std::vector<SolveWorkspace> workspaces(pool != nullptr ? pool->width() : 1);
  std::exception_ptr error;
  std::mutex error_mu;
  auto solve_one = [&](std::size_t i) {
    // Per-instance catch: one bad instance must not stop this lane from
    // claiming the rest of the batch.
    try {
      pram::ExecutionContext local = ctx_;
      local.metrics = &sinks[i];
      local.seed = ctx_.seed + static_cast<u64>(i);
      pram::ScopedContext guard(&local);
      // Workers are lanes 0..width()-2; the caller takes the last one.
      const int lane = pool != nullptr ? pram::WorkerPool::lane() : -1;
      SolveWorkspace& ws =
          workspaces[lane >= 0 ? static_cast<std::size_t>(lane) : workspaces.size() - 1];
      Result r = core::solve(instances[i], opt_, ws);
      // The consumer runs before this lane's workspace is overwritten by
      // its next instance — the only window in which ws describes r.
      consume(i, std::move(r), ws);
    } catch (...) {
      const std::lock_guard<std::mutex> lk(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  if (pool != nullptr) {
    pool->fan(m, solve_one);
  } else {
    for (std::size_t i = 0; i < m; ++i) solve_one(i);
  }
  if (error) std::rethrow_exception(error);

  std::vector<pram::MetricsSnapshot> out(m);
  for (std::size_t i = 0; i < m; ++i) out[i] = sinks[i].snapshot();
  return out;
}

}  // namespace sfcp::core

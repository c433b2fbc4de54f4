#include "engine.hpp"

#include <cstring>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/io.hpp"

namespace sfcp {

namespace {

void validate_edits(const graph::Instance& inst, std::span<const inc::Edit> edits) {
  for (const inc::Edit& e : edits) inc::validate_edit(e, inst.size(), "Engine");
}

}  // namespace

BatchEngine::BatchEngine(graph::Instance inst, core::Options opt, pram::ExecutionContext ctx)
    : inst_(std::move(inst)), solver_(opt, ctx) {
  graph::validate(inst_);
}

BatchEngine::BatchEngine(graph::Instance inst, core::Result seed, core::Options opt,
                         pram::ExecutionContext ctx)
    : inst_(std::move(inst)), solver_(opt, ctx) {
  graph::validate(inst_);
  if (seed.q.size() != inst_.size()) {
    throw std::invalid_argument("BatchEngine: seed result size " +
                                std::to_string(seed.q.size()) + " != instance size " +
                                std::to_string(inst_.size()));
  }
  cached_ = seed.view(0);
  stale_ = false;
}

BatchEngine::BatchEngine(graph::Instance inst, u64 epoch, core::Options opt,
                         pram::ExecutionContext ctx)
    : inst_(std::move(inst)), solver_(opt, ctx), epoch_(epoch) {
  graph::validate(inst_);
}

core::PartitionView BatchEngine::view() {
  if (stale_) {
    cached_ = solver_.solve_view(inst_, epoch_);
    stale_ = false;
  }
  return cached_;
}

void BatchEngine::apply(std::span<const inc::Edit> edits) {
  validate_edits(inst_, edits);
  // No-op edits don't advance the clock (matching IncrementalSolver), so
  // epoch-based pollers never reprocess an unchanged partition and a no-op
  // never costs a re-solve.
  u64 changed = 0;
  for (const inc::Edit& e : edits) {
    if (inc::apply_raw(e, inst_.f, inst_.b)) ++changed;
  }
  if (changed > 0) {
    epoch_ += changed;
    stale_ = true;
  }
}

IncrementalEngine::IncrementalEngine(graph::Instance inst, core::Options opt,
                                     pram::ExecutionContext ctx, inc::RepairPolicy policy)
    : inc_(std::move(inst), opt, ctx, policy) {}

IncrementalEngine::IncrementalEngine(inc::IncrementalSolver solver) : inc_(std::move(solver)) {}

bool IncrementalEngine::save_checkpoint(std::ostream& os) const {
  inc_.save(os);
  return true;
}

std::unique_ptr<Engine> load_incremental_engine(std::istream& is, core::Options opt,
                                                pram::ExecutionContext ctx,
                                                inc::RepairPolicy policy) {
  return std::make_unique<IncrementalEngine>(inc::IncrementalSolver::load(is, opt, ctx, policy));
}

LoadedEngine load_engine_checkpoint(std::istream& is, core::Options opt,
                                    pram::ExecutionContext ctx) {
  util::BinaryReader r(is, "load_engine_checkpoint");
  unsigned char magic[8];
  r.get_bytes(magic, 8, "magic");
  if (std::memcmp(magic, util::checkpoint_magic().data(), 8) == 0) {
    return {std::make_unique<IncrementalEngine>(
                inc::IncrementalSolver::load_body(is, opt, ctx, {})),
            "incremental"};
  }
  throw std::runtime_error(
      "load_engine_checkpoint: bad magic (expected an sfcp-checkpoint v1 stream)");
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

const EngineInfo* EngineRegistry::find(std::string_view name) const noexcept {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::unique_ptr<Engine> EngineRegistry::make(std::string_view name, graph::Instance inst,
                                             const core::Options& opt,
                                             const pram::ExecutionContext& ctx) const {
  const EngineInfo* info = find(name);
  if (!info) {
    throw std::out_of_range("sfcp::engines(): no engine named '" + std::string(name) + "'");
  }
  return info->make(std::move(inst), opt, ctx);
}

void EngineRegistry::add(EngineInfo info) {
  for (auto& e : entries_) {
    if (e.name == info.name) {
      e = std::move(info);
      return;
    }
  }
  entries_.push_back(std::move(info));
}

EngineRegistry& engines() {
  static EngineRegistry reg = [] {
    EngineRegistry r;
    r.add({"batch", "lazy full re-solve per epoch (core::Solver); best for bursty edits",
           [](graph::Instance inst, const core::Options& opt,
              const pram::ExecutionContext& ctx) -> std::unique_ptr<Engine> {
             return std::make_unique<BatchEngine>(std::move(inst), opt, ctx);
           }});
    r.add({"incremental",
           "dirty-region repair per edit (inc::IncrementalSolver); best for interleaved "
           "reads and localized edits",
           [](graph::Instance inst, const core::Options& opt,
              const pram::ExecutionContext& ctx) -> std::unique_ptr<Engine> {
             return std::make_unique<IncrementalEngine>(std::move(inst), opt, ctx);
           }});
    return r;
  }();
  return reg;
}

}  // namespace sfcp

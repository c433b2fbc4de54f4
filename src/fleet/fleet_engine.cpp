#include "fleet/fleet_engine.hpp"

#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "pram/worker_pool.hpp"
#include "prof/profile.hpp"
#include "util/io.hpp"

namespace sfcp::fleet {

namespace {

// Cold image for non-checkpointable (batch) engines: this magic, the engine
// epoch (u64 LE), then the instance as `sfcp-instance v2`.  Distinct from the
// `sfcp-checkpoint v1` magics so fault-in can dispatch on the first 8 bytes.
constexpr unsigned char kColdImageMagic[8] = {0x7f, 's', 'f', 'c', 'B', 'v', '1', '\n'};

}  // namespace

FleetEngine::FleetEngine(FleetConfig cfg)
    : cfg_(std::move(cfg)), solver_(cfg_.options, cfg_.ctx) {
  if (engines().find(cfg_.engine) == nullptr) {
    throw std::invalid_argument("fleet::FleetEngine: no engine named '" + cfg_.engine + "'");
  }
  if (!cfg_.spill_dir.empty()) {
    std::filesystem::create_directories(cfg_.spill_dir);
    // Adopt spill files from a previous run as cold instances.  Their epoch
    // is unknown until fault-in (epoch() wakes them on demand).
    for (const auto& entry : std::filesystem::directory_iterator(cfg_.spill_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.size() < 7 || name.front() != 'i' || !name.ends_with(".ckpt")) continue;
      const std::string digits = name.substr(1, name.size() - 6);
      InstanceId id = 0;
      for (const char c : digits) id = id * 10 + static_cast<InstanceId>(c - '0');
      // Adopt only canonical names, the ones spill_path_(id) maps back to:
      // a non-digit, a leading zero or an id past InstanceId's range never
      // round-trips, and would alias another id's spill path.
      if (std::to_string(id) != digits || find_(id) != kNil) continue;
      Slot& s = slots_[add_slot_(id)];
      s.set_tier(Tier::Cold);
      s.on_disk = true;
      s.epoch = kEpochUnknown;
      ++cold_count_;
    }
  }
}

void FleetEngine::set_factory(std::function<graph::Instance(InstanceId)> factory) {
  factory_ = std::move(factory);
}

void FleetEngine::create(InstanceId id, graph::Instance inst) {
  if (find_(id) != kNil) {
    throw std::invalid_argument("fleet::FleetEngine: instance id " + std::to_string(id) +
                                " already exists");
  }
  graph::validate(inst);
  Slot& s = slots_[add_slot_(id)];
  s.nodes = inst.size();
  s.pending = std::move(inst);
}

bool FleetEngine::contains(InstanceId id) const noexcept { return find_(id) != kNil; }

bool FleetEngine::is_warm(InstanceId id) const noexcept {
  const u32 si = find_(id);
  return si != kNil && slots_[si].tier_now() == Tier::Warm;
}

// ---- routing -------------------------------------------------------------

pram::ExecutionContext FleetEngine::instance_ctx_() {
  pram::ExecutionContext ctx = cfg_.ctx;
  if (cfg_.use_arena) ctx.arena = &arena_;
  return ctx;
}

u32 FleetEngine::find_(InstanceId id) const noexcept {
  return table_.find(id, [this](u32 si) noexcept { return slots_[si].id; });
}

u32 FleetEngine::ensure_slot_(InstanceId id) {
  const u32 si = find_(id);
  if (si != kNil) return si;
  if (!factory_) {
    throw std::out_of_range("fleet::FleetEngine: unknown instance id " + std::to_string(id) +
                            " (no factory installed)");
  }
  graph::Instance inst = factory_(id);
  graph::validate(inst);
  const u32 fresh = add_slot_(id);
  Slot& s = slots_[fresh];
  s.nodes = inst.size();
  s.pending = std::move(inst);
  return fresh;
}

u32 FleetEngine::add_slot_(InstanceId id) {
  const u32 si = slots_.push();
  // The id must be in place before the route-table cell publishes the slot:
  // a lock-free reader acquires the cell and immediately reads the id.
  slots_[si].id = id;
  table_.insert(id, si, [this](u32 x) noexcept { return slots_[x].id; });
  return si;
}

// ---- warm LRU ------------------------------------------------------------

void FleetEngine::lru_unlink_(u32 si) noexcept {
  Slot& s = slots_[si];
  if (s.lru_prev != kNil) {
    slots_[s.lru_prev].lru_next = s.lru_next;
  } else {
    lru_head_ = s.lru_next;
  }
  if (s.lru_next != kNil) {
    slots_[s.lru_next].lru_prev = s.lru_prev;
  } else {
    lru_tail_ = s.lru_prev;
  }
  s.lru_prev = s.lru_next = kNil;
}

void FleetEngine::lru_push_front_(u32 si) noexcept {
  Slot& s = slots_[si];
  s.lru_prev = kNil;
  s.lru_next = lru_head_;
  if (lru_head_ != kNil) slots_[lru_head_].lru_prev = si;
  lru_head_ = si;
  if (lru_tail_ == kNil) lru_tail_ = si;
}

void FleetEngine::lru_touch_(u32 si) noexcept {
  if (lru_head_ == si) return;
  lru_unlink_(si);
  lru_push_front_(si);
}

// ---- tier transitions ----------------------------------------------------

void FleetEngine::admit_(u32 si, std::unique_ptr<Engine> engine) {
  Slot& s = slots_[si];
  s.engine = std::move(engine);
  s.set_tier(Tier::Warm);
  s.pending = graph::Instance{};
  s.nodes = s.engine->size();
  s.bytes = s.engine->footprint_bytes();
  warm_bytes_ += s.bytes;
  warm_count_.fetch_add(1, std::memory_order_relaxed);
  lru_push_front_(si);
}

void FleetEngine::materialize_batch_(std::span<const u32> slot_idx,
                                     std::vector<graph::Instance>&& insts) {
  prof::Scope scope("fleet/cold_batch");
  const bool seedable = cfg_.engine == "incremental" || cfg_.engine == "batch";
  if (seedable && !insts.empty()) {
    // One batched solve primes every engine; the consumer runs on solver
    // worker threads, so it may only touch index-disjoint state (built[i],
    // insts[i]) and the thread-safe arena.
    std::vector<std::unique_ptr<Engine>> built(insts.size());
    const bool incremental = cfg_.engine == "incremental";
    solver_.solve_batch(
        insts, [&](std::size_t i, core::Result&& r, const core::SolveWorkspace& ws) {
          if (incremental) {
            built[i] = std::make_unique<IncrementalEngine>(inc::IncrementalSolver(
                std::move(insts[i]), r, ws, cfg_.options, instance_ctx_(), cfg_.repair));
          } else {
            built[i] = std::make_unique<BatchEngine>(std::move(insts[i]), std::move(r),
                                                     cfg_.options, instance_ctx_());
          }
        });
    ++stats_.cold_batches;
    stats_.batched_cold_instances += insts.size();
    for (std::size_t i = 0; i < slot_idx.size(); ++i) admit_(slot_idx[i], std::move(built[i]));
  } else {
    for (std::size_t i = 0; i < slot_idx.size(); ++i) {
      admit_(slot_idx[i],
             engines().make(cfg_.engine, std::move(insts[i]), cfg_.options, instance_ctx_()));
    }
  }
}

void FleetEngine::fault_in_(u32 si) {
  prof::Scope scope("fleet/fault_in");
  Slot& s = slots_[si];
  const auto restore = [&](std::istream& is) -> std::unique_ptr<Engine> {
    unsigned char magic[8];
    util::BinaryReader r(is, "fleet::fault_in");
    r.get_bytes(magic, 8, "magic");
    if (std::memcmp(magic, kColdImageMagic, 8) == 0) {
      if (cfg_.engine != "batch") {
        throw std::runtime_error("fleet::fault_in: instance " + std::to_string(s.id) +
                                 " cold image is a batch image but the fleet runs '" +
                                 cfg_.engine + "'");
      }
      const u64 epoch = r.get_u64("epoch");
      graph::Instance inst = util::load_instance(is);
      return std::make_unique<BatchEngine>(std::move(inst), epoch, cfg_.options,
                                           instance_ctx_());
    }
    is.clear();
    is.seekg(0);
    LoadedEngine loaded = load_engine_checkpoint(is, cfg_.options, instance_ctx_());
    if (loaded.kind != cfg_.engine) {
      throw std::runtime_error("fleet::fault_in: instance " + std::to_string(s.id) +
                               " checkpoint kind '" + std::string(loaded.kind) +
                               "' does not match the fleet engine '" + cfg_.engine + "'");
    }
    return std::move(loaded.engine);
  };

  std::unique_ptr<Engine> engine;
  if (!s.cold_image.empty()) {
    std::istringstream is(std::move(s.cold_image));
    engine = restore(is);
    s.cold_image.clear();
  } else if (s.on_disk) {
    std::ifstream is(spill_path_(s.id), std::ios::binary);
    if (!is) {
      throw std::runtime_error("fleet::fault_in: cannot open spill file '" +
                               spill_path_(s.id) + "'");
    }
    engine = restore(is);
  } else {
    throw std::runtime_error("fleet::fault_in: instance " + std::to_string(s.id) +
                             " has no cold image");
  }
  --cold_count_;
  ++stats_.faults;
  admit_(si, std::move(engine));
}

void FleetEngine::wake_(u32 si) {
  Slot& s = slots_[si];
  if (s.tier_now() == Tier::Warm) return;
  if (s.tier_now() == Tier::Cold) {
    fault_in_(si);
    return;
  }
  const u32 idx[1] = {si};
  std::vector<graph::Instance> insts;
  insts.push_back(std::move(s.pending));
  materialize_batch_(idx, std::move(insts));
}

void FleetEngine::evict_slot_(u32 si) {
  prof::Scope scope("fleet/evict");
  Slot& s = slots_[si];
  s.epoch = s.engine->epoch();
  const auto serialize = [&](std::ostream& os) {
    if (s.engine->checkpointable()) {
      s.engine->save_checkpoint(os);
      return;
    }
    os.write(reinterpret_cast<const char*>(kColdImageMagic), 8);
    util::BinaryWriter w(os);
    w.put_u64(s.epoch);
    util::save_instance_binary(os, s.engine->instance());
  };
  if (!cfg_.spill_dir.empty()) {
    util::atomic_write_file(spill_path_(s.id), serialize, cfg_.durable_spill);
    s.on_disk = true;
    s.cold_image.clear();
  } else {
    std::ostringstream os;
    serialize(os);
    s.cold_image = std::move(os).str();
  }
  s.engine.reset();
  s.set_tier(Tier::Cold);
  lru_unlink_(si);
  warm_count_.fetch_sub(1, std::memory_order_relaxed);
  warm_bytes_ -= s.bytes;
  s.bytes = 0;
  ++cold_count_;
  ++stats_.evictions;
}

void FleetEngine::touch_after_op_(u32 si) {
  Slot& s = slots_[si];
  warm_bytes_ -= s.bytes;
  s.bytes = s.engine->footprint_bytes();
  warm_bytes_ += s.bytes;
  lru_touch_(si);
}

void FleetEngine::enforce_limits_(u32 pinned) {
  const auto over = [&]() noexcept {
    return (cfg_.warm_limit != 0 &&
            warm_count_.load(std::memory_order_relaxed) > cfg_.warm_limit) ||
           (cfg_.warm_bytes_limit != 0 && warm_bytes_ > cfg_.warm_bytes_limit);
  };
  while (over()) {
    const u32 victim = lru_tail_;
    if (victim == kNil) break;
    if (victim == pinned) {
      // The pinned slot can only be the tail when it is the sole warm slot —
      // its footprint alone busts the byte cap.  It cannot be dropped now
      // (the caller may hold a view into its engine), so count it and leave
      // it for the next operation's sweep to reclaim.
      ++stats_.oversized_rejects;
      break;
    }
    evict_slot_(victim);
  }
}

std::string FleetEngine::spill_path_(InstanceId id) const {
  return cfg_.spill_dir + "/i" + std::to_string(id) + ".ckpt";
}

// ---- per-lane metrics scratch --------------------------------------------

void FleetEngine::bind_lane_metrics_(int width) {
  while (lane_metrics_.size() < static_cast<std::size_t>(width)) {
    lane_metrics_.push_back(std::make_unique<pram::Metrics>());
  }
  for (int l = 0; l < width; ++l) lane_metrics_[static_cast<std::size_t>(l)]->reset();
}

void FleetEngine::merge_lane_metrics_(int width, pram::Metrics& into) noexcept {
  for (int l = 0; l < width; ++l) {
    into.add(lane_metrics_[static_cast<std::size_t>(l)]->snapshot());
  }
}

// ---- operations ----------------------------------------------------------

u64 FleetEngine::apply(InstanceId id, std::span<const inc::Edit> edits) {
  prof::Scope scope("fleet/route");
  const u32 si = ensure_slot_(id);
  ++stats_.routes;
  wake_(si);
  Slot& s = slots_[si];
  s.engine->apply(edits);
  stats_.edits += edits.size();
  touch_after_op_(si);
  const u64 epoch = s.engine->epoch();
  enforce_limits_(si);
  return epoch;
}

void FleetEngine::apply_batch(std::span<const InstanceEdit> batch) {
  struct Group {
    u32 slot = kNil;
    std::vector<inc::Edit> edits;
  };
  std::vector<Group> groups;
  {
    prof::Scope scope("fleet/route");
    std::unordered_map<InstanceId, std::size_t> index;
    index.reserve(batch.size());
    for (const InstanceEdit& ie : batch) {
      const auto [it, fresh] = index.try_emplace(ie.id, groups.size());
      if (fresh) {
        groups.push_back({ensure_slot_(ie.id), {}});
      }
      groups[it->second].edits.push_back(ie.edit);
    }
    stats_.routes += batch.size();
  }

  // Fault in cold members and gather the never-solved ones for one batched
  // cold-start solve — caller-lane work, before any fan.
  std::vector<u32> unborn;
  std::vector<graph::Instance> unborn_insts;
  for (const Group& g : groups) {
    Slot& s = slots_[g.slot];
    if (s.tier_now() == Tier::Cold) {
      fault_in_(g.slot);
    } else if (s.tier_now() == Tier::Unborn) {
      unborn.push_back(g.slot);
      unborn_insts.push_back(std::move(s.pending));
    }
  }
  if (!unborn.empty()) materialize_batch_(unborn, std::move(unborn_insts));

  pram::WorkerPool* pool = cfg_.ctx.pool;
  const bool fan = pool != nullptr && pool->width() > 1 && groups.size() > 1 &&
                   !pram::WorkerPool::on_worker() && !pram::in_pool_inline();
  if (!fan) {
    for (const Group& g : groups) {
      Slot& s = slots_[g.slot];
      s.engine->apply(g.edits);
      stats_.edits += g.edits.size();
      touch_after_op_(g.slot);
    }
    enforce_limits_(kNil);
    return;
  }

  // Warm fan: each distinct instance's bucket repairs on pool lane
  // `slot % width` (same-slot batches revisit the worker whose cache holds
  // that engine), one epoch barrier closes the batch.  Workers pin nested
  // rounds to one PRAM processor, so per-instance results and charges are
  // identical to the serial path above; no extra round is charged for the
  // fan itself, keeping charge parity with a threads=1 session.  Engines
  // charge a per-lane sink during the fan (rebinding is a caller-side
  // pointer store before submit / after the barrier); lane sinks merge into
  // the session sink afterwards, so totals match the serial path exactly.
  const int width = pool->width();
  pram::Metrics* session = cfg_.ctx.metrics;
  if (session != nullptr) bind_lane_metrics_(width);
  auto repair_one = [&](std::size_t gi) {
    const Group& g = groups[gi];
    slots_[g.slot].engine->apply(g.edits);
  };
  {
    prof::Scope scope("fleet/warm_fan");
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const Group& g = groups[gi];
      if (session != nullptr) {
        slots_[g.slot].engine->set_metrics(
            lane_metrics_[static_cast<std::size_t>(pool->lane_of(g.slot))].get());
      }
      pool->submit(g.slot, repair_one, gi);
    }
  }
  std::exception_ptr fan_error;
  {
    prof::Scope scope("fleet/epoch_wait");
    try {
      pool->wait();
    } catch (...) {
      fan_error = std::current_exception();
    }
  }
  if (session != nullptr) merge_lane_metrics_(width, *session);
  // Post-barrier accounting stays on the caller lane, in group order — the
  // final LRU order matches the serial path.  On a task error the sweep
  // still runs (footprints of the groups that did repair must stay
  // accounted) before the first error rethrows.
  for (const Group& g : groups) {
    Slot& s = slots_[g.slot];
    if (session != nullptr) s.engine->set_metrics(session);
    stats_.edits += g.edits.size();
    touch_after_op_(g.slot);
  }
  enforce_limits_(kNil);
  if (fan_error) std::rethrow_exception(fan_error);
}

core::PartitionView FleetEngine::view(InstanceId id) {
  const u32 si = ensure_slot_(id);
  {
    prof::Scope scope("fleet/route");
    ++stats_.routes;
  }
  wake_(si);
  Slot& s = slots_[si];
  core::PartitionView v = s.engine->view();
  ++stats_.views;
  touch_after_op_(si);
  enforce_limits_(si);
  return v;
}

u64 FleetEngine::epoch(InstanceId id) {
  const u32 si = find_(id);
  if (si == kNil) return 0;
  Slot& s = slots_[si];
  switch (s.tier_now()) {
    case Tier::Warm:
      return s.engine->epoch();
    case Tier::Unborn:
      return 0;
    case Tier::Cold:
      if (s.epoch != kEpochUnknown) return s.epoch;
      // Adopted spill file: the epoch lives inside the image — fault in.
      fault_in_(si);
      break;
  }
  const u64 epoch = s.engine->epoch();
  enforce_limits_(si);
  return epoch;
}

std::size_t FleetEngine::instance_size(InstanceId id) {
  const u32 si = ensure_slot_(id);
  Slot& s = slots_[si];
  if (s.nodes == 0 && s.tier_now() == Tier::Cold) {
    fault_in_(si);
    enforce_limits_(si);
  }
  return s.nodes;
}

bool FleetEngine::evict(InstanceId id) {
  const u32 si = find_(id);
  if (si == kNil || slots_[si].tier_now() != Tier::Warm) return false;
  evict_slot_(si);
  return true;
}

void FleetEngine::install_pool(pram::WorkerPool* pool) {
  cfg_.ctx.pool = pool;           // future materializations copy instance_ctx_()
  solver_.context().pool = pool;  // cold-batch floods fan on the pool
  const std::size_t n = slots_.size();
  for (std::size_t si = 0; si < n; ++si) {
    Slot& s = slots_[static_cast<u32>(si)];
    if (s.engine) s.engine->install_pool(pool);
  }
}

FleetStats FleetEngine::stats() const {
  FleetStats s = stats_;
  s.instances = slots_.size();
  s.warm = warm_count_.load(std::memory_order_relaxed);
  s.cold = cold_count_;
  s.warm_bytes = warm_bytes_;
  if (cfg_.use_arena) {
    const SlabArena::Stats a = arena_.stats();
    s.arena_bytes = a.live_bytes + a.pooled_bytes;
    s.arena_blocks = a.live_blocks;
  }
  return s;
}

}  // namespace sfcp::fleet

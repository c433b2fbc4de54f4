#include "shard/sharded_engine.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "graph/components.hpp"
#include "pram/metrics.hpp"
#include "pram/parallel_for.hpp"
#include "prof/profile.hpp"
#include "util/io.hpp"
#include "util/timer.hpp"

namespace sfcp::shard {

ShardedEngine::ShardedEngine(graph::Instance inst, core::Options opt, pram::ExecutionContext ctx,
                             ShardOptions sopt)
    : inst_(std::move(inst)), opt_(opt), ctx_(ctx), repair_(sopt.repair), reshard_(sopt.reshard) {
  graph::validate(inst_);
  const std::size_t n = inst_.size();
  shard_of_.assign(n, 0);
  local_of_.assign(n, 0);
  shards_.resize(sopt.shards == 0 ? 1 : sopt.shards);
  reshard_all_();
}

ShardedEngine::ShardedEngine(LoadTag, core::Options opt, pram::ExecutionContext ctx,
                             ShardOptions sopt)
    : opt_(opt), ctx_(ctx), repair_(sopt.repair), reshard_(sopt.reshard) {}

u32 ShardedEngine::shard_of(u32 x) const {
  if (x >= shard_of_.size()) {
    throw std::out_of_range("ShardedEngine::shard_of: node " + std::to_string(x) +
                            " out of range (n = " + std::to_string(shard_of_.size()) + ")");
  }
  return shard_of_[x];
}

// ---- sharding ------------------------------------------------------------

void ShardedEngine::reshard_all_() {
  pram::ScopedContext guard(&ctx_);
  prof::Scope prof_scope("shard/reshard");
  // Every reshard (including the construction pass) is a full-cost sample
  // anchoring the adaptive migrate-vs-reshard fit.
  const util::Timer timer;
  const std::size_t n = inst_.size();
  prof::charge_bytes(24 * n);  // components pass + node redistribution + rebuilds
  const graph::Components comp = graph::connected_components(inst_.f);
  const std::size_t k = shards_.size();

  // Longest-processing-time assignment: heaviest component to the currently
  // lightest shard.  Deterministic (ties by lowest id / lowest shard).
  std::vector<u32> order(comp.count());
  std::iota(order.begin(), order.end(), u32{0});
  std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
    return comp.size[a] != comp.size[b] ? comp.size[a] > comp.size[b] : a < b;
  });
  std::vector<u64> load(k, 0);
  std::vector<u32> comp_shard(comp.count(), 0);
  for (const u32 c : order) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < k; ++s) {
      if (load[s] < load[best]) best = s;
    }
    comp_shard[c] = static_cast<u32>(best);
    load[best] += comp.size[c];
  }

  for (auto& sh : shards_) sh.nodes.clear();
  for (u32 v = 0; v < static_cast<u32>(n); ++v) {
    shards_[comp_shard[comp.id[v]]].nodes.push_back(v);  // ascending per shard
  }
  for (std::size_t s = 0; s < k; ++s) rebuild_shard_(s);
  root_stale_ = true;
  reshard_fit_.observe_full(timer.nanos(), reshard_.ewma_alpha);
}

void ShardedEngine::rebuild_shard_(std::size_t s) {
  ShardState& sh = shards_[s];
  if (sh.solver) {
    // The outgoing solver's lifetime counters move to the engine so
    // serving_stats() (and the merge-work <= delta-work invariant the fuzz
    // harness asserts) survive migrations and reshards.
    retired_edits_ += sh.solver->stats();
    retired_deltas_ += sh.solver->delta_stats();
  }
  const std::size_t m = sh.nodes.size();
  for (std::size_t i = 0; i < m; ++i) {
    shard_of_[sh.nodes[i]] = static_cast<u32>(s);
    local_of_[sh.nodes[i]] = static_cast<u32>(i);
  }
  // Shards are closed under f (they hold whole components), so every f
  // target's local index is defined by the loop above.
  graph::Instance sub;
  sub.f.resize(m);
  sub.b.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const u32 g = sh.nodes[i];
    sub.f[i] = local_of_[inst_.f[g]];
    sub.b[i] = inst_.b[g];
  }
  sh.solver = std::make_unique<inc::IncrementalSolver>(std::move(sub), opt_, ctx_, repair_);
  sh.seen_epoch = 0;
  sh.dirty = true;
  // A fresh solver speaks a fresh label space: the next reconciliation must
  // requotient from scratch.  label_global keeps the old stakes until then
  // (requotient_full_ releases them after acquiring the new ones).
  sh.full = true;
}

// ---- edits ---------------------------------------------------------------

void ShardedEngine::apply(std::span<const inc::Edit> edits) {
  for (const inc::Edit& e : edits) inc::validate_edit(e, inst_.size(), "ShardedEngine");
  const std::size_t count = edits.size();
  std::size_t i = 0;
  while (i < count) {
    // Maximal run of shard-routable edits; cross-shard rewires are barriers
    // (they move nodes between shards, changing the routing of what follows).
    std::size_t j = i;
    while (j < count && !cross_shard_(edits[j])) ++j;
    if (j > i) apply_segment_(edits.subspan(i, j - i));
    if (j < count) {
      apply_cross_shard_(edits[j]);
      ++j;
    }
    i = j;
  }
}

void ShardedEngine::apply_segment_(std::span<const inc::Edit> seg) {
  if (bucket_buf_.size() != shards_.size()) bucket_buf_.assign(shards_.size(), {});
  active_buf_.clear();
  for (const inc::Edit& e : seg) {
    const u32 s = shard_of_[e.node];
    auto& bucket = bucket_buf_[s];
    if (bucket.empty()) active_buf_.push_back(s);
    const u32 value = e.kind == inc::Edit::Kind::SetF ? local_of_[e.value] : e.value;
    bucket.push_back(inc::Edit{e.kind, local_of_[e.node], value});
    inc::apply_raw(e, inst_.f, inst_.b);  // keep the global instance current
  }
  {
    // Shards repair concurrently, one round of one task per dirty shard;
    // each shard solver re-installs its own context inside apply(), so
    // charging lands in the session's (atomic) sink.  The repairs enqueue
    // on the session pool keyed by shard id, so a shard's repairs revisit
    // the lane whose cache already holds it.  Nothing nests: threads()
    // pins to 1 on pool workers (this engine inside a fleet lane repairs
    // its shards serially right here, never touching the coordinator-only
    // wait()) AND on the coordinator whenever it runs a repair inline
    // (caller-lane shards in wait(), ring-full fallback) — that pin matters
    // because the solver's own installed context carries the pool, so a
    // super-grain repair on the caller lane would otherwise re-enter the
    // pool mid-wait().
    pram::ScopedContext guard(&ctx_);
    const std::size_t active = active_buf_.size();
    auto repair_one = [&](std::size_t idx) {
      // Workers start from an empty scope path, so the slash in the name is
      // what files this under "shard" in the merged tree.
      prof::Scope prof_scope("shard/repair");
      const u32 s = active_buf_[idx];
      shards_[s].solver->apply(bucket_buf_[s]);
    };
    pram::charge_round(active);
    if (const int width = pram::threads(); active > 1 && width > 1) {
      pram::WorkerPool& pool = pram::session_pool(width);
      for (std::size_t idx = 0; idx < active; ++idx) {
        pool.submit(static_cast<std::size_t>(active_buf_[idx]), repair_one, idx);
      }
      pool.wait();
    } else {
      for (std::size_t idx = 0; idx < active; ++idx) repair_one(idx);
    }
  }
  for (const u32 s : active_buf_) {
    bucket_buf_[s].clear();
    ShardState& sh = shards_[s];
    const u64 e = sh.solver->epoch();
    if (e != sh.seen_epoch) {  // no-op-only buckets leave the shard clean
      epoch_ += e - sh.seen_epoch;
      sh.seen_epoch = e;
      sh.dirty = true;
    }
  }
}

void ShardedEngine::apply_cross_shard_(const inc::Edit& e) {
  const std::size_t n = inst_.size();
  const u32 a = shard_of_[e.node];
  const u32 b = shard_of_[e.value];
  ++stats_.cross_shard_edits;
  ShardState& src = shards_[a];

  // The component the edit drags into shard b, located in a's CURRENT
  // sub-instance (pre-edit; the closure of e.node is the same either way).
  graph::Components comp;
  {
    pram::ScopedContext guard(&ctx_);
    comp = graph::connected_components(src.solver->instance().f);
  }
  const u32 cid = comp.id[local_of_[e.node]];
  const std::size_t moved = comp.size[cid];

  // Cross-shard implies f(x) != y (the old target lives in shard a), so the
  // edit always changes state.
  inc::apply_raw(e, inst_.f, inst_.b);
  ++epoch_;

  if (moved > reshard_.migrate_budget(n, reshard_fit_)) {
    ++stats_.reshards;
    reshard_all_();
    return;
  }

  const util::Timer timer;
  prof::Scope prof_scope("shard/migrate");
  prof::charge_bytes(8 * (src.nodes.size() + shards_[b].nodes.size() + moved));
  std::vector<u32> keep, move;
  keep.reserve(src.nodes.size() - moved);
  move.reserve(moved);
  for (std::size_t i = 0; i < src.nodes.size(); ++i) {
    (comp.id[i] == cid ? move : keep).push_back(src.nodes[i]);
  }
  ShardState& dst = shards_[b];
  std::vector<u32> merged;
  merged.reserve(dst.nodes.size() + move.size());
  std::merge(dst.nodes.begin(), dst.nodes.end(), move.begin(), move.end(),
             std::back_inserter(merged));
  src.nodes = std::move(keep);
  dst.nodes = std::move(merged);
  rebuild_shard_(a);
  rebuild_shard_(b);
  ++stats_.migrations;
  reshard_fit_.observe_unit(timer.nanos(), moved, reshard_.ewma_alpha);

  std::size_t largest = 0;
  for (const auto& sh : shards_) largest = std::max(largest, sh.nodes.size());
  if (!reshard_.balanced(largest, n, shards_.size())) {
    ++stats_.reshards;
    reshard_all_();
  }
}

// ---- merge layer ---------------------------------------------------------
//
// Every live raw label of a shard solver holds exactly one stake (Assign)
// in the global maps; reconciliation is driven by the shard's RepairDelta:
// created classes acquire stakes, destroyed classes release theirs, resized
// classes provably kept their identity and are skipped.  Acquire-before-
// release keeps entries shared between generations alive, which is what
// makes untouched classes' global labels — and therefore every other
// shard's raw labels — stable across reconciles.

void ShardedEngine::release_assign_(Assign& a) {
  if (a.kind == 1) {
    auto it = gclasses_.find(*a.ckey);
    if (--it->second.refs == 0) {
      live_globals_ -= static_cast<u32>(it->second.labels.size());
      gclasses_.erase(it);
    }
  } else if (a.kind == 2) {
    auto it = gsigs_.find(a.sig);
    if (--it->second.refs == 0) {
      --live_globals_;
      gsigs_.erase(it);
    }
  }
  a = Assign{};
}

void ShardedEngine::acquire_cycle_(const inc::IncrementalSolver& sol, u32 rep, u32 local_label,
                                   Assign& slot, CycleCache& cache) {
  // The solver's reduced cycle string IS the cross-shard canonical form:
  // two cycle classes anywhere share a global label block iff their reduced
  // strings coincide, phase for phase.
  const inc::IncrementalSolver::CycleClassRef probe = sol.cycle_class_of(rep);
  const std::size_t p = probe.key.size();
  std::size_t phase = p;
  for (std::size_t t = 0; t < p; ++t) {
    if (probe.labels[t] == local_label) {
      phase = t;
      break;
    }
  }
  if (phase == p) {
    throw std::logic_error("ShardedEngine: cycle label missing from its own class");
  }
  if (cache.key_data != probe.key.data()) {
    auto [it, inserted] =
        gclasses_.try_emplace(std::vector<u32>(probe.key.begin(), probe.key.end()));
    if (inserted) {
      it->second.labels.resize(p);
      for (std::size_t t = 0; t < p; ++t) it->second.labels[t] = fresh_global_();
    }
    cache.key_data = probe.key.data();
    cache.entry = &*it;
  }
  GlobalCycleClass& cls = cache.entry->second;
  ++cls.refs;
  slot = Assign{cls.labels[phase], 1, &cache.entry->first, 0};
}

void ShardedEngine::acquire_sig_(u32 b_value, u32 f_global, Assign& slot) {
  // (B, global label of the f-class): the coinductive characterization
  // Q(u) = Q(v) <=> B(u) = B(v) and Q(f(u)) = Q(f(v)), across shards.
  const u64 sig = pack_pair(b_value, f_global);
  auto [it, inserted] = gsigs_.try_emplace(sig);
  if (inserted) it->second.label = fresh_global_();
  ++it->second.refs;
  slot = Assign{it->second.label, 2, nullptr, sig};
}

void ShardedEngine::reset_global_maps_() {
  gclasses_.clear();
  gsigs_.clear();
  next_global_ = 0;
  live_globals_ = 0;
  for (auto& sh : shards_) {
    sh.label_global.clear();  // the stakes died with the maps
    sh.full = true;
    sh.dirty = true;
  }
  root_stale_ = true;
}

bool ShardedEngine::apply_label_delta_(std::size_t s, const inc::RepairDelta& d) {
  ShardState& sh = shards_[s];
  const inc::IncrementalSolver& sol = *sh.solver;
  const std::span<const u32> q = sol.labels();
  const graph::Instance& sub = sol.instance();
  const u32 bound = sol.label_bound();
  if (sh.label_global.size() < bound) sh.label_global.resize(bound);

  // Representatives for the created labels, preferring cycle members: a
  // class containing cycle nodes lies on a quotient cycle and must be keyed
  // by its reduced string, which only a cycle member can name.  Every
  // member of a created label was relabelled in this window, so the delta's
  // node list covers them all.
  std::unordered_map<u32, u32> rep;
  rep.reserve(d.classes_created.size());
  for (const u32 l : d.classes_created) rep.emplace(l, kNone);
  for (const u32 v : d.nodes) {
    const auto it = rep.find(q[v]);
    if (it == rep.end()) continue;
    if (it->second == kNone || (!sol.node_on_cycle(it->second) && sol.node_on_cycle(v))) {
      it->second = v;
    }
  }
  for (const u32 l : d.classes_created) {
    if (rep.at(l) == kNone) return false;            // no live member in the delta
    if (sh.label_global[l].kind != 0) return false;  // stale stake on a fresh label
  }

  // Acquire: cycle classes first, then tree chains in dependency order
  // (follow f through still-unassigned created labels, unwind from the
  // first assigned anchor — a surviving label or a just-assigned one).
  CycleCache cache;
  for (const u32 l : d.classes_created) {
    const u32 r = rep.at(l);
    if (sol.node_on_cycle(r)) acquire_cycle_(sol, r, l, sh.label_global[l], cache);
  }
  for (const u32 l0 : d.classes_created) {
    if (sh.label_global[l0].kind != 0) continue;
    chain_buf_.clear();
    u32 l = l0;
    while (sh.label_global[l].kind == 0) {
      const auto it = rep.find(l);
      if (it == rep.end()) return false;  // live but unassigned and not created
      chain_buf_.push_back(l);
      if (chain_buf_.size() > d.classes_created.size()) return false;
      l = q[sub.f[it->second]];
    }
    for (auto cit = chain_buf_.rbegin(); cit != chain_buf_.rend(); ++cit) {
      const u32 t = *cit;
      const u32 r = rep.at(t);
      const u32 fl = q[sub.f[r]];
      acquire_sig_(sub.b[r], sh.label_global[fl].global, sh.label_global[t]);
    }
  }

  // Release the destroyed labels' stakes (after the acquisitions, so shared
  // entries survive with their labels intact).
  for (const u32 l : d.classes_destroyed) {
    if (l < sh.label_global.size()) release_assign_(sh.label_global[l]);
  }
  return true;
}

void ShardedEngine::requotient_full_(std::size_t s) {
  ShardState& sh = shards_[s];
  const inc::IncrementalSolver& sol = *sh.solver;
  const std::span<const u32> q = sol.labels();
  const graph::Instance& sub = sol.instance();
  const u32 bound = sol.label_bound();
  const std::size_t m = sh.nodes.size();

  std::vector<Assign> next(bound);
  rep_buf_.assign(bound, kNone);
  for (u32 i = 0; i < static_cast<u32>(m); ++i) {
    u32& r = rep_buf_[q[i]];
    if (r == kNone || (!sol.node_on_cycle(r) && sol.node_on_cycle(i))) r = i;
  }
  CycleCache cache;
  for (u32 l = 0; l < bound; ++l) {
    if (rep_buf_[l] != kNone && sol.node_on_cycle(rep_buf_[l])) {
      acquire_cycle_(sol, rep_buf_[l], l, next[l], cache);
    }
  }
  for (u32 l0 = 0; l0 < bound; ++l0) {
    if (rep_buf_[l0] == kNone || next[l0].kind != 0) continue;
    chain_buf_.clear();
    u32 l = l0;
    while (next[l].kind == 0) {
      chain_buf_.push_back(l);
      if (chain_buf_.size() > bound) {
        throw std::logic_error("ShardedEngine: quotient chain does not terminate");
      }
      l = q[sub.f[rep_buf_[l]]];
    }
    for (auto cit = chain_buf_.rbegin(); cit != chain_buf_.rend(); ++cit) {
      const u32 t = *cit;
      const u32 fl = q[sub.f[rep_buf_[t]]];
      acquire_sig_(sub.b[rep_buf_[t]], next[fl].global, next[t]);
    }
  }
  // Acquire-new before release-old: entries shared between the two
  // assignments stay alive, keeping unchanged classes' global labels (and
  // therefore the other shards' raw labels) stable.
  for (Assign& a : sh.label_global) release_assign_(a);
  sh.label_global = std::move(next);
}

void ShardedEngine::reconcile_shard_(std::size_t s, bool collect_patch,
                                     std::vector<u32>& patch_nodes,
                                     std::vector<u32>& patch_labels) {
  ShardState& sh = shards_[s];
  prof::Scope prof_scope("shard/merge");
  const inc::RepairDelta d = sh.solver->take_delta();
  const bool per_class = !sh.full && !d.full && apply_label_delta_(s, d);
  if (per_class) {
    // O(dirty classes): only the delta's classes touched the maps, only its
    // relabelled nodes enter the next view's patch.
    stats_.merge_touched_classes += d.touched_classes();
    stats_.merge_touched_nodes += d.nodes.size();
    if (collect_patch) {
      const std::span<const u32> q = sh.solver->labels();
      for (const u32 v : d.nodes) {
        patch_nodes.push_back(sh.nodes[v]);
        patch_labels.push_back(sh.label_global[q[v]].global);
      }
    }
    pram::charge(2 * d.nodes.size() + 3 * d.touched_classes());
    prof::charge_bytes(8 * (d.nodes.size() + d.touched_classes()));
  } else {
    requotient_full_(s);
    ++stats_.full_merges;
    if (collect_patch) {
      const std::span<const u32> q = sh.solver->labels();
      for (std::size_t i = 0; i < sh.nodes.size(); ++i) {
        patch_nodes.push_back(sh.nodes[i]);
        patch_labels.push_back(sh.label_global[q[i]].global);
      }
    }
    pram::charge(2 * sh.nodes.size());
    prof::charge_bytes(8 * sh.nodes.size());
  }
  sh.full = false;
  sh.counters = sh.solver->view_counters();
  sh.dirty = false;
  ++stats_.shard_merges;
}

core::PartitionView ShardedEngine::view() {
  pram::ScopedContext guard(&ctx_);
  dirty_buf_.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].dirty) dirty_buf_.push_back(s);
  }
  if (dirty_buf_.empty() && !root_stale_) return last_view_;

  const std::size_t n = inst_.size();
  // Fresh labels are never reused while live, so a long repair streak must
  // occasionally compact the label space (same cap as the per-node engine).
  const u64 label_cap = std::max<u64>(4 * static_cast<u64>(n), 4096);
  if (static_cast<u64>(next_global_) >= label_cap) {
    reset_global_maps_();
    dirty_buf_.clear();
    for (std::size_t s = 0; s < shards_.size(); ++s) dirty_buf_.push_back(s);
  }

  patch_nodes_buf_.clear();
  patch_labels_buf_.clear();
  const bool collect_patch = !root_stale_;
  for (const std::size_t s : dirty_buf_) {
    reconcile_shard_(s, collect_patch, patch_nodes_buf_, patch_labels_buf_);
  }

  core::ViewCounters counters{};
  for (const auto& sh : shards_) {
    counters.num_cycles += sh.counters.num_cycles;
    counters.cycle_nodes += sh.counters.cycle_nodes;
    counters.kept_tree_nodes += sh.counters.kept_tree_nodes;
    counters.residual_tree_nodes += sh.counters.residual_tree_nodes;
  }

  if (root_stale_) {
    std::vector<u32> raw(n);
    for (const auto& sh : shards_) {
      const std::span<const u32> q = sh.solver->labels();
      for (std::size_t i = 0; i < sh.nodes.size(); ++i) {
        raw[sh.nodes[i]] = sh.label_global[q[i]].global;
      }
    }
    last_view_ = core::PartitionView::from_raw(std::move(raw), next_global_, live_globals_,
                                               epoch_, counters);
    root_stale_ = false;
    view_delta_full_ = true;
    view_delta_nodes_.clear();
  } else {
    if (!view_delta_full_) {
      view_delta_nodes_.insert(view_delta_nodes_.end(), patch_nodes_buf_.begin(),
                               patch_nodes_buf_.end());
      if (view_delta_nodes_.size() >= n) {
        view_delta_full_ = true;  // past n nodes a full refresh is cheaper
        view_delta_nodes_.clear();
      }
    }
    last_view_ =
        core::PartitionView::patched(last_view_, std::move(patch_nodes_buf_),
                                     std::move(patch_labels_buf_), next_global_, live_globals_,
                                     epoch_, counters);
    patch_nodes_buf_.clear();
    patch_labels_buf_.clear();
  }
  ++stats_.merged_views;
  return last_view_;
}

inc::ViewDelta ShardedEngine::take_view_delta() {
  inc::ViewDelta d;
  d.epoch = last_view_.epoch();
  d.full = view_delta_full_;
  d.nodes = std::move(view_delta_nodes_);
  view_delta_nodes_.clear();
  view_delta_full_ = false;
  return d;
}

void ShardedEngine::install_pool(pram::WorkerPool* pool) {
  ctx_.pool = pool;
  // Warm shard solvers hold their own context copies; later-built solvers
  // (reshard, migration, load) inherit the pool through ctx_.
  for (ShardState& sh : shards_) {
    if (sh.solver) sh.solver->solver().context().pool = pool;
  }
}

void ShardedEngine::set_metrics(pram::Metrics* m) {
  ctx_.metrics = m;
  for (ShardState& sh : shards_) {
    if (sh.solver) sh.solver->solver().context().metrics = m;
  }
}

EngineStats ShardedEngine::serving_stats() const {
  EngineStats s;
  s.edits = retired_edits_;
  s.deltas = retired_deltas_;
  for (const auto& sh : shards_) {
    s.edits += sh.solver->stats();
    s.deltas += sh.solver->delta_stats();
    if (sh.solver->cost_model().unit_samples > s.repair_fit.unit_samples) {
      s.repair_fit = sh.solver->cost_model();
    }
  }
  s.adaptive_repair = repair_.adaptive;
  s.shards = shards_.size();
  s.cross_shard_edits = stats_.cross_shard_edits;
  s.migrations = stats_.migrations;
  s.reshards = stats_.reshards;
  s.shard_merges = stats_.shard_merges;
  s.full_merges = stats_.full_merges;
  s.merge_touched_classes = stats_.merge_touched_classes;
  s.merge_touched_nodes = stats_.merge_touched_nodes;
  s.adaptive_reshard = reshard_.adaptive;
  s.reshard_fit = reshard_fit_;
  s.profile = prof::session_snapshot();
  return s;
}

// ---- persistence (sfcp-checkpoint v1, sharded magic; see util/io.hpp) ----

bool ShardedEngine::save_checkpoint(std::ostream& os) const {
  util::BinaryWriter w(os);
  w.put_bytes(util::checkpoint_sharded_magic().data(), 8);
  w.put_u32(static_cast<u32>(shards_.size()));
  w.put_u64(epoch_);
  w.put_u64(static_cast<u64>(inst_.size()));
  for (const auto& sh : shards_) {
    w.put_u32(static_cast<u32>(sh.nodes.size()));
    w.put_u32_array(sh.nodes);
    sh.solver->save(os);
  }
  if (!os) throw std::runtime_error("ShardedEngine::save_checkpoint: write failed");
  return true;
}

std::unique_ptr<ShardedEngine> ShardedEngine::load(std::istream& is, core::Options opt,
                                                   pram::ExecutionContext ctx, ShardOptions sopt) {
  util::BinaryReader r(is, "load_sharded_checkpoint");
  unsigned char magic[8];
  r.get_bytes(magic, 8, "magic");
  if (std::memcmp(magic, util::checkpoint_sharded_magic().data(), 8) != 0) {
    throw std::runtime_error(
        "load_sharded_checkpoint: bad magic (expected sfcp-checkpoint v1, sharded)");
  }
  return load_body(is, opt, ctx, sopt);
}

std::unique_ptr<ShardedEngine> ShardedEngine::load_body(std::istream& is, core::Options opt,
                                                        pram::ExecutionContext ctx,
                                                        ShardOptions sopt) {
  util::BinaryReader r(is, "load_sharded_checkpoint");
  const u32 k = r.get_u32("shard count");
  if (k == 0 || k > (1u << 20)) {
    throw std::runtime_error("load_sharded_checkpoint: unreasonable shard count");
  }
  const u64 epoch = r.get_u64("epoch");
  const u64 n64 = r.get_u64("node count");
  if (n64 > static_cast<u64>(kNone - 2)) {
    throw std::runtime_error("load_sharded_checkpoint: unreasonable node count");
  }
  const auto n = static_cast<std::size_t>(n64);

  auto eng = std::unique_ptr<ShardedEngine>(new ShardedEngine(LoadTag{}, opt, ctx, sopt));
  eng->epoch_ = epoch;
  eng->inst_.f.assign(n, 0);
  eng->inst_.b.assign(n, 0);
  eng->shard_of_.assign(n, 0);
  eng->local_of_.assign(n, 0);
  eng->shards_.resize(k);
  std::vector<u8> seen(n, 0);
  for (u32 s = 0; s < k; ++s) {
    ShardState& sh = eng->shards_[s];
    const u32 m = r.get_u32("shard size");
    if (m > n) throw std::runtime_error("load_sharded_checkpoint: shard size out of range");
    r.get_u32_vector(m, sh.nodes, "shard nodes");
    u32 prev = 0;
    for (std::size_t i = 0; i < sh.nodes.size(); ++i) {
      const u32 g = sh.nodes[i];
      if (g >= n || seen[g] || (i > 0 && g <= prev)) {
        throw std::runtime_error("load_sharded_checkpoint: bad shard node list");
      }
      seen[g] = 1;
      prev = g;
    }
    sh.solver = std::make_unique<inc::IncrementalSolver>(
        inc::IncrementalSolver::load(is, opt, ctx, sopt.repair));
    if (sh.solver->size() != m) {
      throw std::runtime_error("load_sharded_checkpoint: shard instance size mismatch");
    }
    const graph::Instance& sub = sh.solver->instance();
    for (u32 i = 0; i < m; ++i) {
      const u32 g = sh.nodes[i];
      eng->shard_of_[g] = s;
      eng->local_of_[g] = i;
      eng->inst_.f[g] = sh.nodes[sub.f[i]];
      eng->inst_.b[g] = sub.b[i];
    }
    // The stored global epoch already accounts for everything the shard
    // solver absorbed before the save.
    sh.seen_epoch = sh.solver->epoch();
    sh.dirty = true;
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (!seen[v]) {
      throw std::runtime_error("load_sharded_checkpoint: node missing from every shard");
    }
  }
  eng->root_stale_ = true;
  return eng;
}

}  // namespace sfcp::shard

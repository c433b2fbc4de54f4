#include "inc/incremental_solver.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "pram/metrics.hpp"
#include "prof/profile.hpp"
#include "strings/msp.hpp"
#include "strings/period.hpp"
#include "util/io.hpp"
#include "util/timer.hpp"

namespace sfcp::inc {

IncrementalSolver::IncrementalSolver(graph::Instance inst, core::Options opt,
                                     pram::ExecutionContext ctx, RepairPolicy policy)
    : inst_(std::move(inst)), solver_(opt, ctx), policy_(policy), alloc_(ctx.arena),
      q_(alloc_), sig_key_(alloc_), on_cycle_(alloc_), cycle_id_(alloc_), pop_(alloc_),
      cycle_pop_(alloc_) {
  // The construction solve doubles as the first rebuild-cost observation,
  // anchoring the full side of the adaptive fit before any edit arrives.
  const util::Timer timer;
  rebuild_();
  cost_fit_.observe_full(timer.nanos(), policy_.ewma_alpha);
}

IncrementalSolver::IncrementalSolver(graph::Instance inst, const core::Result& r,
                                     const core::SolveWorkspace& ws, core::Options opt,
                                     pram::ExecutionContext ctx, RepairPolicy policy)
    : inst_(std::move(inst)), solver_(opt, ctx), policy_(policy), alloc_(ctx.arena),
      q_(alloc_), sig_key_(alloc_), on_cycle_(alloc_), cycle_id_(alloc_), pop_(alloc_),
      cycle_pop_(alloc_) {
  graph::validate(inst_);
  if (r.q.size() != inst_.size()) {
    throw std::invalid_argument("IncrementalSolver: seed result size " +
                                std::to_string(r.q.size()) + " != instance size " +
                                std::to_string(inst_.size()));
  }
  // No solve, no timing: the caller already paid for it (typically inside
  // solve_batch), so there is no fresh rebuild-cost sample to anchor the
  // adaptive fit with — like load(), the fit converges from edits.
  seed_from_solve_(r, ws);
}

IncrementalSolver::IncrementalSolver(LoadTag, graph::Instance inst, core::Options opt,
                                     pram::ExecutionContext ctx, RepairPolicy policy)
    : inst_(std::move(inst)), solver_(opt, ctx), policy_(policy), alloc_(ctx.arena),
      q_(alloc_), sig_key_(alloc_), on_cycle_(alloc_), cycle_id_(alloc_), pop_(alloc_),
      cycle_pop_(alloc_) {}

core::PartitionView IncrementalSolver::view() const {
  if (!view_root_stale_ && last_view_epoch_ == epoch_) return last_view_;
  pram::ScopedContext guard(&solver_.context());
  const RepairDelta d = take_delta_(/*classify=*/false);
  const core::ViewCounters counters = view_counters();
  if (view_root_stale_ || d.full) {
    last_view_ = core::PartitionView::from_raw(std::vector<u32>(q_.begin(), q_.end()),
                                               next_label_, distinct_, epoch_, counters);
    view_delta_full_ = true;
    view_delta_nodes_.clear();
  } else {
    // Publish the flushed delta as a patch on the previous view: the
    // O(dirty) path.  The previous view itself is immutable — readers that
    // hold it keep the partition exactly as it was at its epoch.
    last_view_ = core::PartitionView::patched_from_delta(last_view_, d.nodes, q_, next_label_,
                                                         distinct_, epoch_, counters);
    if (!view_delta_full_) {
      view_delta_nodes_.insert(view_delta_nodes_.end(), d.nodes.begin(), d.nodes.end());
      if (view_delta_nodes_.size() >= inst_.size()) {
        view_delta_full_ = true;  // past n nodes a full refresh is cheaper
        view_delta_nodes_.clear();
      }
    }
  }
  view_root_stale_ = false;
  last_view_epoch_ = epoch_;
  return last_view_;
}

ViewDelta IncrementalSolver::take_view_delta() {
  ViewDelta d;
  d.epoch = last_view_epoch_;
  d.full = view_delta_full_;
  d.nodes = std::move(view_delta_nodes_);
  view_delta_nodes_.clear();
  view_delta_full_ = false;
  return d;
}

core::Result IncrementalSolver::snapshot() const { return view().to_result(); }

RepairDelta IncrementalSolver::take_delta() {
  RepairDelta d = take_delta_(/*classify=*/true);
  // The relabelled nodes leave with the caller, so the solver's own view
  // chain can no longer be patched forward: the next view() re-roots.
  if (!d.nodes.empty() || d.full) view_root_stale_ = true;
  return d;
}

RepairDelta IncrementalSolver::take_delta_(bool classify) const {
  prof::Scope prof_scope("inc/delta_flush");
  RepairDelta d = std::move(delta_);
  delta_ = RepairDelta{};
  d.epoch = epoch_;
  for (const u32 v : d.nodes) delta_mark_[v] = 0;
  // Classify the touched labels by their net population transition over
  // the window (see the header for why live-throughout labels carry no
  // reconciliation work).  The view path only needs the node list, so it
  // flushes with classify == false: the categories are counted for
  // delta_stats_ but the per-class vectors are never materialized.
  u64 created = 0, destroyed = 0, resized = 0;
  for (const u32 label : delta_touched_) {
    delta_touch_mark_[label] = 0;
    const bool live_before = delta_live_before_[label] != 0;
    const bool live_now = pop_[label] > 0;
    if (live_before && live_now) {
      ++resized;
      if (classify) d.classes_resized.push_back(label);
    } else if (live_now) {
      ++created;
      if (classify) d.classes_created.push_back(label);
    } else if (live_before) {
      ++destroyed;
      if (classify) d.classes_destroyed.push_back(label);
    }  // created-then-destroyed inside one window nets out to nothing
  }
  delta_touched_.clear();
  prof::charge_bytes(8 * d.nodes.size());
  if (!d.empty()) {
    ++delta_stats_.windows;
    if (d.full) ++delta_stats_.full;
    delta_stats_.nodes += d.nodes.size();
    delta_stats_.classes_created += created;
    delta_stats_.classes_destroyed += destroyed;
    delta_stats_.classes_resized += resized;
  }
  return d;
}

void IncrementalSolver::note_label_(u32 label, bool live_before) {
  if (delta_.full) return;  // a whole-partition window tracks no churn
  if (delta_touch_mark_[label]) return;
  delta_touch_mark_[label] = 1;
  delta_live_before_[label] = live_before ? 1 : 0;
  delta_touched_.push_back(label);
}

void IncrementalSolver::mark_full_delta_() {
  delta_.full = true;
  // Reset the marks here, not via the rebuild that usually follows, so the
  // nodes-in-delta <-> delta_mark_ invariant never depends on the caller.
  for (const u32 v : delta_.nodes) delta_mark_[v] = 0;
  delta_.nodes.clear();
  delta_.classes_created.clear();
  delta_.classes_destroyed.clear();
  delta_.classes_resized.clear();
  for (const u32 label : delta_touched_) delta_touch_mark_[label] = 0;
  delta_touched_.clear();
}

void IncrementalSolver::validate_edit_(const Edit& e) const {
  validate_edit(e, inst_.size(), "IncrementalSolver");
}

void IncrementalSolver::set_f(u32 x, u32 y) {
  const Edit e = Edit::set_f(x, y);
  validate_edit_(e);
  pram::ScopedContext guard(&solver_.context());
  apply_one_(e);
}

void IncrementalSolver::set_b(u32 x, u32 label) {
  const Edit e = Edit::set_b(x, label);
  validate_edit_(e);
  pram::ScopedContext guard(&solver_.context());
  apply_one_(e);
}

void IncrementalSolver::apply(std::span<const Edit> edits) {
  for (const Edit& e : edits) validate_edit_(e);
  pram::ScopedContext guard(&solver_.context());
  const std::size_t n = inst_.size();
  if (n > 0 && edits.size() >= policy_.batch_rebuild_threshold(n)) {
    // The batch alone rivals the instance size: skip per-edit repair work
    // (including predecessor-list maintenance — rebuild_ reconstructs the
    // lists from scratch), apply the raw array updates and re-solve once.
    // Only state-changing edits advance the clock, matching the per-edit
    // path's no-op handling; an all-no-op batch skips the re-solve too.
    u64 changed = 0;
    for (const Edit& e : edits) {
      ++stats_.edits;
      if (apply_raw(e, inst_.f, inst_.b)) ++changed;
    }
    if (changed == 0) return;
    epoch_ += changed;
    ++stats_.rebuilds;
    mark_full_delta_();
    delta_.edits += changed;
    ++delta_.rebuilds;
    delta_.dirty_nodes += n;
    const util::Timer timer;
    rebuild_();
    const double ns = timer.nanos();
    cost_fit_.observe_full(ns, policy_.ewma_alpha);
    pram::charge_edit(false, n, static_cast<u64>(ns));
    return;
  }
  for (const Edit& e : edits) apply_one_(e);
}

void IncrementalSolver::raw_apply_(const Edit& e) {
  if (e.kind == Edit::Kind::SetF) {
    preds_.retarget(e.node, inst_.f[e.node], e.value);
    inst_.f[e.node] = e.value;
  } else {
    inst_.b[e.node] = e.value;
  }
}

void IncrementalSolver::apply_one_(const Edit& e) {
  ++stats_.edits;
  const bool noop = e.kind == Edit::Kind::SetF ? inst_.f[e.node] == e.value
                                               : inst_.b[e.node] == e.value;
  if (noop) return;
  const std::size_t n = inst_.size();
  bool within;
  {
    prof::Scope prof_scope("inc/dirty_region");
    within = graph::dirty_region(preds_, e.node, policy_.dirty_budget(n, cost_fit_), dirty_buf_);
    prof::charge_bytes(8 * dirty_buf_.size());  // BFS over preds_ + the region buffer
  }
  // Minting labels never reuses retired ones and pop_ grows with the label
  // space, so a long repair streak must occasionally compact via a rebuild
  // (which renames back to [0, blocks)).  Capping at ~4n keeps memory
  // proportional to the instance while amortizing the rebuild over >= 3n
  // minted labels.
  const u64 label_cap =
      std::min<u64>(kNone - 2, std::max<u64>(4 * static_cast<u64>(n), 4096));
  const bool labels_ok = static_cast<u64>(next_label_) + dirty_buf_.size() < label_cap;
  raw_apply_(e);
  ++epoch_;
  ++delta_.edits;
  if (within && labels_ok) {
    // Repairs run in the hundreds of nanoseconds, so even reading the clock
    // distorts them: sample every 8th repair for the cost fit instead of
    // timing all of them (rebuilds are rare and always timed).  The metrics
    // charge scales the sample back up so edit_repair_ns stays comparable
    // to the fully-timed edit_rebuild_ns.
    constexpr u64 kRepairSampleEvery = 8;
    const bool measure = (stats_.repairs % kRepairSampleEvery) == 0;
    double ns = 0.0;
    if (measure) {
      const util::Timer timer;
      repair_(e.node, dirty_buf_);
      const double sample = timer.nanos();
      cost_fit_.observe_unit(sample, dirty_buf_.size(), policy_.ewma_alpha);
      ns = sample * static_cast<double>(kRepairSampleEvery);
    } else {
      repair_(e.node, dirty_buf_);
    }
    // The relabelled region is the delta consumers (views, merge layers)
    // build on; a full window already owes them a whole-partition refresh.
    if (!delta_.full) {
      for (u32 v : dirty_buf_) {
        if (!delta_mark_[v]) {
          delta_mark_[v] = 1;
          delta_.nodes.push_back(v);
        }
      }
    }
    ++delta_.repairs;
    delta_.dirty_nodes += dirty_buf_.size();
    ++stats_.repairs;
    stats_.dirty_nodes += dirty_buf_.size();
    pram::charge_edit(true, dirty_buf_.size(), static_cast<u64>(ns));
  } else {
    ++stats_.rebuilds;
    mark_full_delta_();
    ++delta_.rebuilds;
    delta_.dirty_nodes += n;
    const util::Timer timer;
    rebuild_();
    const double ns = timer.nanos();
    cost_fit_.observe_full(ns, policy_.ewma_alpha);
    pram::charge_edit(false, n, static_cast<u64>(ns));
  }
}

u32 IncrementalSolver::fresh_label_() {
  pop_.push_back(0);
  cycle_pop_.push_back(0);
  delta_touch_mark_.push_back(0);
  delta_live_before_.push_back(0);
  return next_label_++;
}

// The kept/residual accounting rides on the label populations: a tree node
// is "kept" (shares a block with a cycle node, Lemma 4.1's marked-path
// criterion) exactly when its label has a live cycle holder, so kept_
// changes only when a tree node enters/leaves such a label or a label's
// cycle population transitions 0 <-> 1.
void IncrementalSolver::pop_inc_(u32 label, bool cycle) {
  note_label_(label, pop_[label] != 0);
  if (pop_[label]++ == 0) ++distinct_;
  if (cycle) {
    if (cycle_pop_[label]++ == 0) kept_ += pop_[label] - cycle_pop_[label];
  } else if (cycle_pop_[label] > 0) {
    ++kept_;
  }
}

void IncrementalSolver::pop_dec_(u32 label, bool cycle) {
  note_label_(label, true);  // decrementing implies the label was live
  if (--pop_[label] == 0) --distinct_;
  if (cycle) {
    if (--cycle_pop_[label] == 0) kept_ -= pop_[label];
  } else if (cycle_pop_[label] > 0) {
    --kept_;
  }
}

void IncrementalSolver::sig_remove_(u64 sig) {
  auto it = sigs_.find(sig);
  if (it == sigs_.end()) return;
  if (--it->second.refs == 0) sigs_.erase(it);
}

u32 IncrementalSolver::sig_assign_(u32 v) {
  const u64 sig = pack_pair(inst_.b[v], q_[inst_.f[v]]);
  auto [it, inserted] = sigs_.try_emplace(sig);
  if (inserted) it->second.label = fresh_label_();
  ++it->second.refs;
  sig_key_[v] = sig;
  return it->second.label;
}

void IncrementalSolver::destroy_cycle_(u32 id) {
  auto it = cycles_.find(id);
  auto cit = classes_.find(*it->second.key);
  if (--cit->second.refs == 0) classes_.erase(cit);
  live_cycle_nodes_ -= it->second.length;
  cycles_.erase(it);
  ++stats_.cycles_destroyed;
}

void IncrementalSolver::repair_(u32 x, std::span<const u32> dirty) {
  prof::Scope prof_scope("inc/repair");
  // Retract + cycle walk + class-map touch: ~3 passes over the region.
  prof::charge_bytes(24 * dirty.size());
  prof::charge_flops(3 * dirty.size());
  // Phase 1 — retract: every dirty node gives back its label population and
  // signature; the only cycle that can intersect the dirty set is x's own
  // (any cycle node reaching x must share x's cycle), so at most one class
  // reference is released.
  if (cycle_id_[x] != kNone) destroy_cycle_(cycle_id_[x]);
  for (u32 v : dirty) {
    pop_dec_(q_[v], on_cycle_[v] != 0);
    sig_remove_(sig_key_[v]);
    on_cycle_[v] = 0;
    cycle_id_[v] = kNone;
  }

  // Phase 2 — does the edited graph close a cycle through x?  Such a cycle
  // lies wholly inside the dirty set (each of its nodes reaches x), so a
  // forward walk of at most |dirty| steps either returns to x or rules the
  // cycle out.
  cyc_buf_.clear();
  cyc_buf_.push_back(x);
  u32 z = inst_.f[x];
  while (z != x && cyc_buf_.size() < dirty.size()) {
    cyc_buf_.push_back(z);
    z = inst_.f[z];
  }

  // Phase 3 — canonicalize and label the new cycle: reduce its B-string to
  // the smallest period, rotate to the minimal starting point, and match the
  // reduced string against the global class map, merging with any equivalent
  // cycle elsewhere in the graph (or minting a fresh label block).
  if (z == x) {
    const std::size_t len = cyc_buf_.size();
    str_buf_.resize(len);
    for (std::size_t i = 0; i < len; ++i) str_buf_[i] = inst_.b[cyc_buf_[i]];
    const u32 p = strings::smallest_period_seq(str_buf_);
    const u32 j0 = strings::minimal_starting_point(std::span<const u32>(str_buf_).first(p),
                                                   strings::MspStrategy::Booth);
    std::vector<u32> key(p);
    for (u32 t = 0; t < p; ++t) key[t] = str_buf_[(j0 + t) % p];
    auto [it, inserted] = classes_.try_emplace(std::move(key));
    CycleClass& cls = it->second;
    if (inserted) {
      cls.labels.resize(p);
      for (u32 t = 0; t < p; ++t) cls.labels[t] = fresh_label_();
    }
    ++cls.refs;
    const u32 id = next_cycle_id_++;
    cycles_.emplace(id, CycleRec{&it->first, static_cast<u32>(len)});
    for (std::size_t i = 0; i < len; ++i) {
      const u32 v = cyc_buf_[i];
      q_[v] = cls.labels[(static_cast<u32>(i % p) + p - j0) % p];
      pop_inc_(q_[v], true);
      on_cycle_[v] = 1;
      cycle_id_[v] = id;
    }
    live_cycle_nodes_ += len;
    ++stats_.cycles_created;
    // Signatures only once every cycle label is final (f of a cycle node is
    // the next cycle node).
    for (std::size_t i = 0; i < len; ++i) {
      const u32 v = cyc_buf_[i];
      const u64 sig = pack_pair(inst_.b[v], q_[inst_.f[v]]);
      auto [sit, fresh] = sigs_.try_emplace(sig);
      if (fresh) sit->second.label = q_[v];
      ++sit->second.refs;
      sig_key_[v] = sig;
    }
  }

  // Phase 4 — dirty tree nodes, in BFS layer order from x: f(v) is either
  // clean, on the new cycle, or an earlier layer, so its label is final and
  // the signature map realizes Q(v) = Q(u) <=> B(v)=B(u) ^ Q(f(v))=Q(f(u)).
  {
    prof::Scope prof_sigmap("sigmap_update");  // -> inc/repair/sigmap_update
    prof::charge_bytes(16 * dirty.size());     // sig probe + label/pop writes
    for (u32 v : dirty) {
      if (on_cycle_[v]) continue;
      q_[v] = sig_assign_(v);
      pop_inc_(q_[v], false);
    }
  }
  pram::charge(3 * dirty.size());
}

void IncrementalSolver::rebuild_() {
  prof::Scope prof_scope("inc/rebuild");  // nests the solver's solve/* phases
  const core::Result r = solver_.solve(inst_);
  // The solver's warm workspace still holds this solve's cycle structure —
  // exactly the scaffolding the class and signature maps are seeded from.
  seed_from_solve_(r, solver_.workspace());
}

void IncrementalSolver::seed_from_solve_(const core::Result& r,
                                         const core::SolveWorkspace& ws) {
  const std::size_t n = inst_.size();
  q_.assign(r.q.begin(), r.q.end());
  next_label_ = r.num_blocks;
  distinct_ = r.num_blocks;
  pop_.assign(next_label_, 0);
  for (u32 l : q_) ++pop_[l];
  cycle_pop_.assign(next_label_, 0);
  kept_ = 0;
  preds_.rebuild(inst_.f);
  sig_key_.assign(n, 0);
  cycle_id_.assign(n, kNone);
  sigs_.clear();
  classes_.clear();
  cycles_.clear();
  next_cycle_id_ = 0;
  live_cycle_nodes_ = 0;
  // A rebuild renames the whole label space, so neither the previous view
  // chain nor the accumulated class churn can seed anything incremental:
  // the current delta window is whole-partition and the next view starts a
  // fresh root.
  view_root_stale_ = true;
  delta_.full = true;
  delta_.nodes.clear();
  delta_touched_.clear();
  delta_touch_mark_.assign(next_label_, 0);
  delta_live_before_.assign(next_label_, 0);
  delta_mark_.assign(n, 0);
  if (n == 0) {
    on_cycle_.clear();
    return;
  }
  on_cycle_.assign(ws.cs.on_cycle.begin(), ws.cs.on_cycle.end());
  live_cycle_nodes_ = ws.cs.cycle_nodes.size();
  const std::size_t k = ws.cs.num_cycles();
  for (std::size_t c = 0; c < k; ++c) {
    const u32 len = ws.cs.cycle_length(c);
    const u32 p = ws.cl.period[c];
    const u32 j0 = ws.cl.msp[c];
    std::vector<u32> key(p);
    std::vector<u32> labels(p);
    for (u32 t = 0; t < p; ++t) {
      key[t] = inst_.b[ws.cs.node_at(c, (j0 + t) % p)];
      labels[t] = q_[ws.cs.node_at(c, (j0 + t) % len)];
    }
    auto [it, inserted] = classes_.try_emplace(std::move(key));
    if (inserted) it->second.labels = std::move(labels);
    ++it->second.refs;
    const u32 id = next_cycle_id_++;
    cycles_.emplace(id, CycleRec{&it->first, len});
    for (u32 rk = 0; rk < len; ++rk) cycle_id_[ws.cs.node_at(c, rk)] = id;
  }
  for (u32 v = 0; v < static_cast<u32>(n); ++v) {
    const u64 sig = pack_pair(inst_.b[v], q_[inst_.f[v]]);
    auto [it, inserted] = sigs_.try_emplace(sig);
    if (inserted) it->second.label = q_[v];
    ++it->second.refs;
    sig_key_[v] = sig;
  }
  for (u32 v = 0; v < static_cast<u32>(n); ++v) {
    if (on_cycle_[v]) ++cycle_pop_[q_[v]];
  }
  for (u32 l = 0; l < next_label_; ++l) {
    if (cycle_pop_[l] > 0) kept_ += pop_[l] - cycle_pop_[l];
  }
  pram::charge(4 * n);
}

std::size_t IncrementalSolver::footprint_bytes() const noexcept {
  const auto vec = [](const auto& v) { return v.capacity() * sizeof(*v.data()); };
  std::size_t bytes = vec(inst_.f) + vec(inst_.b) + vec(q_) + vec(sig_key_) +
                      vec(on_cycle_) + vec(cycle_id_) + vec(pop_) + vec(cycle_pop_) +
                      vec(dirty_buf_) + vec(cyc_buf_) + vec(str_buf_) + vec(delta_mark_) +
                      vec(delta_touched_) + vec(delta_touch_mark_) +
                      vec(delta_live_before_) + vec(delta_.nodes) + vec(view_delta_nodes_);
  // Hash maps: per-entry payload plus a coarse node/bucket overhead; the
  // class map additionally owns its key and label vectors.
  bytes += sigs_.size() * (sizeof(u64) + sizeof(SigRec) + 16);
  bytes += cycles_.size() * (sizeof(u32) + sizeof(CycleRec) + 16);
  for (const auto& [key, cls] : classes_) {
    bytes += vec(key) + vec(cls.labels) + 48;
  }
  // Reverse adjacency: CSR offsets + one target slot per node.
  bytes += inst_.size() * 12;
  return bytes;
}

// ---- persistence: sfcp-checkpoint v1 (format doc in util/io.hpp) ---------

void IncrementalSolver::save(std::ostream& os) const {
  util::BinaryWriter w(os);
  w.put_bytes(util::checkpoint_magic().data(), 8);
  util::save_instance_binary(os, inst_);
  w.put_u64(epoch_);
  w.put_u32(next_label_);
  w.put_u32_array(q_);
  w.put_u32_array(cycle_id_);

  // Map sections are sorted so that equal engines write identical bytes.
  std::vector<const std::pair<const std::vector<u32>, CycleClass>*> classes;
  classes.reserve(classes_.size());
  for (const auto& kv : classes_) classes.push_back(&kv);
  std::sort(classes.begin(), classes.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::unordered_map<const std::vector<u32>*, u32> class_index;
  w.put_u32(static_cast<u32>(classes.size()));
  for (std::size_t i = 0; i < classes.size(); ++i) {
    class_index.emplace(&classes[i]->first, static_cast<u32>(i));
    w.put_u32(static_cast<u32>(classes[i]->first.size()));
    w.put_u32_array(classes[i]->first);
    w.put_u32_array(classes[i]->second.labels);
  }

  std::vector<std::pair<u32, const CycleRec*>> cycles;
  cycles.reserve(cycles_.size());
  for (const auto& [id, rec] : cycles_) cycles.emplace_back(id, &rec);
  std::sort(cycles.begin(), cycles.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.put_u32(static_cast<u32>(cycles.size()));
  for (const auto& [id, rec] : cycles) {
    w.put_u32(id);
    w.put_u32(class_index.at(rec->key));
    w.put_u32(rec->length);
  }
  w.put_u32(next_cycle_id_);

  std::vector<std::pair<u64, SigRec>> sigs(sigs_.begin(), sigs_.end());
  std::sort(sigs.begin(), sigs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.put_u32(static_cast<u32>(sigs.size()));
  for (const auto& [key, rec] : sigs) {
    w.put_u64(key);
    w.put_u32(rec.label);
    w.put_u32(rec.refs);
  }

  w.put_u64(stats_.edits);
  w.put_u64(stats_.repairs);
  w.put_u64(stats_.rebuilds);
  w.put_u64(stats_.dirty_nodes);
  w.put_u64(stats_.cycles_created);
  w.put_u64(stats_.cycles_destroyed);
  if (!os) throw std::runtime_error("IncrementalSolver::save: write failed");
}

IncrementalSolver IncrementalSolver::load(std::istream& is, core::Options opt,
                                          pram::ExecutionContext ctx, RepairPolicy policy) {
  util::BinaryReader r(is, "load_checkpoint");
  unsigned char magic[8];
  r.get_bytes(magic, 8, "magic");
  if (std::memcmp(magic, util::checkpoint_magic().data(), 8) != 0) {
    throw std::runtime_error("load_checkpoint: bad magic (expected sfcp-checkpoint v1)");
  }
  return load_body(is, opt, ctx, policy);
}

IncrementalSolver IncrementalSolver::load_body(std::istream& is, core::Options opt,
                                               pram::ExecutionContext ctx, RepairPolicy policy) {
  util::BinaryReader r(is, "load_checkpoint");
  graph::Instance inst = util::load_instance(is);  // the embedded v2 section

  IncrementalSolver s(LoadTag{}, std::move(inst), opt, ctx, policy);
  const std::size_t n = s.inst_.size();
  const auto n32 = static_cast<u32>(n);
  s.epoch_ = r.get_u64("epoch");
  s.next_label_ = r.get_u32("label bound");
  // apply_one_ caps the live label space at max(4n, 4096); a bound beyond
  // that is corrupt and would otherwise size the per-label arrays in
  // finish_load_ to gigabytes before any consistency check fires.
  if (s.next_label_ > std::max<u64>(4 * static_cast<u64>(n), 4096)) {
    throw std::runtime_error("load_checkpoint: unreasonable label bound");
  }
  r.get_u32_vector(n, s.q_, "labels");
  for (u32 l : s.q_) {
    if (l >= s.next_label_) throw std::runtime_error("load_checkpoint: label out of range");
  }
  r.get_u32_vector(n, s.cycle_id_, "cycle ids");

  const u32 num_classes = r.get_u32("class count");
  if (num_classes > n32) throw std::runtime_error("load_checkpoint: unreasonable class count");
  std::vector<const std::vector<u32>*> class_keys;
  class_keys.reserve(num_classes);
  std::vector<u32> key, labels;
  for (u32 c = 0; c < num_classes; ++c) {
    const u32 p = r.get_u32("class period");
    if (p == 0 || p > n32) throw std::runtime_error("load_checkpoint: bad class period");
    r.get_u32_vector(p, key, "class key");
    r.get_u32_vector(p, labels, "class labels");
    for (u32 l : labels) {
      if (l >= s.next_label_) {
        throw std::runtime_error("load_checkpoint: class label out of range");
      }
    }
    auto [it, inserted] = s.classes_.try_emplace(key);
    if (!inserted) throw std::runtime_error("load_checkpoint: duplicate cycle class");
    it->second.labels = labels;
    class_keys.push_back(&it->first);
  }

  const u32 num_cycles = r.get_u32("cycle count");
  if (num_cycles > n32) throw std::runtime_error("load_checkpoint: unreasonable cycle count");
  for (u32 i = 0; i < num_cycles; ++i) {
    const u32 id = r.get_u32("cycle id");
    const u32 ci = r.get_u32("cycle class index");
    const u32 len = r.get_u32("cycle length");
    if (ci >= num_classes) throw std::runtime_error("load_checkpoint: cycle class index");
    const u32 p = static_cast<u32>(class_keys[ci]->size());
    if (len == 0 || len > n32 || len % p != 0) {
      throw std::runtime_error("load_checkpoint: bad cycle length");
    }
    auto [it, inserted] = s.cycles_.try_emplace(id, CycleRec{class_keys[ci], len});
    if (!inserted) throw std::runtime_error("load_checkpoint: duplicate cycle id");
    ++s.classes_.find(*class_keys[ci])->second.refs;
    s.live_cycle_nodes_ += len;
  }
  s.next_cycle_id_ = r.get_u32("next cycle id");

  const u32 num_sigs = r.get_u32("signature count");
  if (num_sigs > n32) throw std::runtime_error("load_checkpoint: unreasonable signature count");
  for (u32 i = 0; i < num_sigs; ++i) {
    const u64 sig = r.get_u64("signature key");
    SigRec rec;
    rec.label = r.get_u32("signature label");
    rec.refs = r.get_u32("signature refs");
    if (rec.label >= s.next_label_ || rec.refs == 0) {
      throw std::runtime_error("load_checkpoint: bad signature entry");
    }
    if (!s.sigs_.emplace(sig, rec).second) {
      throw std::runtime_error("load_checkpoint: duplicate signature");
    }
  }

  s.stats_.edits = r.get_u64("stats");
  s.stats_.repairs = r.get_u64("stats");
  s.stats_.rebuilds = r.get_u64("stats");
  s.stats_.dirty_nodes = r.get_u64("stats");
  s.stats_.cycles_created = r.get_u64("stats");
  s.stats_.cycles_destroyed = r.get_u64("stats");

  s.finish_load_();
  return s;
}

void IncrementalSolver::finish_load_() {
  const std::size_t n = inst_.size();
  // Per-cycle membership: every cycle id in cycle_id_ must name a live cycle
  // and each cycle's node count must match its recorded length.
  std::unordered_map<u32, u32> member_count;
  on_cycle_.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (cycle_id_[v] == kNone) continue;
    if (!cycles_.count(cycle_id_[v])) {
      throw std::runtime_error("load_checkpoint: node references unknown cycle");
    }
    on_cycle_[v] = 1;
    ++member_count[cycle_id_[v]];
  }
  u64 counted = 0;
  for (const auto& [id, rec] : cycles_) {
    const auto it = member_count.find(id);
    if (it == member_count.end() || it->second != rec.length) {
      throw std::runtime_error("load_checkpoint: cycle length mismatch");
    }
    if (id >= next_cycle_id_) throw std::runtime_error("load_checkpoint: cycle id bound");
    counted += rec.length;
  }
  if (counted != live_cycle_nodes_) {
    throw std::runtime_error("load_checkpoint: cycle node count mismatch");
  }

  // Label populations and the kept/residual accounting.
  pop_.assign(next_label_, 0);
  cycle_pop_.assign(next_label_, 0);
  for (std::size_t v = 0; v < n; ++v) {
    ++pop_[q_[v]];
    if (on_cycle_[v]) ++cycle_pop_[q_[v]];
  }
  distinct_ = 0;
  kept_ = 0;
  for (u32 l = 0; l < next_label_; ++l) {
    if (pop_[l] > 0) ++distinct_;
    if (cycle_pop_[l] > 0) kept_ += pop_[l] - cycle_pop_[l];
  }

  // Signatures: every node's (B, Q∘f) key must resolve to its own label, and
  // the stored refcounts must match the node population exactly.
  sig_key_.assign(n, 0);
  std::unordered_map<u64, u32> sig_count;
  for (u32 v = 0; v < static_cast<u32>(n); ++v) {
    const u64 sig = pack_pair(inst_.b[v], q_[inst_.f[v]]);
    const auto it = sigs_.find(sig);
    if (it == sigs_.end() || it->second.label != q_[v]) {
      throw std::runtime_error("load_checkpoint: inconsistent signature map");
    }
    sig_key_[v] = sig;
    ++sig_count[sig];
  }
  for (const auto& [sig, rec] : sigs_) {
    const auto it = sig_count.find(sig);
    if (it == sig_count.end() || it->second != rec.refs) {
      throw std::runtime_error("load_checkpoint: signature refcount mismatch");
    }
  }

  preds_.rebuild(inst_.f);
  view_root_stale_ = true;
  delta_ = RepairDelta{};
  delta_.full = true;  // a restored engine owes consumers a full refresh
  delta_touched_.clear();
  delta_touch_mark_.assign(next_label_, 0);
  delta_live_before_.assign(next_label_, 0);
  delta_mark_.assign(n, 0);
  pram::charge(4 * n);
}

void save_checkpoint_file(const std::string& path, const IncrementalSolver& solver) {
  util::atomic_write_file(path, [&](std::ostream& os) { solver.save(os); });
}

IncrementalSolver load_checkpoint_file(const std::string& path, core::Options opt,
                                       pram::ExecutionContext ctx, RepairPolicy policy) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_checkpoint_file: cannot open " + path);
  return IncrementalSolver::load(is, opt, ctx, policy);
}

}  // namespace sfcp::inc

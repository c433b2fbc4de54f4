#pragma once
// prof — the scoped hierarchical phase profiler (Tic/Toc in the style of
// SCTL/pvfmm's Profile, grown for this repo's session model).
//
//   prof::Profiler profiler;
//   prof::ScopedProfiler guard(profiler);          // install for the process
//   {
//     prof::Scope s("solve/rename");               // RAII: wall-ns on exit
//     prof::charge_bytes(8 * n);                   // roofline accounting
//     prof::charge_flops(n);
//   }
//   prof::ProfileTree t = profiler.snapshot();     // merged across threads
//
// Recording is per-thread: each thread owns a buffer (current scope path +
// a path→stats map) and only takes its own uncontended mutex at scope exit,
// so threads never serialize against each other; snapshot() merges the
// buffers into one flat, sorted ProfileTree.  Hierarchy comes from both
// RAII nesting (an inner Scope("rename") under Scope("solve") records as
// "solve/rename") and embedded slashes in the name itself — the latter is
// what `pram::parallel_for` bodies use, since worker threads start from an
// empty path (a pool worker's Scope("inc/delta_flush") lands under "inc"
// even when the enclosing "inc" scope lives on the caller's thread).  A
// parent's ns therefore includes same-thread children (the scope spans
// them) but NOT cross-thread children, whose summed ns can exceed the
// parent's wall time; renderers clamp self-time at zero.
//
// FLOP/byte charges (charge_flops/charge_bytes) accumulate into the
// innermost open Scope on the calling thread and stay on that node — they
// are NOT rolled up into ancestors, so a node's achieved GB/s is always
// its own traffic over its own wall time.
//
// Which profiler records?  The installed ExecutionContext's `profiler`
// field first, else the process-wide default set by ScopedProfiler.  Note
// the deliberate asymmetry with Metrics (whose null-in-context means
// "don't count"): engines install internal context copies that know
// nothing about profiling, and the serve::Server loop thread is not the
// thread that configured the session — falling through to the process
// default is what lets one `prof::ScopedProfiler` at the top of a bench or
// CLI run capture every layer underneath.
//
// Cost: compiled out entirely unless SFCP_PROFILE is defined (CMake
// -DSFCP_PROFILE=ON).  When off, Scope is an empty 1-byte object and the
// charge functions are no-ops — release hot paths pay zero.  ProfileTree
// and Profiler themselves always compile, so stats plumbing, the wire
// codec and the tools build identically in both modes (they just see an
// empty tree when profiling is off).

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pram/execution_context.hpp"
#include "prof/clock.hpp"

namespace sfcp::prof {

using u64 = std::uint64_t;

#if defined(SFCP_PROFILE)
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// One merged node of the flat profile tree ("solve/rename").
struct PhaseNode {
  std::string path;  ///< slash-joined scope path, depth = count of '/'
  u64 ns = 0;        ///< summed wall time of every entry into this path
  u64 count = 0;     ///< number of scope entries merged in
  u64 flops = 0;     ///< charged floating/integer ops (caller's estimate)
  u64 bytes = 0;     ///< charged memory traffic (caller's estimate)

  friend bool operator==(const PhaseNode&, const PhaseNode&) = default;
};

/// A merged, path-sorted snapshot.  Plain data: copyable, wire-encodable,
/// meaningful (empty) even in SFCP_PROFILE=OFF builds.
struct ProfileTree {
  std::vector<PhaseNode> phases;  ///< sorted by path

  bool empty() const noexcept { return phases.empty(); }

  /// The node at exactly `path`, or null.
  const PhaseNode* find(std::string_view path) const noexcept;

  /// Wall-ns of `path`, or 0 when absent (operator convenience for stats).
  u64 ns_of(std::string_view path) const noexcept;

  /// Renders the indented tree: count, total/self ms, achieved GB/s and
  /// GFLOP/s per node, and %% of `peak_gbps` when a positive peak is given
  /// (the roofline column).  Self-time is clamped at zero where
  /// cross-thread children oversubscribe the parent (see file comment).
  void render(std::ostream& os, double peak_gbps = 0.0) const;
};

class Scope;

/// Collects scopes from every thread that records into it.  Thread-safe:
/// snapshot()/reset() may run concurrently with scopes on other threads
/// (e.g. a STATS request against a live server loop).  Must outlive any
/// Scope recording into it.
class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Merges every thread's buffer into one sorted tree.
  ProfileTree snapshot() const;

  /// Drops all recorded stats (open scopes keep recording afterwards).
  void reset();

 private:
  friend class Scope;
  struct ThreadBuf {
    mutable std::mutex mu;  ///< owner thread at scope exit vs. snapshot
    std::unordered_map<std::string, PhaseNode> phases;  ///< key == path
    std::string path;  ///< current scope path; OWNER THREAD ONLY
  };

  ThreadBuf* local_buf_();  ///< this thread's buffer, created on first use

  const u64 id_;  ///< process-unique, keys the thread-local buffer cache
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

namespace detail {
/// The process-wide fallback profiler (see file comment for why this is
/// global, not thread-local).  Use ScopedProfiler, not this, to set it.
Profiler* default_profiler() noexcept;
void set_default_profiler(Profiler* p) noexcept;
}  // namespace detail

/// The profiler new scopes on this thread record into: the installed
/// context's, else the process default, else null (scopes inert).
inline Profiler* session_profiler() noexcept {
  const pram::ExecutionContext* c = pram::current_context();
  if (c != nullptr && c->profiler != nullptr) return c->profiler;
  return detail::default_profiler();
}

/// Installs `p` as the process-wide default profiler for the guard's
/// lifetime (restores the previous one on exit).  Guards nest; they are
/// NOT thread-scoped — see the file comment.
class ScopedProfiler {
 public:
  explicit ScopedProfiler(Profiler& p) noexcept : saved_(detail::default_profiler()) {
    detail::set_default_profiler(&p);
  }
  ~ScopedProfiler() { detail::set_default_profiler(saved_); }
  ScopedProfiler(const ScopedProfiler&) = delete;
  ScopedProfiler& operator=(const ScopedProfiler&) = delete;

 private:
  Profiler* saved_;
};

/// snapshot() of the session profiler, or an empty tree when none is
/// installed (or profiling is compiled out).
ProfileTree session_snapshot();

#if defined(SFCP_PROFILE)

/// RAII phase scope.  `name` may embed '/' to claim hierarchy explicitly
/// (required inside parallel_for bodies, whose threads start at the root).
/// Inert (and charge-dropping) when no profiler is installed.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void add_flops(u64 n) noexcept { flops_ += n; }
  void add_bytes(u64 n) noexcept { bytes_ += n; }

 private:
  Profiler::ThreadBuf* buf_ = nullptr;  ///< null = inert scope
  Scope* parent_ = nullptr;
  u64 start_ = 0;
  u64 flops_ = 0;
  u64 bytes_ = 0;
  std::size_t saved_len_ = 0;  ///< buf_->path length to restore on exit
};

namespace detail {
inline thread_local Scope* tls_scope = nullptr;  ///< innermost ACTIVE scope
}  // namespace detail

/// Charges ops/bytes to the innermost open scope on this thread (no-op
/// outside any scope).  Estimates, not measurements: callers charge what
/// the phase logically moved/computed and the report divides by wall time.
inline void charge_flops(u64 n) noexcept {
  if (detail::tls_scope != nullptr) detail::tls_scope->add_flops(n);
}
inline void charge_bytes(u64 n) noexcept {
  if (detail::tls_scope != nullptr) detail::tls_scope->add_bytes(n);
}

#else  // !SFCP_PROFILE — everything below compiles to nothing.

class Scope {
 public:
  explicit Scope(const char*) noexcept {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void add_flops(u64) noexcept {}
  void add_bytes(u64) noexcept {}
};

inline void charge_flops(u64) noexcept {}
inline void charge_bytes(u64) noexcept {}

#endif  // SFCP_PROFILE

}  // namespace sfcp::prof

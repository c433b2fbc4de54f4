#pragma once
// (De)serialization of SFCP instances, solutions and edit streams, so
// examples and external tools can exchange workloads.
//
// Text instance format (`sfcp-instance v1`):
//
//   sfcp-instance v1
//   n
//   f[0] f[1] ... f[n-1]
//   b[0] b[1] ... b[n-1]
//
// Binary instance format (`sfcp-instance v2`) — the cheap one for large
// bench workloads:
//
//   8-byte magic 7F 's' 'f' 'c' 'p' 'v' '2' 0A, then n and both arrays as
//   little-endian u32 (f first, then b).
//
// load_instance autodetects the format from the first byte.
//
// Edit-stream format (`sfcp-edits v1`):
//
//   sfcp-edits v1
//   m
//   f x y     (set f[x] <- y)
//   b x v     (set b[x] <- v)
//
// Checkpoint format (`sfcp-checkpoint v1`) — a warm inc::IncrementalSolver
// (see IncrementalSolver::save/load, which own the read/write logic):
//
//   8-byte magic 7F 's' 'f' 'c' 'k' 'v' '1' 0A, then
//   * the instance as a complete `sfcp-instance v2` binary section,
//   * epoch (u64), label bound (u32), per-node labels and cycle ids (u32[n]),
//   * the cycle-class map (reduced B-strings + label blocks, key-sorted),
//   * the live cycles (id, class index, length; id-sorted) + next cycle id,
//   * the signature map ((B, Q∘f) -> label with refcounts, key-sorted),
//   * lifetime edit stats (6 x u64).
//   All integers little-endian; map sections sorted so equal engines produce
//   byte-identical checkpoints.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <functional>
#include <istream>
#include <span>
#include <string>
#include <vector>

#include "graph/functional_graph.hpp"
#include "inc/edit.hpp"
#include "pram/types.hpp"

namespace sfcp::util {

enum class InstanceFormat {
  Text,    ///< sfcp-instance v1
  Binary,  ///< sfcp-instance v2
};

void save_instance(std::ostream& os, const graph::Instance& inst);
void save_instance_binary(std::ostream& os, const graph::Instance& inst);

/// Loads either format (autodetected).  Throws std::runtime_error on
/// malformed or truncated input, std::invalid_argument when the decoded
/// instance fails graph::validate (e.g. out-of-range f values).
graph::Instance load_instance(std::istream& is);

void save_instance_file(const std::string& path, const graph::Instance& inst,
                        InstanceFormat format = InstanceFormat::Text);
graph::Instance load_instance_file(const std::string& path);

// ---- edit streams --------------------------------------------------------

void save_edits(std::ostream& os, std::span<const inc::Edit> edits);

/// Throws std::runtime_error on malformed input.  Node/target ranges are NOT
/// checked here (they depend on the instance the stream is applied to);
/// inc::IncrementalSolver validates on apply.
std::vector<inc::Edit> load_edits(std::istream& is);

void save_edits_file(const std::string& path, std::span<const inc::Edit> edits);
std::vector<inc::Edit> load_edits_file(const std::string& path);

// ---- edit journal (`sfcp-journal v1`) ------------------------------------
// The durable, append-only binary flavour of the edit stream, written by
// serve::Journal ahead of every accepted edit batch (write-ahead logging).
// An 8-byte magic (7F 's' 'f' 'c' 'j' 'v' '1' 0A) opens the file; each
// record is
//
//   [u32 payload_len][payload][u32 crc32(payload)]
//
// with payload = epoch (u64, the engine's edit clock BEFORE the batch —
// replay skips records a checkpoint already reflects), count (u32), then
// count x (u8 kind: 0 = set_f / 1 = set_b, u32 node, u32 value).  All
// integers little-endian.  A crash can tear the tail mid-length-prefix,
// mid-record or mid-CRC; scan_journal() stops at the first tear and reports
// the byte offset of the bad record so recovery can truncate there.

/// The 8-byte magic opening an `sfcp-journal v1` file.
std::span<const unsigned char, 8> journal_magic() noexcept;

/// CRC-32 (IEEE 802.3, reflected) — the per-record checksum of the journal.
u32 crc32(const void* data, std::size_t len) noexcept;

struct JournalRecord {
  u64 epoch = 0;  ///< engine edit clock before the batch applied
  std::vector<inc::Edit> edits;

  friend bool operator==(const JournalRecord&, const JournalRecord&) = default;
};

/// One record's framed bytes ([len][payload][crc]); what serve::Journal
/// appends (and fsyncs) as a unit.
std::string encode_journal_record(const JournalRecord& rec);

/// Writes the 8-byte journal magic (the file header).
void write_journal_header(std::ostream& os);

void append_journal_record(std::ostream& os, const JournalRecord& rec);

struct JournalScan {
  std::vector<JournalRecord> records;  ///< every intact record, in order
  u64 valid_bytes = 0;  ///< length of the good prefix (header + intact records)
  bool torn = false;    ///< the tail after valid_bytes is truncated/corrupt
  std::string error;    ///< when torn: what tore, naming the byte offset
};

/// Tolerant scan for crash recovery: decodes records until end of stream or
/// the first torn/corrupt tail, which is reported (with the byte offset of
/// the bad record) instead of thrown — a crashed writer legitimately leaves
/// one.  Throws std::runtime_error only for a missing/foreign header.
JournalScan scan_journal(std::istream& is);

/// Strict load: like scan_journal but a torn tail throws std::runtime_error
/// naming the byte offset of the bad record.
std::vector<JournalRecord> load_journal(std::istream& is);

// ---- fleet edit journal (`sfcp-fleet-journal v1`) ------------------------
// The multi-tenant flavour written by a fleet-mode serve::Server: identical
// [u32 len][payload][u32 crc32] framing under its own 8-byte magic
// (7F 's' 'f' 'c' 'F' 'v' '1' 0A), with the payload gaining a leading
// instance id:
//
//   instance (u64), epoch (u64, that INSTANCE's edit clock before the
//   batch), count (u32), then count x (u8 kind, u32 node, u32 value).
//
// Torn-tail semantics match scan_journal exactly.

/// The 8-byte magic opening an `sfcp-fleet-journal v1` file.
std::span<const unsigned char, 8> fleet_journal_magic() noexcept;

struct FleetJournalRecord {
  u64 instance = 0;  ///< fleet instance the batch targets
  u64 epoch = 0;     ///< that instance's edit clock before the batch applied
  std::vector<inc::Edit> edits;

  friend bool operator==(const FleetJournalRecord&, const FleetJournalRecord&) = default;
};

std::string encode_fleet_journal_record(const FleetJournalRecord& rec);

/// Writes the 8-byte fleet-journal magic (the file header).
void write_fleet_journal_header(std::ostream& os);

void append_fleet_journal_record(std::ostream& os, const FleetJournalRecord& rec);

struct FleetJournalScan {
  std::vector<FleetJournalRecord> records;  ///< every intact record, in order
  u64 valid_bytes = 0;  ///< length of the good prefix (header + intact records)
  bool torn = false;    ///< the tail after valid_bytes is truncated/corrupt
  std::string error;    ///< when torn: what tore, naming the byte offset
};

/// Tolerant fleet-journal scan; same contract as scan_journal.
FleetJournalScan scan_fleet_journal(std::istream& is);

/// Writes `path` atomically: `write` streams into `path + ".tmp"`, the
/// stream is closed and error-checked (so buffered-flush failures surface),
/// and only then renamed over `path` — a failing write never destroys an
/// existing good file.  With `durable`, the tmp file is fsynced before the
/// rename and the containing directory after it, so on return the new file
/// provably survives power loss — required whenever the caller is about to
/// discard the data's other copy (e.g. truncating a journal the checkpoint
/// absorbed).  Throws std::runtime_error on open/write/fsync/rename failure;
/// the tmp file is removed on every failure path.
void atomic_write_file(const std::string& path, const std::function<void(std::ostream&)>& write,
                       bool durable = false);

// ---- binary primitives ---------------------------------------------------
// Little-endian scalar/array IO shared by the `sfcp-instance v2` and
// `sfcp-checkpoint v1` formats (and available to future binary sections).

/// The 8-byte magic opening an `sfcp-checkpoint v1` stream.
std::span<const unsigned char, 8> checkpoint_magic() noexcept;

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os) : os_(os) {}
  void put_u32(u32 v);
  void put_u64(u64 v);
  void put_u32_array(std::span<const u32> a);
  void put_bytes(const void* data, std::size_t len);

 private:
  std::ostream& os_;
};

/// Throws std::runtime_error("<context>: truncated <what>") when the stream
/// runs out mid-field, so corrupt inputs fail with a named field.
class BinaryReader {
 public:
  BinaryReader(std::istream& is, const char* context) : is_(is), context_(context) {}
  u32 get_u32(const char* what);
  u64 get_u64(const char* what);
  void get_bytes(void* data, std::size_t len, const char* what);
  /// Reads n values, growing `out` in bounded chunks so corrupt headers
  /// claiming huge sizes fail on truncation instead of allocating n upfront.
  /// Templated over the vector type so arena-backed vectors (pram::avector)
  /// can load in place with the same bounded-growth behaviour.
  template <class Vec>
  void get_u32_vector(u64 n, Vec& out, const char* what) {
    constexpr u64 kChunk = u64{1} << 20;
    out.clear();
    out.reserve(static_cast<std::size_t>(n < kChunk ? n : kChunk));
    while (out.size() < n) {
      const std::size_t prev = out.size();
      const std::size_t take = static_cast<std::size_t>(std::min<u64>(kChunk, n - prev));
      out.resize(prev + take);
      if constexpr (std::endian::native == std::endian::little) {
        if (!is_.read(reinterpret_cast<char*>(out.data() + prev),
                      static_cast<std::streamsize>(take * sizeof(u32)))) {
          fail_(what);
        }
      } else {
        for (std::size_t i = prev; i < prev + take; ++i) out[i] = get_u32(what);
      }
    }
  }

 private:
  [[noreturn]] void fail_(const char* what) const;
  std::istream& is_;
  const char* context_;
};

}  // namespace sfcp::util

#include "util/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace sfcp::util {

namespace {

constexpr const char* kMagic = "sfcp-instance";
constexpr const char* kVersionText = "v1";
// Binary magic: non-printable lead byte makes autodetection a one-byte peek
// and keeps binary files from ever parsing as text.
constexpr unsigned char kBinaryMagic[8] = {0x7f, 's', 'f', 'c', 'p', 'v', '2', '\n'};
// Caps bogus sizes from corrupt headers before we try to allocate.
constexpr u64 kMaxNodes = u64{1} << 31;

constexpr const char* kEditsMagic = "sfcp-edits";
constexpr const char* kEditsVersion = "v1";

constexpr unsigned char kCheckpointMagicBytes[8] = {0x7f, 's', 'f', 'c', 'k', 'v', '1', '\n'};
constexpr unsigned char kJournalMagicBytes[8] = {0x7f, 's', 'f', 'c', 'j', 'v', '1', '\n'};
constexpr unsigned char kFleetJournalMagicBytes[8] = {0x7f, 's', 'f', 'c', 'F', 'v', '1', '\n'};

// Journal record payload: epoch (8) + count (4) + count * (kind 1 + node 4
// + value 4); the length prefix and trailing CRC add 8 more framed bytes.
constexpr std::size_t kJournalPayloadHeader = 12;
// The fleet flavour prefixes the payload with the target instance id (u64).
constexpr std::size_t kFleetJournalPayloadHeader = 20;
constexpr std::size_t kJournalBytesPerEdit = 9;
// One record mirrors one accepted wire EDIT frame, whose payload is capped
// at 2^28 bytes — so larger length prefixes are corruption, not data, and
// are rejected before any allocation.
constexpr u64 kMaxJournalPayload = u64{1} << 28;

graph::Instance load_instance_text(std::istream& is) {
  std::string magic, version;
  if (!(is >> magic >> version) || magic != kMagic || version != kVersionText) {
    throw std::runtime_error("load_instance: bad header (expected 'sfcp-instance v1')");
  }
  std::size_t n = 0;
  if (!(is >> n)) throw std::runtime_error("load_instance: missing size");
  if (n > kMaxNodes) throw std::runtime_error("load_instance: unreasonable size");
  graph::Instance inst;
  inst.f.resize(n);
  inst.b.resize(n);
  for (auto& v : inst.f) {
    if (!(is >> v)) throw std::runtime_error("load_instance: truncated f array");
  }
  for (auto& v : inst.b) {
    if (!(is >> v)) throw std::runtime_error("load_instance: truncated b array");
  }
  graph::validate(inst);
  return inst;
}

graph::Instance load_instance_binary(std::istream& is) {
  unsigned char magic[8];
  if (!is.read(reinterpret_cast<char*>(magic), 8) ||
      std::memcmp(magic, kBinaryMagic, 8) != 0) {
    throw std::runtime_error("load_instance: bad binary magic (expected sfcp-instance v2)");
  }
  BinaryReader r(is, "load_instance");
  const u32 n = r.get_u32("size");
  if (n > kMaxNodes) throw std::runtime_error("load_instance: unreasonable size");
  graph::Instance inst;
  r.get_u32_vector(n, inst.f, "f array");
  r.get_u32_vector(n, inst.b, "b array");
  graph::validate(inst);
  return inst;
}

}  // namespace

namespace {

void fsync_path(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("atomic_write_file: cannot open " + path +
                             " for fsync: " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    throw std::runtime_error("atomic_write_file: fsync failed for " + path + ": " +
                             std::strerror(err));
  }
}

}  // namespace

void atomic_write_file(const std::string& path, const std::function<void(std::ostream&)>& write,
                       bool durable) {
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream os(tmp, std::ios::binary);
    if (!os) throw std::runtime_error("atomic_write_file: cannot open " + tmp);
    write(os);
    os.close();  // flush now, so buffered I/O errors surface before the rename
    if (os.fail()) throw std::runtime_error("atomic_write_file: write failed for " + tmp);
    // Durability order: data must be on disk before the rename can make it
    // visible, and the rename itself only survives once the directory is
    // synced.
    if (durable) fsync_path(tmp, /*directory=*/false);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("atomic_write_file: cannot rename " + tmp + " over " + path);
  }
  if (durable) {
    const std::size_t slash = path.find_last_of('/');
    fsync_path(slash == std::string::npos ? "." : path.substr(0, slash + 1),
               /*directory=*/true);
  }
}

// ---- binary primitives ---------------------------------------------------

std::span<const unsigned char, 8> checkpoint_magic() noexcept {
  return std::span<const unsigned char, 8>(kCheckpointMagicBytes);
}

void BinaryWriter::put_u32(u32 v) {
  unsigned char buf[4] = {static_cast<unsigned char>(v), static_cast<unsigned char>(v >> 8),
                          static_cast<unsigned char>(v >> 16),
                          static_cast<unsigned char>(v >> 24)};
  os_.write(reinterpret_cast<const char*>(buf), 4);
}

void BinaryWriter::put_u64(u64 v) {
  put_u32(static_cast<u32>(v));
  put_u32(static_cast<u32>(v >> 32));
}

void BinaryWriter::put_u32_array(std::span<const u32> a) {
  if constexpr (std::endian::native == std::endian::little) {
    os_.write(reinterpret_cast<const char*>(a.data()),
              static_cast<std::streamsize>(a.size() * sizeof(u32)));
  } else {
    for (u32 v : a) put_u32(v);
  }
}

void BinaryWriter::put_bytes(const void* data, std::size_t len) {
  os_.write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
}

void BinaryReader::fail_(const char* what) const {
  throw std::runtime_error(std::string(context_) + ": truncated " + what);
}

u32 BinaryReader::get_u32(const char* what) {
  unsigned char buf[4];
  if (!is_.read(reinterpret_cast<char*>(buf), 4)) fail_(what);
  return static_cast<u32>(buf[0]) | (static_cast<u32>(buf[1]) << 8) |
         (static_cast<u32>(buf[2]) << 16) | (static_cast<u32>(buf[3]) << 24);
}

u64 BinaryReader::get_u64(const char* what) {
  const u64 lo = get_u32(what);
  const u64 hi = get_u32(what);
  return lo | (hi << 32);
}

void BinaryReader::get_bytes(void* data, std::size_t len, const char* what) {
  if (!is_.read(static_cast<char*>(data), static_cast<std::streamsize>(len))) fail_(what);
}

// ---- edit journal (`sfcp-journal v1`) ------------------------------------

std::span<const unsigned char, 8> journal_magic() noexcept {
  return std::span<const unsigned char, 8>(kJournalMagicBytes);
}

namespace {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table built once.
struct Crc32Table {
  u32 t[256];
  Crc32Table() noexcept {
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
  }
};

void put_le32(std::string& out, u32 v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

u32 get_le32(const unsigned char* p) noexcept {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

}  // namespace

u32 crc32(const void* data, std::size_t len) noexcept {
  static const Crc32Table table;
  const auto* p = static_cast<const unsigned char*>(data);
  u32 c = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) c = table.t[(c ^ p[i]) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::string encode_journal_record(const JournalRecord& rec) {
  std::string payload;
  payload.reserve(kJournalPayloadHeader + kJournalBytesPerEdit * rec.edits.size());
  put_le32(payload, static_cast<u32>(rec.epoch));
  put_le32(payload, static_cast<u32>(rec.epoch >> 32));
  put_le32(payload, static_cast<u32>(rec.edits.size()));
  for (const inc::Edit& e : rec.edits) {
    payload.push_back(e.kind == inc::Edit::Kind::SetF ? '\x00' : '\x01');
    put_le32(payload, e.node);
    put_le32(payload, e.value);
  }
  std::string out;
  out.reserve(payload.size() + 8);
  put_le32(out, static_cast<u32>(payload.size()));
  out += payload;
  put_le32(out, crc32(payload.data(), payload.size()));
  return out;
}

void write_journal_header(std::ostream& os) {
  os.write(reinterpret_cast<const char*>(kJournalMagicBytes), 8);
  if (!os) throw std::runtime_error("write_journal_header: write failed");
}

void append_journal_record(std::ostream& os, const JournalRecord& rec) {
  const std::string bytes = encode_journal_record(rec);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error("append_journal_record: write failed");
}

namespace {

u64 get_le64(const unsigned char* p) noexcept {
  return static_cast<u64>(get_le32(p)) | (static_cast<u64>(get_le32(p + 4)) << 32);
}

void put_le64(std::string& out, u64 v) {
  put_le32(out, static_cast<u32>(v));
  put_le32(out, static_cast<u32>(v >> 32));
}

void encode_edits(std::string& payload, std::span<const inc::Edit> edits) {
  put_le32(payload, static_cast<u32>(edits.size()));
  for (const inc::Edit& e : edits) {
    payload.push_back(e.kind == inc::Edit::Kind::SetF ? '\x00' : '\x01');
    put_le32(payload, e.node);
    put_le32(payload, e.value);
  }
}

std::string frame_record(const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 8);
  put_le32(out, static_cast<u32>(payload.size()));
  out += payload;
  put_le32(out, crc32(payload.data(), payload.size()));
  return out;
}

// Decodes the count (u32 at `off`) + edit list tail of a record payload of
// total length `len`.  Returns the torn-tail reason, empty on success.
std::string decode_edits(const unsigned char* p, u32 len, std::size_t off,
                         std::vector<inc::Edit>& out) {
  const u32 count = get_le32(p + off);
  if (static_cast<u64>(len) != off + 4 + kJournalBytesPerEdit * static_cast<u64>(count)) {
    return "record length/count mismatch";
  }
  out.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    const unsigned char* e = p + off + 4 + kJournalBytesPerEdit * i;
    switch (e[0]) {
      case 0:
        out.push_back(inc::Edit::set_f(get_le32(e + 1), get_le32(e + 5)));
        break;
      case 1:
        out.push_back(inc::Edit::set_b(get_le32(e + 1), get_le32(e + 5)));
        break;
      default:
        return "unknown edit kind in record";
    }
  }
  return {};
}

// Shared tolerant framing scan: reads [len][payload][crc] records after an
// already-consumed 8-byte header, handing each intact payload to `decode`
// (which returns a torn reason, empty on success).  Reports the good-prefix
// length + first tear into (valid_bytes, torn, error) — the common tail of
// both JournalScan flavours.
template <class Decode>
void scan_framed_records(std::istream& is, std::size_t min_payload, const Decode& decode,
                         u64& valid_bytes, bool& torn, std::string& error) {
  valid_bytes = 8;
  std::string payload;
  const auto tear = [&](const std::string& what) {
    torn = true;
    error = what + " at byte offset " + std::to_string(valid_bytes);
  };
  for (;;) {
    unsigned char len_buf[4];
    is.read(reinterpret_cast<char*>(len_buf), 4);
    const std::streamsize got = is.gcount();
    if (got == 0) break;  // clean end after the last whole record
    if (got < 4) {
      tear("truncated record length prefix");
      break;
    }
    const u32 len = get_le32(len_buf);
    if (len < min_payload || static_cast<u64>(len) > kMaxJournalPayload) {
      tear("implausible record length " + std::to_string(len));
      break;
    }
    payload.resize(len);
    is.read(payload.data(), static_cast<std::streamsize>(len));
    if (is.gcount() != static_cast<std::streamsize>(len)) {
      tear("record truncated mid-payload");
      break;
    }
    unsigned char crc_buf[4];
    is.read(reinterpret_cast<char*>(crc_buf), 4);
    if (is.gcount() != 4) {
      tear("record truncated mid-CRC");
      break;
    }
    const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
    if (get_le32(crc_buf) != crc32(p, len)) {
      tear("record CRC mismatch");
      break;
    }
    const std::string reason = decode(p, len);
    if (!reason.empty()) {
      tear(reason);
      break;
    }
    valid_bytes += 4 + static_cast<u64>(len) + 4;
  }
}

}  // namespace

JournalScan scan_journal(std::istream& is) {
  unsigned char magic[8];
  is.read(reinterpret_cast<char*>(magic), 8);
  if (is.gcount() != 8 || std::memcmp(magic, kJournalMagicBytes, 8) != 0) {
    throw std::runtime_error("scan_journal: bad header (expected sfcp-journal v1 magic)");
  }
  JournalScan scan;
  scan_framed_records(
      is, kJournalPayloadHeader,
      [&scan](const unsigned char* p, u32 len) -> std::string {
        JournalRecord rec;
        rec.epoch = get_le64(p);
        std::string reason = decode_edits(p, len, 8, rec.edits);
        if (reason.empty()) scan.records.push_back(std::move(rec));
        return reason;
      },
      scan.valid_bytes, scan.torn, scan.error);
  return scan;
}

std::vector<JournalRecord> load_journal(std::istream& is) {
  JournalScan scan = scan_journal(is);
  if (scan.torn) throw std::runtime_error("load_journal: " + scan.error);
  return std::move(scan.records);
}

// ---- fleet edit journal (`sfcp-fleet-journal v1`) ------------------------

std::span<const unsigned char, 8> fleet_journal_magic() noexcept {
  return std::span<const unsigned char, 8>(kFleetJournalMagicBytes);
}

std::string encode_fleet_journal_record(const FleetJournalRecord& rec) {
  std::string payload;
  payload.reserve(kFleetJournalPayloadHeader + kJournalBytesPerEdit * rec.edits.size());
  put_le64(payload, rec.instance);
  put_le64(payload, rec.epoch);
  encode_edits(payload, rec.edits);
  return frame_record(payload);
}

void write_fleet_journal_header(std::ostream& os) {
  os.write(reinterpret_cast<const char*>(kFleetJournalMagicBytes), 8);
  if (!os) throw std::runtime_error("write_fleet_journal_header: write failed");
}

void append_fleet_journal_record(std::ostream& os, const FleetJournalRecord& rec) {
  const std::string bytes = encode_fleet_journal_record(rec);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error("append_fleet_journal_record: write failed");
}

FleetJournalScan scan_fleet_journal(std::istream& is) {
  unsigned char magic[8];
  is.read(reinterpret_cast<char*>(magic), 8);
  if (is.gcount() != 8 || std::memcmp(magic, kFleetJournalMagicBytes, 8) != 0) {
    throw std::runtime_error(
        "scan_fleet_journal: bad header (expected sfcp-fleet-journal v1 magic)");
  }
  FleetJournalScan scan;
  scan_framed_records(
      is, kFleetJournalPayloadHeader,
      [&scan](const unsigned char* p, u32 len) -> std::string {
        FleetJournalRecord rec;
        rec.instance = get_le64(p);
        rec.epoch = get_le64(p + 8);
        std::string reason = decode_edits(p, len, 16, rec.edits);
        if (reason.empty()) scan.records.push_back(std::move(rec));
        return reason;
      },
      scan.valid_bytes, scan.torn, scan.error);
  return scan;
}

void save_instance(std::ostream& os, const graph::Instance& inst) {
  os << kMagic << ' ' << kVersionText << '\n' << inst.size() << '\n';
  for (std::size_t i = 0; i < inst.f.size(); ++i) {
    os << inst.f[i] << (i + 1 == inst.f.size() ? '\n' : ' ');
  }
  if (inst.f.empty()) os << '\n';
  for (std::size_t i = 0; i < inst.b.size(); ++i) {
    os << inst.b[i] << (i + 1 == inst.b.size() ? '\n' : ' ');
  }
  if (inst.b.empty()) os << '\n';
  if (!os) throw std::runtime_error("save_instance: write failed");
}

void save_instance_binary(std::ostream& os, const graph::Instance& inst) {
  if (inst.size() > kMaxNodes) throw std::runtime_error("save_instance_binary: too large");
  BinaryWriter w(os);
  w.put_bytes(kBinaryMagic, 8);
  w.put_u32(static_cast<u32>(inst.size()));
  w.put_u32_array(inst.f);
  w.put_u32_array(inst.b);
  if (!os) throw std::runtime_error("save_instance_binary: write failed");
}

graph::Instance load_instance(std::istream& is) {
  const int first = is.peek();
  if (first == std::char_traits<char>::eof()) {
    throw std::runtime_error("load_instance: empty input");
  }
  return first == kBinaryMagic[0] ? load_instance_binary(is) : load_instance_text(is);
}

void save_instance_file(const std::string& path, const graph::Instance& inst,
                        InstanceFormat format) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_instance_file: cannot open " + path);
  if (format == InstanceFormat::Binary) {
    save_instance_binary(os, inst);
  } else {
    save_instance(os, inst);
  }
}

graph::Instance load_instance_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_instance_file: cannot open " + path);
  return load_instance(is);
}

void save_edits(std::ostream& os, std::span<const inc::Edit> edits) {
  os << kEditsMagic << ' ' << kEditsVersion << '\n' << edits.size() << '\n';
  for (const inc::Edit& e : edits) {
    os << (e.kind == inc::Edit::Kind::SetF ? 'f' : 'b') << ' ' << e.node << ' ' << e.value
       << '\n';
  }
  if (!os) throw std::runtime_error("save_edits: write failed");
}

std::vector<inc::Edit> load_edits(std::istream& is) {
  std::string magic, version;
  if (!(is >> magic >> version) || magic != kEditsMagic || version != kEditsVersion) {
    throw std::runtime_error("load_edits: bad header (expected 'sfcp-edits v1')");
  }
  std::size_t m = 0;
  if (!(is >> m)) throw std::runtime_error("load_edits: missing count");
  if (m > kMaxNodes) throw std::runtime_error("load_edits: unreasonable count");
  std::vector<inc::Edit> edits;
  // The count is untrusted until the payload backs it up: cap the up-front
  // reservation and let push_back grow past it.
  edits.reserve(std::min<std::size_t>(m, std::size_t{1} << 20));
  for (std::size_t i = 0; i < m; ++i) {
    std::string op;
    u32 node = 0, value = 0;
    if (!(is >> op >> node >> value) || (op != "f" && op != "b")) {
      throw std::runtime_error("load_edits: truncated or malformed edit " + std::to_string(i));
    }
    edits.push_back(op == "f" ? inc::Edit::set_f(node, value) : inc::Edit::set_b(node, value));
  }
  return edits;
}

void save_edits_file(const std::string& path, std::span<const inc::Edit> edits) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_edits_file: cannot open " + path);
  save_edits(os, edits);
}

std::vector<inc::Edit> load_edits_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_edits_file: cannot open " + path);
  return load_edits(is);
}

}  // namespace sfcp::util

// serve/: wire-protocol codecs, the epoch-batched TCP server, the blocking
// client, journal durability and change notifications — all over real
// loopback sockets (ephemeral ports, one event-loop thread per fixture).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "engine.hpp"
#include "serve/client.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

// ---- protocol codecs -----------------------------------------------------

TEST(ServeProtocol, EditRequestRoundTrip) {
  const std::vector<inc::Edit> edits = {inc::Edit::set_f(3, 9), inc::Edit::set_b(0, 123456),
                                        inc::Edit::set_b(4294967295u, 0)};
  EXPECT_EQ(serve::decode_edit_request(serve::encode_edit_request(edits)), edits);
  EXPECT_TRUE(serve::decode_edit_request(serve::encode_edit_request({})).empty());
}

TEST(ServeProtocol, EditRequestRejectsLengthMismatch) {
  const std::vector<inc::Edit> one = {inc::Edit::set_b(1, 2)};
  std::string payload = serve::encode_edit_request(one);
  payload.push_back('\0');  // trailing garbage: count no longer matches size
  EXPECT_THROW(serve::decode_edit_request(payload), std::runtime_error);
  EXPECT_THROW(serve::decode_edit_request(std::string_view(payload).substr(0, 3)),
               std::runtime_error);
}

TEST(ServeProtocol, NotifyRoundTrip) {
  const std::vector<u32> classes = {1, 5, 9};
  const serve::Notification n = serve::decode_notify(serve::encode_notify(42, false, classes));
  EXPECT_EQ(n.epoch, 42u);
  EXPECT_FALSE(n.full);
  EXPECT_EQ(n.classes, classes);

  const serve::Notification full = serve::decode_notify(serve::encode_notify(7, true, {}));
  EXPECT_TRUE(full.full);
  EXPECT_TRUE(full.classes.empty());
}

TEST(ServeProtocol, ErrorRoundTrip) {
  EXPECT_EQ(serve::decode_error(serve::encode_error("node 7 out of range")),
            "node 7 out of range");
}

TEST(ServeProtocol, FrameSplitterReassemblesByteByByte) {
  const std::vector<inc::Edit> one = {inc::Edit::set_b(1, 2)};
  std::string stream;
  serve::append_magic(stream);
  serve::append_frame(stream, serve::FrameType::kView, "");
  serve::append_frame(stream, serve::FrameType::kEdit, serve::encode_edit_request(one));

  serve::FrameSplitter split;
  std::vector<serve::Frame> frames;
  for (char byte : stream) {  // worst-case fragmentation: one byte per read
    split.feed(&byte, 1);
    while (auto f = split.next()) frames.push_back(std::move(*f));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, serve::FrameType::kView);
  EXPECT_EQ(frames[1].type, serve::FrameType::kEdit);
  EXPECT_EQ(serve::decode_edit_request(frames[1].payload),
            (std::vector<inc::Edit>{inc::Edit::set_b(1, 2)}));
  EXPECT_TRUE(split.handshaken());
}

TEST(ServeProtocol, FrameSplitterRejectsForeignMagic) {
  serve::FrameSplitter split;
  const std::string bad = "GET / HTTP/1.1\r\n";
  split.feed(bad.data(), bad.size());
  EXPECT_THROW(split.next(), std::runtime_error);
}

// ---- server/client over loopback -----------------------------------------

/// One server on an ephemeral loopback port with its event loop on a
/// background thread, plus a helper to mint connected clients.
class LoopbackServer {
 public:
  explicit LoopbackServer(std::unique_ptr<Engine> engine, serve::ServerOptions opt = {}) {
    server_ = std::make_unique<serve::Server>(std::move(engine), std::move(opt));
    loop_ = std::thread([s = server_.get()] { s->run(); });
  }
  ~LoopbackServer() { shutdown(); }

  void shutdown() {
    if (server_) {
      server_->stop();
      loop_.join();
      server_.reset();
    }
  }

  serve::Client connect() { return serve::Client::connect("127.0.0.1", server_->port()); }
  std::uint16_t port() const { return server_->port(); }
  /// Only meaningful once the loop thread has been shut down.
  serve::Server& server() { return *server_; }

 private:
  std::unique_ptr<serve::Server> server_;
  std::thread loop_;
};

graph::Instance test_instance(std::size_t n = 600, u64 seed = 501) {
  util::Rng rng(seed);
  return util::random_function(n, 4, rng);
}

std::map<std::string, u64> stat_map(serve::Client& client) {
  std::map<std::string, u64> m;
  for (auto& [k, v] : client.stats()) m[k] = v;
  return m;
}

// C++20 std::span does not bind to a braced list; funnel literals through a
// vector.
u64 apply_edits(serve::Client& client, std::vector<inc::Edit> edits) {
  return client.apply(edits);
}

TEST(ServeServer, ServesViewsQueriesAndLabels) {
  const graph::Instance inst = test_instance();
  LoopbackServer srv(engines().make("incremental", inst));
  serve::Client client = srv.connect();

  const serve::Client::ViewInfo v0 = client.view();
  EXPECT_EQ(v0.epoch, 0u);
  EXPECT_EQ(v0.n, inst.size());

  // Mutate over the wire, then compare every read surface against a fresh
  // solve on the identically mutated instance.
  graph::Instance reference = inst;
  const std::vector<inc::Edit> edits = {inc::Edit::set_b(17, 999), inc::Edit::set_f(3, 3),
                                        inc::Edit::set_b(0, 1)};
  for (const inc::Edit& e : edits) inc::apply_raw(e, reference.f, reference.b);
  const u64 epoch = client.apply(edits);
  EXPECT_GE(epoch, 1u);

  const core::Result want = core::solve(reference);
  const serve::Client::Labels got = client.labels();
  EXPECT_EQ(got.epoch, epoch);
  EXPECT_EQ(got.num_classes, want.num_blocks);
  EXPECT_EQ(got.labels, want.q);

  for (u32 x : {0u, 3u, 17u, 599u}) {
    EXPECT_EQ(client.class_of(x), want.q[x]) << "x=" << x;
  }
  const u32 c17 = client.class_of(17);
  const std::vector<u32> members = client.members(c17);
  EXPECT_TRUE(std::find(members.begin(), members.end(), 17u) != members.end());
  for (u32 x : members) EXPECT_EQ(want.q[x], want.q[17]);
}

TEST(ServeServer, EmptyEditBatchAcksCurrentEpoch) {
  LoopbackServer srv(engines().make("incremental", test_instance(100)));
  serve::Client client = srv.connect();
  const u64 e1 = client.apply({});
  EXPECT_EQ(e1, 0u);
  apply_edits(client, {inc::Edit::set_b(1, 77)});
  EXPECT_EQ(client.apply({}), client.view().epoch);
}

TEST(ServeServer, InvalidEditsAreRejectedWholeFrameAndNotJournaled) {
  const std::string dir = ::testing::TempDir() + "serve_reject";
  std::filesystem::create_directories(dir);
  serve::ServerOptions opt;
  opt.journal_path = dir + "/wal";
  LoopbackServer srv(engines().make("incremental", test_instance(100)), opt);
  serve::Client client = srv.connect();

  // Node out of range: the whole frame (good edit included) must bounce.
  const std::vector<inc::Edit> bad = {inc::Edit::set_b(1, 5), inc::Edit::set_b(100, 5)};
  EXPECT_THROW(client.apply(bad), std::runtime_error);
  EXPECT_THROW(apply_edits(client, {inc::Edit::set_f(2, 100)}), std::runtime_error);

  // The connection survives, the epoch did not move, nothing was journaled.
  EXPECT_EQ(client.view().epoch, 0u);
  const auto stats = stat_map(client);
  EXPECT_EQ(stats.at("edit_frames_rejected"), 2u);
  EXPECT_EQ(stats.at("edits_accepted"), 0u);
  EXPECT_EQ(stats.at("journal_records"), 0u);

  EXPECT_EQ(apply_edits(client, {inc::Edit::set_b(1, 5)}), 1u);
  EXPECT_EQ(stat_map(client).at("journal_records"), 1u);
  std::filesystem::remove_all(dir);
}

TEST(ServeServer, NotifiesChangedClassesOnly) {
  const graph::Instance inst = test_instance();
  LoopbackServer srv(engines().make("incremental", inst));
  serve::Client client = srv.connect();
  client.subscribe();

  // A b-relabel of one node dirties a bounded region: the notification must
  // be a non-full delta whose classes include the edited node's new class.
  const u64 epoch = apply_edits(client, {inc::Edit::set_b(17, 424242)});
  const auto n = client.next_notification(5000);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->epoch, epoch);
  EXPECT_FALSE(n->full);
  ASSERT_FALSE(n->classes.empty());
  const u32 c17 = client.class_of(17);
  EXPECT_TRUE(std::find(n->classes.begin(), n->classes.end(), c17) != n->classes.end());
  EXPECT_TRUE(std::is_sorted(n->classes.begin(), n->classes.end()));

  // No second notification is owed.
  EXPECT_FALSE(client.next_notification(0).has_value());
}

TEST(ServeServer, BatchEngineDowngradesNotificationsToFull) {
  LoopbackServer srv(engines().make("batch", test_instance(200)));
  serve::Client client = srv.connect();
  client.subscribe();
  const u64 epoch = apply_edits(client, {inc::Edit::set_b(5, 77)});
  const auto n = client.next_notification(5000);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->epoch, epoch);
  EXPECT_TRUE(n->full);  // a re-solving engine cannot name changed classes
  EXPECT_TRUE(n->classes.empty());
}

TEST(ServeServer, MultipleSubscribersAllNotified) {
  LoopbackServer srv(engines().make("incremental", test_instance()));
  serve::Client a = srv.connect();
  serve::Client b = srv.connect();
  serve::Client editor = srv.connect();
  a.subscribe();
  b.subscribe();

  const u64 epoch = apply_edits(editor, {inc::Edit::set_b(42, 4242)});
  for (serve::Client* c : {&a, &b}) {
    const auto n = c->next_notification(5000);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(n->epoch, epoch);
  }
  // The editor did not subscribe and gets nothing.
  EXPECT_FALSE(editor.next_notification(0).has_value());
  // All three observe the same labels.
  EXPECT_EQ(a.labels().labels, editor.labels().labels);
  EXPECT_EQ(b.labels().labels, editor.labels().labels);
}

TEST(ServeServer, EpochBatchingCoalescesPipelinedEdits) {
  LoopbackServer srv(engines().make("incremental", test_instance()));
  serve::Client client = srv.connect();
  // Fire several EDIT frames without collecting acks: the server accepts
  // them within one loop iteration and lands them in few epoch flushes.
  const int kFrames = 50;
  for (int i = 0; i < kFrames; ++i) {
    const inc::Edit e = inc::Edit::set_b(static_cast<u32>(i), 90000u + static_cast<u32>(i));
    client.send_edits({&e, 1});
  }
  u64 last = 0;
  for (int i = 0; i < kFrames; ++i) {
    const u64 e = client.await_edited();
    EXPECT_GE(e, last);  // acks arrive in order, epochs monotone
    last = e;
  }
  const auto stats = stat_map(client);
  EXPECT_EQ(stats.at("edits_accepted"), static_cast<u64>(kFrames));
  EXPECT_LE(stats.at("epochs_flushed"), static_cast<u64>(kFrames));
  EXPECT_EQ(client.view().epoch, last);
}

TEST(ServeServer, EditsPipelinedBeforeCloseStillLand) {
  const graph::Instance inst = test_instance(200, 17);
  LoopbackServer srv(engines().make("incremental", inst));
  const std::vector<inc::Edit> edits = {inc::Edit::set_b(3, 111), inc::Edit::set_f(4, 5)};

  // Fire-and-close over a raw socket: complete the handshake (drain the
  // server's magic, so our close is an orderly FIN rather than an RST that
  // may destroy in-flight data), pipeline an EDIT frame and close straight
  // away.  The frame and the FIN can arrive in the same readiness event, and
  // buffered frames must be applied before the EOF is honored — otherwise
  // the edits vanish silently.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    struct sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(srv.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)), 0);
    char magic[8];
    std::size_t got = 0;
    while (got < sizeof(magic)) {
      const ssize_t n = ::read(fd, magic + got, sizeof(magic) - got);
      ASSERT_GT(n, 0);
      got += static_cast<std::size_t>(n);
    }
    std::string stream;
    serve::append_magic(stream);
    serve::append_frame(stream, serve::FrameType::kEdit, serve::encode_edit_request(edits));
    ASSERT_EQ(::write(fd, stream.data(), stream.size()),
              static_cast<ssize_t>(stream.size()));
    ::close(fd);  // no unread data left: an orderly shutdown, not an abort
  }

  graph::Instance reference = inst;
  for (const inc::Edit& e : edits) inc::apply_raw(e, reference.f, reference.b);
  const core::Result want = core::solve(reference);

  serve::Client reader = srv.connect();
  u64 epoch = reader.view().epoch;
  for (int i = 0; i < 2500 && epoch == 0; ++i) {  // burst bytes race our connect
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    epoch = reader.view().epoch;
  }
  EXPECT_GE(epoch, 1u);
  EXPECT_EQ(reader.labels().labels, want.q);
}

// A child process drives the server's journal into a real mid-record write
// failure (RLIMIT_FSIZE: the kernel cuts a write short, then fails with
// EFBIG).  Edits must be refused server-wide from then on — an acked edit
// must never outrun the log — while reads keep working, and the journal on
// disk must still end at a record boundary.
TEST(ServeServer, JournalFailureDisablesEditsButServesReads) {
  const std::string dir = ::testing::TempDir() + "serve_journal_fail";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/wal";

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::signal(SIGXFSZ, SIG_IGN);  // surface the limit as EFBIG, not a signal
    struct rlimit lim {128, 128};
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) _exit(10);
    try {
      serve::ServerOptions opt;
      opt.journal_path = journal;
      opt.fsync = serve::FsyncPolicy::Off;
      serve::Server server(engines().make("incremental", test_instance(100)), opt);
      std::thread loop([&server] { server.run(); });
      serve::Client client = serve::Client::connect("127.0.0.1", server.port());

      bool failed = false;
      for (int i = 0; i < 32 && !failed; ++i) {
        try {
          apply_edits(client, {inc::Edit::set_b(1, 1000u + static_cast<u32>(i))});
        } catch (const std::exception&) {
          failed = true;
        }
      }
      int code = 0;
      const u64 epoch_after_fail = client.view().epoch;  // reads still served
      if (!failed) {
        code = 11;  // the 128-byte limit never fired
      } else {
        try {
          apply_edits(client, {inc::Edit::set_b(2, 9)});
          code = 12;  // edit accepted after journal failure
        } catch (const std::exception&) {
        }
      }
      if (code == 0 && client.view().epoch != epoch_after_fail) code = 13;
      if (code == 0) {
        const auto stats = client.stats();
        bool flagged = false;
        for (const auto& [k, v] : stats) {
          if (k == "journal_failed") flagged = v == 1;
        }
        if (!flagged) code = 14;
      }
      server.stop();
      loop.join();
      _exit(code);
    } catch (...) {
      _exit(15);
    }
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The rolled-back partial record left a cleanly scannable log.
  std::ifstream is(journal, std::ios::binary);
  ASSERT_TRUE(is.good());
  const util::JournalScan scan = util::scan_journal(is);
  EXPECT_FALSE(scan.torn) << scan.error;
  EXPECT_GT(scan.records.size(), 0u);
  EXPECT_EQ(scan.valid_bytes, std::filesystem::file_size(journal));
  std::filesystem::remove_all(dir);
}

TEST(ServeServer, HandshakeRejectsForeignPeer) {
  LoopbackServer srv(engines().make("incremental", test_instance(50)));
  // A well-behaved client must keep working while a garbage peer is dropped.
  serve::Client good = srv.connect();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(srv.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string garbage = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  // The server answers with its magic (+ maybe an Error frame), then closes.
  char buf[256];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
  }
  EXPECT_EQ(n, 0) << "server should close a non-sfcp-wire peer";
  ::close(fd);

  EXPECT_EQ(good.view().n, 50u);
}

TEST(ServeServer, CheckpointOverWireResetsJournalAndRestores) {
  const std::string dir = ::testing::TempDir() + "serve_ckpt";
  std::filesystem::create_directories(dir);
  const graph::Instance inst = test_instance(300, 777);
  serve::ServerOptions opt;
  opt.journal_path = dir + "/wal";

  std::vector<u32> want_labels;
  u64 want_epoch = 0;
  {
    LoopbackServer srv(engines().make("incremental", inst), opt);
    serve::Client client = srv.connect();
    apply_edits(client, {inc::Edit::set_b(1, 71), inc::Edit::set_f(2, 9)});
    EXPECT_GT(stat_map(client).at("journal_bytes"), 8u);

    want_epoch = client.checkpoint();  // server-side atomic write + journal reset
    EXPECT_EQ(stat_map(client).at("journal_bytes"), 8u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/wal.ckpt"));

    // More edits after the checkpoint land in the (reset) journal.
    want_epoch = apply_edits(client, {inc::Edit::set_b(5, 55)});
    want_labels = client.labels().labels;
  }

  // Cold restart: checkpoint restores the warm engine, the server replays
  // the post-checkpoint journal tail.
  std::unique_ptr<Engine> engine = serve::recover_engine(dir + "/wal.ckpt", "incremental",
                                                         graph::Instance(inst));
  serve::Server server(std::move(engine), opt);
  EXPECT_EQ(server.stats().recovered_records, 1u);
  EXPECT_EQ(server.engine().epoch(), want_epoch);
  const core::PartitionView v = server.engine().view();
  const std::span<const u32> labels = v.labels();
  EXPECT_TRUE(std::equal(labels.begin(), labels.end(), want_labels.begin(),
                         want_labels.end()));
  std::filesystem::remove_all(dir);
}

TEST(ServeServer, StatsExportsServingCounters) {
  LoopbackServer srv(engines().make("incremental", test_instance(100)));
  serve::Client client = srv.connect();
  apply_edits(client, {inc::Edit::set_b(1, 2)});
  const auto stats = stat_map(client);
  for (const char* key :
       {"epoch", "n", "num_classes", "connections_open", "frames_served", "edits_accepted",
        "epochs_flushed", "engine_edits", "journal_records", "recovered_records"}) {
    EXPECT_TRUE(stats.count(key)) << "missing stats key " << key;
  }
  EXPECT_EQ(stats.at("epoch"), 1u);
  EXPECT_EQ(stats.at("n"), 100u);
  EXPECT_EQ(stats.at("connections_open"), 1u);
}

// ---- serve::Journal ------------------------------------------------------

TEST(ServeJournal, FreshFileGetsHeaderAndAppendsAccumulate) {
  const std::string path = ::testing::TempDir() + "serve_journal_fresh.wal";
  std::remove(path.c_str());
  {
    serve::Journal j(path, serve::FsyncPolicy::Always);
    EXPECT_FALSE(j.tail_was_torn());
    EXPECT_TRUE(j.recovered().empty());
    EXPECT_EQ(j.bytes(), 8u);
    j.append({0, {inc::Edit::set_b(1, 2)}});
    j.append({1, {inc::Edit::set_f(3, 4)}});
    EXPECT_EQ(j.appended_records(), 2u);
    EXPECT_GE(j.fsyncs(), 2u);
  }
  serve::Journal reopened(path, serve::FsyncPolicy::Off);
  EXPECT_FALSE(reopened.tail_was_torn());
  ASSERT_EQ(reopened.recovered().size(), 2u);
  EXPECT_EQ(reopened.recovered()[1].epoch, 1u);
  std::remove(path.c_str());
}

TEST(ServeJournal, TornTailIsTruncatedInPlaceOnOpen) {
  const std::string path = ::testing::TempDir() + "serve_journal_torn.wal";
  std::remove(path.c_str());
  u64 good_bytes = 0;
  {
    serve::Journal j(path, serve::FsyncPolicy::Off);
    j.append({0, {inc::Edit::set_b(1, 2)}});
    good_bytes = j.bytes();
  }
  {
    // Crash mid-append: half a record lands after the good prefix.
    std::ofstream os(path, std::ios::binary | std::ios::app);
    const std::string rec = util::encode_journal_record({1, {inc::Edit::set_f(5, 6)}});
    os.write(rec.data(), static_cast<std::streamsize>(rec.size() / 2));
  }
  serve::Journal reopened(path, serve::FsyncPolicy::Off);
  EXPECT_TRUE(reopened.tail_was_torn());
  EXPECT_NE(reopened.tear_error().find("byte offset " + std::to_string(good_bytes)),
            std::string::npos)
      << reopened.tear_error();
  ASSERT_EQ(reopened.recovered().size(), 1u);
  EXPECT_EQ(reopened.bytes(), good_bytes);
  EXPECT_EQ(std::filesystem::file_size(path), good_bytes);  // tail physically gone
  std::remove(path.c_str());
}

TEST(ServeJournal, FailedAppendRollsBackPartialRecord) {
  const std::string path = ::testing::TempDir() + "serve_journal_efbig.wal";
  std::remove(path.c_str());

  // A child hits a genuine mid-record write failure (RLIMIT_FSIZE cuts one
  // write short, the next fails with EFBIG) and exits with the number of
  // appends that fully succeeded.  The rollback in Journal::append must
  // leave the file ending exactly at that record boundary.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    struct rlimit lim {256, 256};
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) _exit(120);
    int ok = 0;
    try {
      serve::Journal j(path, serve::FsyncPolicy::Always);
      for (int i = 0; i < 64; ++i) {
        j.append({static_cast<u64>(i), {inc::Edit::set_b(1, static_cast<u32>(i))}});
        ++ok;
      }
      _exit(121);  // the limit must have fired within 64 records
    } catch (const std::exception&) {
      _exit(ok);
    }
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  const int ok = WEXITSTATUS(status);
  ASSERT_LT(ok, 120) << "child setup failed (code " << ok << ")";
  ASSERT_GT(ok, 0);

  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());
  const util::JournalScan scan = util::scan_journal(is);
  EXPECT_FALSE(scan.torn) << scan.error;
  EXPECT_EQ(scan.records.size(), static_cast<std::size_t>(ok));
  EXPECT_EQ(scan.valid_bytes, std::filesystem::file_size(path));
  std::remove(path.c_str());
}

TEST(ServeJournal, ReplaySkipsRecordsTheCheckpointAbsorbed) {
  const std::string path = ::testing::TempDir() + "serve_journal_replay.wal";
  std::remove(path.c_str());
  const graph::Instance inst = test_instance(80, 31);
  {
    serve::Journal j(path, serve::FsyncPolicy::Off);
    j.append({0, {inc::Edit::set_b(1, 100)}});  // pre-checkpoint (epoch 0 -> 1)
    j.append({1, {inc::Edit::set_b(2, 200)}});  // post-checkpoint
  }
  // An engine already at epoch 1 (as if restored from a checkpoint taken
  // after the first record) must replay only the second record.
  std::unique_ptr<Engine> engine = engines().make("incremental", graph::Instance(inst));
  engine->set_b(1, 100);
  ASSERT_EQ(engine->epoch(), 1u);
  serve::Journal j(path, serve::FsyncPolicy::Off);
  u64 skipped = 0;
  EXPECT_EQ(j.replay(*engine, &skipped), 1u);
  EXPECT_EQ(skipped, 1u);
  EXPECT_EQ(engine->epoch(), 2u);

  graph::Instance reference = inst;
  reference.b[1] = 100;
  reference.b[2] = 200;
  const core::Result want = core::solve(reference);
  const core::PartitionView v = engine->view();
  const std::span<const u32> labels = v.labels();
  EXPECT_TRUE(std::equal(labels.begin(), labels.end(), want.q.begin(), want.q.end()));
  std::remove(path.c_str());
}

TEST(ServeJournal, FsyncPolicyNamesRoundTrip) {
  for (const auto policy : {serve::FsyncPolicy::Always, serve::FsyncPolicy::Epoch,
                            serve::FsyncPolicy::Off}) {
    EXPECT_EQ(serve::parse_fsync_policy(serve::fsync_policy_name(policy)), policy);
  }
  EXPECT_THROW(serve::parse_fsync_policy("sometimes"), std::invalid_argument);
}

}  // namespace
}  // namespace sfcp

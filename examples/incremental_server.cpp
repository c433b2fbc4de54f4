// incremental_server — a REPL-style serving loop that now talks `sfcp-wire
// v1` to an in-process serve::Server: load or generate an instance once,
// pick an engine from sfcp::engines() ("incremental" repairs per edit,
// "batch" re-solves per epoch), and the REPL
// drives edits and queries through a serve::Client — the exact same frames
// (and the exact same command dispatcher, serve/repl.hpp) that `sfcp_cli
// connect` uses against a remote server.  Pipe a script in, or drive it
// interactively:
//
//   $ ./incremental_server
//   > gen random 100000 42
//   n=100000 engine=incremental classes=214 epoch=0
//   > setb 17 3
//   applied 1 edit classes=215 epoch=1
//   > classof 17
//   class(17) = 214
//   > members 214
//   class 214 (1 node): 17
//   > checkpoint warm.ckpt
//   checkpoint written to warm.ckpt at epoch 1
//
// Lifecycle commands (local): gen <random|permutation|mergeable|longtail> <n> [seed]
//           engine <incremental|batch>  (selects engine; restarts server)
//           load <path>            (text or binary instance, autodetected)
//           save <path> [binary]   (instance only, from the local mirror)
//           restore <path>         (restart warm from an sfcp-checkpoint v1)
//           stream <localized|uniform|churn> <count> [seed]
//           help | quit
// Serving commands (over the wire — serve/repl.hpp): setf, setb, edits,
//           classof/query, members, blocks, view, stats, checkpoint,
//           subscribe, await.
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "engine.hpp"
#include "prof/profile.hpp"
#include "serve/client.hpp"
#include "serve/repl.hpp"
#include "serve/server.hpp"
#include "util/generators.hpp"
#include "util/io.hpp"
#include "util/random.hpp"

using namespace sfcp;

namespace {

void print_lifecycle_help() {
  std::cout << "lifecycle commands (local):\n"
               "  gen <random|permutation|mergeable|longtail> <n> [seed]\n"
               "  engine <incremental|batch>  select engine kind (restarts server)\n"
               "  load <path>              load instance (text/binary autodetect)\n"
               "  save <path> [binary]     save current instance (local mirror)\n"
               "  restore <path>           restart warm from a checkpoint\n"
               "  stream <localized|uniform|churn> <count> [seed]\n"
               "  help\n";
}

std::optional<graph::Instance> generate(const std::string& kind, std::size_t n, u64 seed) {
  util::Rng rng(seed);
  if (kind == "random") return util::random_function(n, 4, rng);
  if (kind == "permutation") return util::random_permutation(n, 4, rng);
  if (kind == "mergeable") return util::mergeable(n, 4, rng);
  if (kind == "longtail") return util::long_tail(n, std::max<std::size_t>(4, n / 16), 4, rng);
  return std::nullopt;
}

std::optional<util::EditMix> parse_mix(const std::string& name) {
  if (name == "localized") return util::EditMix::LocalizedHotspot;
  if (name == "uniform") return util::EditMix::Uniform;
  if (name == "churn") return util::EditMix::CycleChurn;
  return std::nullopt;
}

/// The in-process server + its event-loop thread + the REPL's client, plus
/// the local instance mirror that keeps `save` and `stream` working without
/// an instance-download frame.
struct Session {
  graph::Instance mirror;
  std::unique_ptr<serve::Server> server;
  std::thread loop;
  serve::Client client;

  bool running() const { return server != nullptr; }

  void stop() {
    if (!server) return;
    client.close();
    server->stop();
    loop.join();
    server.reset();
  }

  /// Boots a server around `engine` and connects the REPL client to it.
  void start(std::unique_ptr<Engine> engine) {
    stop();
    mirror = graph::Instance(engine->instance());
    server = std::make_unique<serve::Server>(std::move(engine));
    loop = std::thread([s = server.get()] { s->run(); });
    try {
      client = serve::Client::connect("127.0.0.1", server->port());
    } catch (...) {
      server->stop();
      loop.join();
      server.reset();
      throw;
    }
  }

  /// Keeps the mirror in lock-step with edits the server accepted.
  void mirror_edits(std::span<const inc::Edit> edits) {
    for (const inc::Edit& e : edits) inc::apply_raw(e, mirror.f, mirror.b);
  }
};

}  // namespace

int main() {
  // Process-default profiler: in SFCP_PROFILE builds the server loop thread
  // records serve/inc phases, so the REPL's `stats` (journal fsync /
  // epoch-apply lines) and `profile` commands have data.  Inert otherwise.
  prof::Profiler profiler;
  prof::ScopedProfiler prof_guard(profiler);
  Session session;
  std::string engine_kind = "incremental";
  util::Rng stream_seed_rng(0xd1ce);

  const auto ensure = [&]() -> bool {
    if (!session.running()) std::cout << "no instance loaded (use gen or load)\n";
    return session.running();
  };
  const auto headline = [&]() {
    const serve::Client::ViewInfo v = session.client.view();
    std::cout << "n=" << v.n << " engine=" << engine_kind << " classes=" << v.num_classes
              << " epoch=" << v.epoch << "\n";
  };
  const auto adopt = [&](graph::Instance inst) {
    session.start(engines().make(engine_kind, std::move(inst)));
    headline();
  };

  serve::ReplHooks hooks;
  hooks.on_edits = [&](std::span<const inc::Edit> edits) { session.mirror_edits(edits); };

  std::cout << "SFCP serving REPL (sfcp-wire v1 over an in-process server) — "
               "'help' for commands\n";
  std::string line;
  while (std::cout << "> " << std::flush, std::getline(std::cin, line)) {
    std::istringstream ss(line);
    std::string cmd;
    if (!(ss >> cmd) || cmd.empty() || cmd[0] == '#') continue;

    // Serving commands go through the shared wire dispatcher first.
    if (session.running()) {
      const serve::ReplResult r =
          serve::run_serve_command(session.client, line, std::cout, hooks);
      if (r == serve::ReplResult::Quit) break;
      if (r == serve::ReplResult::Handled) continue;
    } else if (cmd == "quit" || cmd == "exit") {
      break;
    }

    try {
      if (cmd == "help") {
        print_lifecycle_help();
        serve::print_serve_help(std::cout);
      } else if (cmd == "engine") {
        std::string kind;
        ss >> kind;
        if (!engines().find(kind)) {
          std::cout << "unknown engine '" << kind << "' (have:";
          for (const auto& name : engines().names()) std::cout << ' ' << name;
          std::cout << ")\n";
          continue;
        }
        engine_kind = kind;
        if (session.running()) {
          adopt(graph::Instance(session.mirror));  // re-adopt under the new kind
        } else {
          std::cout << "engine=" << engine_kind << " (takes effect on gen/load)\n";
        }
      } else if (cmd == "gen") {
        std::string kind;
        std::size_t n = 0;
        u64 seed = 1;
        ss >> kind >> n;
        ss >> seed;
        auto inst = generate(kind, n, seed);
        if (!inst) {
          std::cout << "unknown kind '" << kind << "'\n";
        } else {
          adopt(std::move(*inst));
        }
      } else if (cmd == "load") {
        std::string path;
        ss >> path;
        adopt(util::load_instance_file(path));
      } else if (cmd == "save") {
        if (!ensure()) continue;
        std::string path, mode;
        ss >> path >> mode;
        util::save_instance_file(path, session.mirror,
                                 mode == "binary" ? util::InstanceFormat::Binary
                                                  : util::InstanceFormat::Text);
        std::cout << "saved " << path << "\n";
      } else if (cmd == "restore") {
        std::string path;
        ss >> path;
        std::ifstream is(path, std::ios::binary);
        if (!is) {
          std::cout << "cannot open " << path << "\n";
          continue;
        }
        LoadedEngine loaded = load_engine_checkpoint(is);
        engine_kind = std::string(loaded.kind);
        session.start(std::move(loaded.engine));
        std::cout << "restored ";
        headline();
      } else if (cmd == "stream") {
        if (!ensure()) continue;
        std::string mix_name;
        std::size_t count = 0;
        u64 seed = stream_seed_rng.next();
        ss >> mix_name >> count;
        ss >> seed;
        const auto mix = parse_mix(mix_name);
        if (!mix) {
          std::cout << "unknown mix '" << mix_name << "'\n";
          continue;
        }
        util::Rng rng(seed);
        const auto stream = util::random_edit_stream(session.mirror, count, *mix, 6, rng);
        const u64 epoch = session.client.apply(stream);
        session.mirror_edits(stream);
        const serve::Client::ViewInfo v = session.client.view();
        std::cout << "applied " << stream.size() << " edit(s) classes=" << v.num_classes
                  << " epoch=" << epoch << "\n";
      } else {
        std::cout << "unknown command '" << cmd << "' — try 'help'\n";
      }
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }
  session.stop();
  return 0;
}

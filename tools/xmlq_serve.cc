// xmlq_serve — the standalone serving binary: an api::Database behind the
// epoll front-end (net::Server), with graceful drain on SIGTERM/SIGINT.
//
//   xmlq_serve --port 7227 --doc bib=bib.xml
//   xmlq_serve --gen-bib 500 --max-concurrent 8 --max-queue 32
//
// With no --doc/--store/--gen-bib, serves a generated 200-book bibliography
// so a fresh checkout can smoke-test the wire path with zero setup.

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "xmlq/api/database.h"
#include "xmlq/datagen/bib_gen.h"
#include "xmlq/net/server.h"
#include "xmlq/repl/replication.h"

namespace {

xmlq::net::Server* g_server = nullptr;

void HandleSignal(int) {
  // RequestDrain is async-signal-safe (atomic store + eventfd write).
  if (g_server != nullptr) g_server->RequestDrain();
}

/// SIGUSR1 = coordinated failover (DESIGN.md §14): promote this follower to
/// primary. The handler only sets a flag — promotion fsyncs, so the real
/// work runs on the watcher thread (and through the same mutex the wire
/// kPromote frame uses).
std::atomic<bool> g_promote_requested{false};

void HandlePromote(int) { g_promote_requested.store(true); }

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --host H                bind address (default 127.0.0.1)\n"
      "  --port N                TCP port; 0 = ephemeral (default 7227)\n"
      "  --port-file PATH        write the bound port to PATH (for scripts\n"
      "                          using --port 0)\n"
      "  --workers N             query worker threads (default 4)\n"
      "  --doc NAME=FILE         load an XML file (repeatable)\n"
      "  --store DIR             attach a durable store directory\n"
      "  --gen-bib N             serve a generated bibliography of N books\n"
      "  --max-concurrent N      admission: concurrent queries (0 = off)\n"
      "  --max-queue N           admission: wait-queue length\n"
      "  --queue-deadline-ms N   admission: shed after waiting this long\n"
      "  --idle-timeout-ms N     close idle connections (default 60000)\n"
      "  --max-inflight N        per-connection in-flight cap (default 16)\n"
      "  --drain-deadline-ms N   graceful-drain budget (default 5000)\n"
      "  --persist               persist loaded/generated docs into --store\n"
      "                          (gives a primary shippable generations)\n"
      "  --follow HOST:PORT      run as a read-only follower replicating\n"
      "                          from the primary at HOST:PORT (needs\n"
      "                          --store for the local replica)\n"
      "  --max-lag N             follower: shed reads when trailing the\n"
      "                          primary by more than N generations (0 =\n"
      "                          serve however stale; default 0)\n"
      "  --max-stale-ms N        follower: shed reads when the last\n"
      "                          heartbeat is older than this (0 = no\n"
      "                          bound; default 0)\n"
      "signals: SIGTERM/SIGINT drain; SIGUSR1 promotes a --store server to\n"
      "primary (stops replication, bumps+persists the epoch, lifts follower\n"
      "mode) — same as the wire kPromote frame (xmlq_loadgen --promote)\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  xmlq::net::ServerConfig config;
  config.port = 7227;
  xmlq::exec::AdmissionConfig admission;
  std::string store_dir;
  std::string port_file;
  std::string follow;  // "host:port" of the primary; empty = not a follower
  bool persist = false;
  xmlq::repl::ReplicationConfig repl_config;
  int gen_bib = 0;
  std::vector<std::pair<std::string, std::string>> docs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--host" && (v = next())) config.host = v;
    else if (arg == "--port" && (v = next()))
      config.port = static_cast<uint16_t>(std::atoi(v));
    else if (arg == "--port-file" && (v = next())) port_file = v;
    else if (arg == "--workers" && (v = next()))
      config.workers = static_cast<uint32_t>(std::atoi(v));
    else if (arg == "--doc" && (v = next())) {
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr) return Usage(argv[0]);
      docs.emplace_back(std::string(v, eq), std::string(eq + 1));
    } else if (arg == "--store" && (v = next())) store_dir = v;
    else if (arg == "--gen-bib" && (v = next())) gen_bib = std::atoi(v);
    else if (arg == "--max-concurrent" && (v = next()))
      admission.max_concurrent = static_cast<uint32_t>(std::atoi(v));
    else if (arg == "--max-queue" && (v = next()))
      admission.max_queue = static_cast<uint32_t>(std::atoi(v));
    else if (arg == "--queue-deadline-ms" && (v = next()))
      admission.queue_deadline_micros = std::strtoull(v, nullptr, 10) * 1000;
    else if (arg == "--idle-timeout-ms" && (v = next()))
      config.limits.idle_timeout_micros =
          std::strtoull(v, nullptr, 10) * 1000;
    else if (arg == "--max-inflight" && (v = next()))
      config.limits.max_inflight = static_cast<uint32_t>(std::atoi(v));
    else if (arg == "--drain-deadline-ms" && (v = next()))
      config.drain_deadline_micros = std::strtoull(v, nullptr, 10) * 1000;
    else if (arg == "--persist") persist = true;
    else if (arg == "--follow" && (v = next())) follow = v;
    else if (arg == "--max-lag" && (v = next()))
      repl_config.gate.max_generation_lag = std::strtoull(v, nullptr, 10);
    else if (arg == "--max-stale-ms" && (v = next()))
      repl_config.gate.max_heartbeat_age_micros =
          std::strtoull(v, nullptr, 10) * 1000;
    else
      return Usage(argv[0]);
  }

  if (!follow.empty()) {
    const size_t colon = follow.rfind(':');
    if (colon == std::string::npos || store_dir.empty()) {
      std::fprintf(stderr,
                   "--follow needs HOST:PORT and a --store directory\n");
      return Usage(argv[0]);
    }
    repl_config.host = follow.substr(0, colon);
    repl_config.port =
        static_cast<uint16_t>(std::atoi(follow.c_str() + colon + 1));
    repl_config.store_dir = store_dir;
  }

  xmlq::api::Database db;
  if (!store_dir.empty()) {
    auto report = db.Attach(store_dir);
    if (!report.ok()) {
      std::fprintf(stderr, "attach %s: %s\n", store_dir.c_str(),
                   report.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "%s", report->ToString().c_str());
  }
  for (const auto& [name, path] : docs) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const xmlq::Status status = db.LoadDocument(name, text.str());
    if (!status.ok()) {
      std::fprintf(stderr, "load %s: %s\n", path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %s from %s\n", name.c_str(), path.c_str());
  }
  if (docs.empty() && store_dir.empty() && follow.empty()) {
    if (gen_bib <= 0) gen_bib = 200;
  }
  if (gen_bib > 0) {
    xmlq::datagen::BibOptions options;
    options.num_books = static_cast<size_t>(gen_bib);
    const xmlq::Status status = db.RegisterDocument(
        "bib.xml", xmlq::datagen::GenerateBibliography(options));
    if (!status.ok()) {
      std::fprintf(stderr, "gen-bib: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "serving generated bib.xml (%d books)\n", gen_bib);
  }
  if (admission.max_concurrent != 0) db.SetAdmission(admission);

  if (persist && !store_dir.empty() && follow.empty()) {
    if (gen_bib > 0) docs.emplace_back("bib.xml", "(generated)");
    for (const auto& [name, path] : docs) {
      const xmlq::Status status = db.Persist(name);
      if (!status.ok()) {
        std::fprintf(stderr, "persist %s: %s\n", name.c_str(),
                     status.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "persisted %s\n", name.c_str());
    }
  }

  std::unique_ptr<xmlq::repl::ReplicationClient> repl;
  if (!follow.empty()) {
    repl = std::make_unique<xmlq::repl::ReplicationClient>(&db, repl_config);
    const xmlq::Status status = repl->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "follow %s: %s\n", follow.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    config.extra_stats = [&repl] { return repl->stats().ToString(); };
    std::fprintf(stderr, "following %s (store %s)\n", follow.c_str(),
                 store_dir.c_str());
  }

  // Coordinated failover (DESIGN.md §14): one promotion routine serves both
  // the wire kPromote frame and SIGUSR1. Order matters — the replication
  // client stops *first* so no shipment from the old primary can apply
  // concurrently with (or after) the epoch bump.
  std::mutex promote_mu;
  auto promote_now = [&db, &repl, &promote_mu]() -> xmlq::Result<uint64_t> {
    std::lock_guard<std::mutex> lock(promote_mu);
    if (repl != nullptr) repl->Stop();
    return db.Promote();
  };
  if (!store_dir.empty()) config.on_promote = promote_now;

  xmlq::net::Server server(&db, config);
  const xmlq::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
    return 1;
  }
  g_server = &server;
  (void)signal(SIGTERM, HandleSignal);
  (void)signal(SIGINT, HandleSignal);
  (void)signal(SIGUSR1, HandlePromote);
  (void)signal(SIGPIPE, SIG_IGN);
  std::atomic<bool> watcher_stop{false};
  std::thread promote_watcher([&] {
    while (!watcher_stop.load(std::memory_order_acquire)) {
      if (g_promote_requested.exchange(false)) {
        auto epoch = promote_now();
        if (epoch.ok()) {
          std::fprintf(stderr, "promoted; epoch=%llu\n",
                       static_cast<unsigned long long>(*epoch));
        } else {
          std::fprintf(stderr, "promote: %s\n",
                       epoch.status().ToString().c_str());
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  std::fprintf(stderr, "xmlq_serve listening on %s:%u (workers=%u)\n",
               config.host.c_str(), server.port(), config.workers);
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
  }

  const xmlq::Status exit_status = server.Wait();
  watcher_stop.store(true, std::memory_order_release);
  promote_watcher.join();
  if (repl != nullptr) {
    repl->Stop();
    std::fprintf(stderr, "replication stopped:\n%s",
                 repl->stats().ToString().c_str());
  }
  const xmlq::net::ServerStats stats = server.stats();
  std::fprintf(stderr, "drained; final counters:\n%s",
               stats.ToString().c_str());
  if (!exit_status.ok()) {
    std::fprintf(stderr, "serve loop: %s\n", exit_status.ToString().c_str());
    return 1;
  }
  return 0;
}

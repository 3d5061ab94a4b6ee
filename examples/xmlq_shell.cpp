// Interactive shell: load or generate documents, run XPath/XQuery, inspect
// plans and storage — the adoption surface for trying the engine out.
//
//   ./build/examples/xmlq_shell
//   xmlq> .gen auction 50
//   xmlq> //person[address][phone]/name
//   xmlq> .explain //item[payment = 'Cash']/location
//   xmlq> .strategy twigstack
//   xmlq> for $p in //person return $p/name

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "xmlq/api/database.h"
#include "xmlq/datagen/auction_gen.h"
#include "xmlq/datagen/bib_gen.h"
#include "xmlq/repl/replication.h"

namespace {

/// One `.bg` query running on its own thread. The shell polls `done` from
/// `.jobs`; the query id (for `.cancel`) is published by the database as
/// soon as it is assigned, before admission.
struct BackgroundJob {
  std::string query;
  std::thread thread;
  std::atomic<uint64_t> query_id{0};
  std::atomic<bool> done{false};
  std::string outcome;  // valid once done
};

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  .load <name> <file>     parse an XML file and register it\n"
      "  .gen auction <permille> generate an XMark-style document\n"
      "  .gen bib <books>        generate a bibliography document\n"
      "  .docs                   list loaded documents (* = default)\n"
      "  .explain <query>        show the logical plan + strategy choice\n"
      "  .explain analyze <query> run the query and show the profiled plan\n"
      "                          (est vs actual rows, counters, wall time)\n"
      "  .strategy <s>           force nok|twigstack|pathstack|binaryjoin|\n"
      "                          naive, or 'auto' for the cost model\n"
      "  .limits steps <n> | deadline <ms> | memory <bytes> | off\n"
      "                          bound every following query\n"
      "  .report [name]          storage footprint of a document\n"
      "  .save <name> <file>     write a document as an xqpack snapshot\n"
      "  .open <name> <file> [mmap|copy]\n"
      "                          open an xqpack snapshot (default mmap)\n"
      "  .attach <dir> [mmap|copy]\n"
      "                          attach a durable store: recover the\n"
      "                          manifest journal + verified snapshots\n"
      "  .persist [name]         durably save a document into the store\n"
      "  .remove <name>          remove a document (and its snapshot)\n"
      "  .scrub [deep]           verify every stored snapshot now;\n"
      "                          corrupt ones are quarantined\n"
      "  .scrubber <interval_ms> [deep] | .scrubber off\n"
      "                          run the integrity scrubber periodically\n"
      "  .serve <max_concurrent> [max_queue] [deadline_ms]\n"
      "                          bound concurrent queries; excess queries\n"
      "                          queue and are shed after the deadline\n"
      "  .bg <query>             run a query on a background thread\n"
      "  .jobs                   list background queries and their state\n"
      "  .cancel <id>            cooperatively cancel a running query\n"
      "  .stats admission        admission counters + circuit-breaker state\n"
      "  .stats cache            plan-cache counters (hits/misses/entries)\n"
      "  .follow <host> <port> <dir>\n"
      "                          become a read-only follower: replicate the\n"
      "                          primary at host:port into store dir and\n"
      "                          serve from it (stale reads keep working\n"
      "                          when the primary dies)\n"
      "  .follow off             stop replicating (keeps serving, stays\n"
      "                          read-only)\n"
      "  .promote                coordinated failover: stop replicating,\n"
      "                          bump+persist the fencing epoch and lift\n"
      "                          follower mode — this shell becomes the\n"
      "                          writable primary\n"
      "  .stats repl             replication stream health and counters\n"
      "  .help / .quit\n"
      "anything else is evaluated as XQuery (or XPath for '/...').\n");
}

}  // namespace

int main() {
  xmlq::api::Database db;
  std::vector<std::string> doc_names;
  std::vector<std::unique_ptr<BackgroundJob>> jobs;
  std::unique_ptr<xmlq::repl::ReplicationClient> repl;
  xmlq::api::QueryOptions options;
  std::printf("xmlq shell — .help for commands\n");

  std::string line;
  while (std::printf("xmlq> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string word;
    in >> word;
    if (word.empty()) continue;

    if (word == ".quit" || word == ".exit") break;
    if (word == ".help") {
      PrintHelp();
      continue;
    }
    if (word == ".load") {
      std::string name, file;
      in >> name >> file;
      std::ifstream stream(file);
      if (!stream) {
        std::printf("cannot open %s\n", file.c_str());
        continue;
      }
      std::stringstream buffer;
      buffer << stream.rdbuf();
      const xmlq::Status status = db.LoadDocument(name, buffer.str());
      if (status.ok()) {
        doc_names.push_back(name);
        std::printf("loaded %s\n", name.c_str());
      } else {
        std::printf("%s\n", status.ToString().c_str());
      }
      continue;
    }
    if (word == ".gen") {
      std::string kind;
      int size = 0;
      in >> kind >> size;
      xmlq::Status status = xmlq::Status::InvalidArgument("unknown kind");
      std::string name;
      if (kind == "auction") {
        xmlq::datagen::AuctionOptions gen;
        gen.scale = (size > 0 ? size : 50) / 1000.0;
        name = "auction.xml";
        status = db.RegisterDocument(name,
                                     xmlq::datagen::GenerateAuctionSite(gen));
      } else if (kind == "bib") {
        xmlq::datagen::BibOptions gen;
        gen.num_books = size > 0 ? static_cast<size_t>(size) : 100;
        name = "bib.xml";
        status = db.RegisterDocument(
            name, xmlq::datagen::GenerateBibliography(gen));
      }
      if (status.ok()) {
        doc_names.push_back(name);
        auto report = db.Report(name);
        std::printf("generated %s (%zu nodes)\n", name.c_str(),
                    report.ok() ? report->node_count : 0);
      } else {
        std::printf("%s\n", status.ToString().c_str());
      }
      continue;
    }
    if (word == ".docs") {
      for (const std::string& name : doc_names) {
        std::printf("  %s%s\n", name.c_str(),
                    name == db.default_document() ? " *" : "");
      }
      continue;
    }
    if (word == ".strategy") {
      std::string s;
      in >> s;
      options.auto_optimize = s == "auto";
      if (s == "nok") options.strategy = xmlq::exec::PatternStrategy::kNok;
      else if (s == "twigstack")
        options.strategy = xmlq::exec::PatternStrategy::kTwigStack;
      else if (s == "pathstack")
        options.strategy = xmlq::exec::PatternStrategy::kPathStack;
      else if (s == "binaryjoin")
        options.strategy = xmlq::exec::PatternStrategy::kBinaryJoin;
      else if (s == "naive")
        options.strategy = xmlq::exec::PatternStrategy::kNaive;
      else if (s != "auto") {
        std::printf("unknown strategy %s\n", s.c_str());
        continue;
      }
      std::printf("strategy: %s\n", s.c_str());
      continue;
    }
    if (word == ".limits") {
      std::string knob;
      uint64_t value = 0;
      in >> knob >> value;
      if (knob == "off") {
        options.limits = xmlq::QueryLimits{};
        std::printf("limits: off\n");
      } else if (knob == "steps" && value > 0) {
        options.limits.max_steps = value;
        std::printf("limits: max_steps=%llu\n",
                    static_cast<unsigned long long>(value));
      } else if (knob == "deadline" && value > 0) {
        options.limits.deadline_micros = value * 1000;
        std::printf("limits: deadline=%llums\n",
                    static_cast<unsigned long long>(value));
      } else if (knob == "memory" && value > 0) {
        options.limits.max_memory_bytes = value;
        std::printf("limits: max_memory_bytes=%llu\n",
                    static_cast<unsigned long long>(value));
      } else {
        std::printf("usage: .limits steps <n> | deadline <ms> | "
                    "memory <bytes> | off\n");
      }
      continue;
    }
    if (word == ".report") {
      std::string name;
      in >> name;
      auto report = db.Report(name);
      if (!report.ok()) {
        std::printf("%s\n", report.status().ToString().c_str());
        continue;
      }
      std::printf("nodes %zu | dom %zu B | succinct %zu B (structure %zu) | "
                  "regions %zu B | values %zu B\n",
                  report->node_count, report->dom_bytes,
                  report->succinct_structure_bytes +
                      report->succinct_content_bytes,
                  report->succinct_structure_bytes,
                  report->region_index_bytes, report->value_index_bytes);
      std::printf("owned heap: succinct %zu B | regions %zu B | "
                  "values %zu B\n",
                  report->succinct_heap_bytes, report->region_index_heap_bytes,
                  report->value_index_heap_bytes);
      if (report->from_snapshot) {
        std::printf("snapshot: %s, file %zu B\n",
                    report->mapped ? "mmap (zero-copy)" : "copied",
                    report->snapshot_file_bytes);
      }
      continue;
    }
    if (word == ".save") {
      std::string name, file;
      in >> name >> file;
      if (file.empty()) {
        std::printf("usage: .save <name> <file>\n");
        continue;
      }
      auto info = db.Save(name, file);
      if (!info.ok()) {
        std::printf("%s\n", info.status().ToString().c_str());
        continue;
      }
      std::printf("wrote %s (%zu bytes, %zu sections)\n", file.c_str(),
                  info->file_size, info->sections.size());
      continue;
    }
    if (word == ".open") {
      std::string name, file, mode_word;
      in >> name >> file >> mode_word;
      if (file.empty()) {
        std::printf("usage: .open <name> <file> [mmap|copy]\n");
        continue;
      }
      const auto mode = mode_word == "copy"
                            ? xmlq::storage::SnapshotOpenMode::kCopy
                            : xmlq::storage::SnapshotOpenMode::kMap;
      const xmlq::Status status = db.Open(name, file, mode);
      if (!status.ok()) {
        std::printf("%s\n", status.ToString().c_str());
        continue;
      }
      doc_names.push_back(name);
      auto report = db.Report(name);
      std::printf("opened %s (%zu nodes, %s)\n", name.c_str(),
                  report.ok() ? report->node_count : 0,
                  mode == xmlq::storage::SnapshotOpenMode::kMap
                      ? "mmap zero-copy"
                      : "copied");
      continue;
    }
    if (word == ".attach") {
      std::string dir, mode_word;
      in >> dir >> mode_word;
      if (dir.empty()) {
        std::printf("usage: .attach <dir> [mmap|copy]\n");
        continue;
      }
      const auto mode = mode_word == "copy"
                            ? xmlq::storage::SnapshotOpenMode::kCopy
                            : xmlq::storage::SnapshotOpenMode::kMap;
      auto report = db.Attach(dir, mode);
      if (!report.ok()) {
        std::printf("%s\n", report.status().ToString().c_str());
        continue;
      }
      // Recovered documents are queryable but unknown to the local name
      // list; refresh it from the report.
      for (const std::string& doc : report->loaded) {
        doc_names.push_back(doc.substr(0, doc.find(" (")));
      }
      std::printf("%s", report->ToString().c_str());
      continue;
    }
    if (word == ".persist") {
      std::string name;
      in >> name;
      const xmlq::Status status = db.Persist(name);
      std::printf("%s\n", status.ok() ? "persisted"
                                      : status.ToString().c_str());
      continue;
    }
    if (word == ".remove") {
      std::string name;
      in >> name;
      const xmlq::Status status = db.Remove(name);
      if (status.ok()) {
        std::erase(doc_names, name);
        std::printf("removed %s\n", name.c_str());
      } else {
        std::printf("%s\n", status.ToString().c_str());
      }
      continue;
    }
    if (word == ".scrub") {
      std::string deep_word;
      in >> deep_word;
      xmlq::api::ScrubOptions scrub;
      scrub.deep = deep_word == "deep";
      auto report = db.Scrub(scrub);
      std::printf("%s", report.ok()
                            ? report->ToString().c_str()
                            : (report.status().ToString() + "\n").c_str());
      continue;
    }
    if (word == ".scrubber") {
      std::string arg, deep_word;
      in >> arg >> deep_word;
      if (arg == "off") {
        db.StopScrubber();
        std::printf("scrubber: off (%llu cycles, %llu skipped)\n",
                    static_cast<unsigned long long>(db.scrub_cycles()),
                    static_cast<unsigned long long>(
                        db.scrub_cycles_skipped()));
        continue;
      }
      const uint64_t interval_ms = std::strtoull(arg.c_str(), nullptr, 10);
      if (interval_ms == 0) {
        std::printf("usage: .scrubber <interval_ms> [deep] | .scrubber off\n");
        continue;
      }
      xmlq::api::ScrubOptions scrub;
      scrub.deep = deep_word == "deep";
      const xmlq::Status status = db.StartScrubber(interval_ms, scrub);
      std::printf("%s\n", status.ok() ? "scrubber: on"
                                      : status.ToString().c_str());
      continue;
    }
    if (word == ".explain") {
      std::string query = line.substr(line.find(".explain") + 8);
      // `.explain analyze <q>` executes the query and renders the profile.
      const size_t start = query.find_first_not_of(" \t");
      if (start != std::string::npos &&
          query.compare(start, 8, "analyze ") == 0) {
        query = query.substr(start + 8);
        auto profile = db.ExplainAnalyze(query, options);
        std::printf("%s\n", profile.ok()
                                ? profile->c_str()
                                : profile.status().ToString().c_str());
        continue;
      }
      auto plan = db.Explain(query, options);
      std::printf("%s\n", plan.ok() ? plan->c_str()
                                    : plan.status().ToString().c_str());
      continue;
    }
    if (word == ".serve") {
      uint64_t max_concurrent = 0, max_queue = 0, deadline_ms = 0;
      in >> max_concurrent >> max_queue >> deadline_ms;
      xmlq::exec::AdmissionConfig config;
      config.max_concurrent = static_cast<uint32_t>(max_concurrent);
      config.max_queue = static_cast<uint32_t>(max_queue);
      config.queue_deadline_micros = deadline_ms * 1000;
      db.SetAdmission(config);
      if (max_concurrent == 0) {
        std::printf("serving: unbounded (admission off)\n");
      } else {
        std::printf("serving: %u concurrent, queue %u, deadline %llums\n",
                    config.max_concurrent, config.max_queue,
                    static_cast<unsigned long long>(deadline_ms));
      }
      continue;
    }
    if (word == ".bg") {
      const size_t pos = line.find(".bg");
      std::string query = line.substr(pos + 3);
      const size_t start = query.find_first_not_of(" \t");
      if (start == std::string::npos) {
        std::printf("usage: .bg <query>\n");
        continue;
      }
      query = query.substr(start);
      auto job = std::make_unique<BackgroundJob>();
      job->query = query;
      BackgroundJob* j = job.get();
      // The per-job options copy decouples the thread from later .strategy /
      // .limits edits at the prompt.
      const xmlq::api::QueryOptions job_options = options;
      job->thread = std::thread([&db, j, job_options] {
        xmlq::api::QueryOptions thread_options = job_options;
        thread_options.query_id_out = &j->query_id;
        auto result = db.Query(j->query, thread_options);
        j->outcome = result.ok()
                         ? std::to_string(result->value.size()) + " items" +
                               (result->degraded ? " (degraded)" : "")
                         : result.status().ToString();
        j->done.store(true, std::memory_order_release);
      });
      // Wait for the id so the prompt can immediately offer `.cancel <id>`.
      while (j->query_id.load(std::memory_order_acquire) == 0 &&
             !j->done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::printf("job started: query_id=%llu\n",
                  static_cast<unsigned long long>(j->query_id.load()));
      jobs.push_back(std::move(job));
      continue;
    }
    if (word == ".jobs") {
      for (const auto& job : jobs) {
        std::printf("  #%llu %s — %s\n",
                    static_cast<unsigned long long>(job->query_id.load()),
                    job->query.c_str(),
                    job->done.load(std::memory_order_acquire)
                        ? job->outcome.c_str()
                        : "running");
      }
      if (jobs.empty()) std::printf("  (none)\n");
      continue;
    }
    if (word == ".cancel") {
      uint64_t id = 0;
      in >> id;
      if (id == 0) {
        std::printf("usage: .cancel <query_id>\n");
        continue;
      }
      std::printf(db.Cancel(id) ? "cancel signalled for %llu\n"
                                : "no active query %llu\n",
                  static_cast<unsigned long long>(id));
      continue;
    }
    if (word == ".follow") {
      std::string host;
      in >> host;
      if (host == "off") {
        if (repl == nullptr) {
          std::printf("not following\n");
          continue;
        }
        repl->Stop();
        repl.reset();
        std::printf("stopped following (still read-only, still serving)\n");
        continue;
      }
      int port = 0;
      std::string dir;
      in >> port >> dir;
      if (host.empty() || port <= 0 || port > 65535 || dir.empty()) {
        std::printf("usage: .follow <host> <port> <dir> | .follow off\n");
        continue;
      }
      if (repl != nullptr) {
        std::printf("already following; .follow off first\n");
        continue;
      }
      xmlq::repl::ReplicationConfig repl_config;
      repl_config.host = host;
      repl_config.port = static_cast<uint16_t>(port);
      repl_config.store_dir = dir;
      repl = std::make_unique<xmlq::repl::ReplicationClient>(&db,
                                                             repl_config);
      const xmlq::Status status = repl->Start();
      if (!status.ok()) {
        std::printf("%s\n", status.ToString().c_str());
        repl.reset();
        continue;
      }
      std::printf("following %s:%d into %s (read-only)\n", host.c_str(),
                  port, dir.c_str());
      continue;
    }
    if (word == ".promote") {
      // Replication stops first so no shipment from the old primary can
      // apply concurrently with (or after) the epoch bump.
      if (repl != nullptr) {
        repl->Stop();
        repl.reset();
      }
      auto epoch = db.Promote();
      if (!epoch.ok()) {
        std::printf("%s\n", epoch.status().ToString().c_str());
        continue;
      }
      std::printf("promoted; epoch=%llu (writes accepted here now)\n",
                  static_cast<unsigned long long>(*epoch));
      continue;
    }
    if (word == ".stats") {
      std::string what;
      in >> what;
      if (what == "cache") {
        std::printf("%s\n", db.plan_cache_stats().ToString().c_str());
        continue;
      }
      if (what == "repl") {
        if (repl == nullptr) {
          std::printf("not following (.follow <host> <port> <dir>)\n");
        } else {
          std::printf("%s", repl->stats().ToString().c_str());
        }
        continue;
      }
      if (what != "admission") {
        std::printf("usage: .stats admission|cache|repl\n");
        continue;
      }
      const xmlq::exec::AdmissionStats s = db.admission_stats();
      std::printf(
          "submitted %llu | admitted %llu | completed %llu | running %u | "
          "queued %u\nrejected %llu | shed %llu | cancelled-in-queue %llu | "
          "peak running %u | peak queued %u | retry-after %lluus\n%s",
          static_cast<unsigned long long>(s.submitted),
          static_cast<unsigned long long>(s.admitted),
          static_cast<unsigned long long>(s.completed), s.running, s.queued,
          static_cast<unsigned long long>(s.rejected),
          static_cast<unsigned long long>(s.shed),
          static_cast<unsigned long long>(s.cancelled_while_queued),
          s.peak_running, s.peak_queued,
          static_cast<unsigned long long>(s.retry_after_micros),
          db.BreakerReport().c_str());
      continue;
    }
    if (word[0] == '.') {
      std::printf("unknown command %s (.help)\n", word.c_str());
      continue;
    }

    auto result = db.Query(line, options);
    if (!result.ok()) {
      std::printf("%s\n", result.status().ToString().c_str());
      continue;
    }
    std::printf("%s\n(%zu items)\n",
                xmlq::api::Database::ToXml(*result, /*indent=*/true).c_str(),
                result->value.size());
    if (result->degraded) {
      std::printf("degraded: %s\n", result->degradation.c_str());
    }
  }
  // Cancel and join any still-running background queries before teardown.
  for (const auto& job : jobs) {
    if (!job->done.load(std::memory_order_acquire)) {
      db.Cancel(job->query_id.load(std::memory_order_acquire));
    }
  }
  for (const auto& job : jobs) {
    if (job->thread.joinable()) job->thread.join();
  }
  return 0;
}

// Shared declarations of the xmlq benchmark program: the workload model,
// the request streams, answer checking and metric reporting.
//
// One run measures one workload. `--trace 0` runs the timed wire load and
// reports the end-to-end metrics; `--trace 1` runs the traced replay and
// reports the per-layer metrics. Both print their result as the last line
// of standard output (see main.cc).

#ifndef XMLQ_PERFBENCH_BENCH_H_
#define XMLQ_PERFBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "xmlq/api/database.h"
#include "xmlq/base/random.h"
#include "xmlq/base/status.h"
#include "xmlq/net/server.h"

namespace xmlq::perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Digest of a response body; answers are compared by digest.
inline uint64_t Digest(std::string_view body) {
  return std::hash<std::string_view>{}(body) ^ (body.size() * 0x9E37u);
}

/// One document of a workload: its served XML text and the variant text a
/// durable replacement swaps in (and back out).
struct Document {
  std::string name;
  std::string xml;
  std::string variant_xml;
};

/// One request as a client sends it.
struct Request {
  std::string text;
  uint32_t parallelism = 1;
  /// Index into Workload::answers: the digests a correct response may have.
  uint32_t answer = 0;
  /// Query shape (one per template); round-robin streams cycle over it.
  uint32_t shape = 0;
  /// A never-repeating shape (distinct plan-cache fingerprint).
  bool cold = false;
};

/// The pieces a request stream draws from. Hot requests are fixed texts; a
/// cold request is a cold template plus a unique comment, so its text (and
/// its raw-mode fingerprint) never repeats while its answer is the
/// template's.
struct RequestSet {
  std::vector<Request> hot;
  std::vector<Request> cold_templates;
};

enum class Pick : uint8_t { kZipf, kRoundRobin, kUniform };

struct Workload {
  std::string name;
  std::vector<Document> docs;
  /// Serving setup is recovery of a durable store (Attach, mmap mode)
  /// instead of parsing (LoadDocument).
  bool durable = false;
  uint32_t clients = 1;
  RequestSet requests;
  Pick pick = Pick::kUniform;
  /// Share of requests that are cold (never-repeating shapes).
  double cold_share = 0;
  /// Durable replacements per second during the timed window (0 = none;
  /// the write metrics then come from a probe after the window).
  double writes_per_second = 0;
  /// Replacements the post-window write probe makes (when no writer runs
  /// during the window), and the document it replaces.
  uint32_t probe_writes = 0;
  std::string probe_doc;
  /// Set-up repetitions whose median is setup_s.
  uint32_t setup_repeats = 5;
  /// Requests the traced replay sends (a fixed prefix of client 0's stream).
  uint32_t replay_requests = 0;
  /// Accepted digests per answer id. For a document that a writer swaps
  /// between two versions, a request over it accepts either version's
  /// answer.
  std::vector<std::vector<uint64_t>> answers;
  uint64_t seed = 0;
  size_t xml_bytes = 0;

  /// True when `body` is a correct answer for answer id `answer`.
  bool Accepts(uint32_t answer, std::string_view body) const {
    const std::vector<uint64_t>& digests = answers[answer];
    return std::find(digests.begin(), digests.end(), Digest(body)) !=
           digests.end();
  }
};

/// Builds workload `name` from `seed` (documents, request set; answers are
/// filled in by ComputeAnswers). kNotFound for an unknown name.
Result<Workload> MakeWorkload(std::string_view name, uint64_t seed);

/// Computes every request's reference answer in-process with the naive
/// engine, plan cache off and parallelism 1 — over each document version a
/// writer may serve — and records its digest. Fails when the reference
/// engine itself fails on a request, or when a cold request's answer
/// differs from its template's.
Status ComputeAnswers(Workload* workload);

/// A deterministic per-client request stream. `epoch` keeps the cold
/// requests of different windows of one run apart.
class RequestStream {
 public:
  RequestStream(const Workload& workload, uint32_t client, uint32_t epoch);
  /// The next request. The reference stays valid until the next call.
  const Request& Next();

 private:
  const Workload& workload_;
  std::string cold_tag_;
  Rng rng_;
  std::vector<double> zipf_cdf_;
  std::vector<std::vector<uint32_t>> by_shape_;
  uint64_t position_ = 0;
  uint64_t cold_counter_ = 0;
  Request cold_;
};

/// Loads every document of the workload into `db` (LoadDocument).
Status LoadAll(const Workload& workload, api::Database* db);

/// Creates the durable store of a durable workload at `dir` (outside any
/// timing): loads and persists every document.
Status CreateStore(const Workload& workload, const std::string& dir);

// -- Statistics --------------------------------------------------------------

double Median(std::vector<double> values);

/// A timing summary: median and the tail, the highest percentile with at
/// least `beyond` samples above it (capped at p99).
struct Tail {
  double median = 0;
  double value = 0;
  double percentile = 0;  // e.g. 0.99
  size_t samples = 0;
  size_t beyond = 0;
};
Tail SummarizeTail(std::vector<double> values, size_t beyond = 10);

/// Peak resident set size of this process (VmHWM) in MiB.
double PeakRssMiB();

// -- Results -----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  std::string note;  // printed on the human-readable line only
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  // why a check failed (printed)

  void Set(const std::string& name, double value, std::string unit,
           std::string note = {}) {
    metrics[name] = Metric{value, std::move(unit), std::move(note)};
  }
  void Fail(std::string why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(std::move(why));
  }
};

struct RunOptions {
  double seconds = 10;
  std::string work_dir;  // scratch space inside the checkout
};

// -- The wire load -----------------------------------------------------------

/// One traced interval. Spans of one request share `request` (0 = set-up);
/// `parent` indexes the enclosing span in the same vector (-1 = a root).
struct Span {
  uint64_t request = 0;
  int64_t parent = -1;
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
};

/// What one closed-loop wire window observed.
struct WireWindow {
  Clock::time_point from{}, to{};  // the measured interval
  double seconds = 0;
  std::vector<double> latency_us;  // checked completions inside the window
  /// The same latencies grouped by completion time into about one-second
  /// buckets (the last one absorbs the remainder), for per-bucket summaries.
  std::vector<std::vector<double>> buckets;
  std::vector<double> bucket_seconds;
  uint64_t attempted = 0;  // warm-up included
  uint64_t failed = 0;
  std::vector<std::string> problems;
};

struct WindowSpec {
  double warmup_seconds = 1;
  double seconds = 10;
  /// Distinguishes this window's cold requests from every other window's.
  uint32_t epoch = 0;
  /// Record a root span per request (the traced run).
  std::vector<Span>* spans = nullptr;
};

/// Runs the workload's closed-loop clients (one connection and thread
/// each) against the server on `port` for a warm-up and then the measured
/// window, checking every response.
WireWindow DriveWire(const Workload& workload, uint16_t port,
                     const WindowSpec& spec);

/// One durable replacement: LoadDocument of the document's other version,
/// then Persist. Returns its wall time in ms.
Result<double> ReplaceDocument(const Workload& workload, api::Database* db,
                               size_t doc, std::vector<uint8_t>* versions);

/// A start/end pair of one operation.
struct Timed {
  Clock::time_point start;
  Clock::time_point end;
};

/// The writer of a workload with writes_per_second > 0: durable
/// replacements on a fixed schedule, round robin over the documents, from
/// construction until Stop(). One thread for the whole run, as a
/// long-lived server's writer would be, so the documents it builds come
/// from one malloc arena.
class Writer {
 public:
  Writer(const Workload& workload, api::Database* db,
         std::vector<uint8_t>* versions);
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() { Stop(); }

  void Stop();
  /// After Stop(): the replacements inside [from, to], in ms.
  std::vector<double> WritesIn(Clock::time_point from,
                               Clock::time_point to) const;
  /// After Stop(): the outcome counts and failure reasons.
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return problems_.size(); }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  void Loop();

  const Workload& workload_;
  api::Database* const db_;
  std::vector<uint8_t>* const versions_;
  std::atomic<bool> stop_{false};
  std::vector<Timed> writes_;
  uint64_t attempted_ = 0;
  std::vector<std::string> problems_;
  std::thread thread_;  // last: it uses every member above
};

/// The serving set-up: from an empty Database to a started server with
/// every document loaded (LoadDocument) or recovered (Attach of `store`).
struct Serving {
  std::unique_ptr<api::Database> db;
  std::unique_ptr<net::Server> server;

  Serving() = default;
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;
  ~Serving() { Stop(); }
  /// Shuts the server down, then drops the database.
  void Stop();
};
Status StartServing(const Workload& workload, const std::string& store,
                    Serving* serving);

/// Σ referenced bytes and nodes over every document of the workload.
struct Footprint {
  api::StorageReport sum;
  size_t resident_bytes = 0;
};
Result<Footprint> MeasureFootprint(const Workload& workload,
                                   const api::Database& db);

/// The timed run: end-to-end metrics, tracing off.
RunResult RunTimed(Workload& workload, const RunOptions& options);
/// The traced run: setup spans, the single-threaded replay with per-layer
/// spans, and a traced-versus-untraced wire window.
RunResult RunTraced(Workload& workload, const RunOptions& options);

}  // namespace xmlq::perfbench

#endif  // XMLQ_PERFBENCH_BENCH_H_

// The traced run. Separate from the timed run, it gives the per-layer
// metrics:
//
//  1. Set-up spans around parse, build, Save, Open, Persist and Attach, on
//     a scratch database.
//  2. The replay: a fixed prefix of client 0's request stream, one request
//     at a time. Each request gets a root span around its wire round trip,
//     then is replayed in-process through the public function of each
//     layer, each call in a child span sharing the request id:
//
//       request (Client::Query round trip)
//         net.codec        EncodeFrame/DecodeFrame, request and response
//         api.query        Database::Query with collect_stats
//           exec.evaluate    its profile root (nested in time)
//           cache.normalize  cache::NormalizeQuery (light mode)
//           cache.acquire    PlanCache::Lookup + BindPlan   (hot requests)
//           xquery.compile   xquery::CompileQuery           (cold requests)
//           xpath.compile    xpath::CompilePath    (cold, XQuery rejected)
//           algebra.rewrite  algebra::ApplyAllRewrites      (cold requests)
//           opt.choose       opt::ChooseStrategy per τ      (cold requests)
//         xml.serialize    Database::ToXml
//
//     Apart from exec.evaluate, the children are timed one after another,
//     so they nest logically rather than in time. A span's self time is its
//     duration minus its children's; the part of the round trip no child
//     covers (socket I/O, the event loop, the worker hand-off, client
//     decode) is reported as the remainder. Self times plus the remainder
//     equal the round trip, per request. A plain Database::Query of the
//     same request (no stats) gives api.query_us and the wire tax.
//  3. Four wire windows with every client, alternately untraced and with a
//     root span per request. Their qps ratio is the tracing overhead; the
//     plan-cache counters over all four are the cache metrics.
//
// Spans stay in memory and are written to <work>/trace.json at exit.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>

#include "bench.h"
#include "xmlq/algebra/rewrite.h"
#include "xmlq/base/strings.h"
#include "xmlq/cache/normalize.h"
#include "xmlq/cache/plan_cache.h"
#include "xmlq/net/client.h"
#include "xmlq/net/protocol.h"
#include "xmlq/opt/optimizer.h"
#include "xmlq/opt/synopsis.h"
#include "xmlq/storage/region_index.h"
#include "xmlq/storage/succinct_doc.h"
#include "xmlq/storage/value_index.h"
#include "xmlq/xml/parser.h"
#include "xmlq/xpath/compiler.h"
#include "xmlq/xquery/translate.h"

namespace xmlq::perfbench {

namespace {

using algebra::LogicalExpr;
using algebra::LogicalExprPtr;
using algebra::LogicalOp;

constexpr exec::PatternStrategy kStrategies[] = {
    exec::PatternStrategy::kNok, exec::PatternStrategy::kTwigStack,
    exec::PatternStrategy::kPathStack, exec::PatternStrategy::kBinaryJoin,
    exec::PatternStrategy::kNaive};

/// The in-memory span log.
class Tracer {
 public:
  /// Records [start, end] under `parent` (-1 = root); returns its index.
  int64_t Add(uint64_t request, int64_t parent, const char* name,
              Clock::time_point start, Clock::time_point end) {
    spans_.push_back({request, parent, name, start, end});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  /// Times `fn` into a span; returns its duration in µs.
  template <typename Fn>
  double Time(uint64_t request, int64_t parent, const char* name, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    Add(request, parent, name, start, end);
    return MicrosBetween(start, end);
  }
  std::vector<Span>& spans() { return spans_; }

  Status WriteJson(const std::string& path, const std::string& workload) const {
    std::ofstream out(path);
    if (!out) return Status::Internal("cannot write " + path);
    const Clock::time_point zero =
        spans_.empty() ? Clock::now() : spans_.front().start;
    out << "{\"workload\": \"" << workload << "\", \"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"request\": " << s.request
          << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
          << "\", \"start_us\": " << MicrosBetween(zero, s.start)
          << ", \"end_us\": " << MicrosBetween(zero, s.end) << "}";
    }
    out << "\n]}\n";
    return out.good() ? Status::Ok() : Status::Internal("short write " + path);
  }

 private:
  std::vector<Span> spans_;
};

/// Named samples, summarized by their median.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  double Median(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : perfbench::Median(it->second);
  }
  size_t Count(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second.size();
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Mirrors Database::Compile: the XQuery front end first, the XPath front
/// end for absolute paths it rejects. Rewrites as asked.
struct Compiled {
  LogicalExprPtr plan;
  double xquery_us = 0;
  /// The XPath front end on an absolute path (-1: not a path). It serves
  /// the request only when the XQuery front end rejected it; otherwise it
  /// is timed off the served path, in a detached span.
  double xpath_us = -1;
  bool xpath_served = false;
};

Result<Compiled> Compile(std::string_view text, const std::string& default_doc,
                         bool apply_rewrites, Tracer* tracer,
                         uint64_t request, int64_t parent) {
  Compiled out;
  xquery::TranslateOptions options;
  options.default_document = default_doc;
  options.apply_rewrites = apply_rewrites;
  Result<LogicalExprPtr> plan = Status::Internal("unset");
  out.xquery_us = tracer->Time(request, parent, "xquery.compile", [&] {
    plan = xquery::CompileQuery(text, options);
  });
  const std::string_view trimmed = TrimWhitespace(text);
  if (trimmed.empty() || trimmed[0] != '/') {
    if (!plan.ok()) return plan.status();
    out.plan = std::move(*plan);
    return out;
  }
  out.xpath_served = !plan.ok();
  Result<LogicalExprPtr> path = Status::Internal("unset");
  out.xpath_us =
      tracer->Time(request, out.xpath_served ? parent : -1,
                   out.xpath_served ? "xpath.compile" : "xpath.compile.offpath",
                   [&] { path = xpath::CompilePath(trimmed, default_doc); });
  if (plan.ok()) {
    out.plan = std::move(*plan);
  } else if (path.ok()) {
    out.plan = std::move(*path);
  } else {
    return path.status();
  }
  return out;
}

void CollectPatterns(const LogicalExpr& plan,
                     std::vector<const LogicalExpr*>* out) {
  if (plan.op == LogicalOp::kTreePattern && plan.pattern != nullptr) {
    out->push_back(&plan);
  }
  for (const auto& child : plan.children) CollectPatterns(*child, out);
}

/// Counter sums and per-kind inclusive walls over a profile tree. A kind's
/// wall is taken at its outermost operator, so nesting is not counted twice.
struct ProfileTotals {
  exec::OpStats sum;
  double tau_us = 0, flwor_us = 0, construct_us = 0;
  double max_qerror = 0;
};

void Accumulate(const exec::ProfileNode& node, bool in_tau, bool in_flwor,
                bool in_construct, ProfileTotals* t) {
  t->sum.MergeFrom(node.stats);
  t->max_qerror = std::max(t->max_qerror, node.QError());
  const std::string_view label = node.label;
  const double us = static_cast<double>(node.stats.wall_nanos) / 1e3;
  const bool tau = label.starts_with("TreePattern") ||
                   label.starts_with("PatternFilter");
  const bool flwor = label.starts_with("Flwor");
  const bool construct = label.starts_with("Construct");
  if (tau && !in_tau) t->tau_us += us;
  if (flwor && !in_flwor) t->flwor_us += us;
  if (construct && !in_construct) t->construct_us += us;
  for (const exec::ProfileNode& child : node.children) {
    Accumulate(child, in_tau || tau, in_flwor || flwor,
               in_construct || construct, t);
  }
}

/// The wire codec work of one exchange, in-process.
void Codec(const Request& r, const std::string& body) {
  const bool opts = r.parallelism != 1;
  const std::string frame = net::EncodeFrame(
      opts ? net::FrameType::kQueryOpts : net::FrameType::kQuery, 1,
      opts ? net::EncodeQueryOpts(r.parallelism, r.text) : r.text);
  net::Frame decoded;
  size_t consumed = 0;
  std::string error;
  (void)net::DecodeFrame(frame, &decoded, &consumed, &error);
  const std::string response = net::EncodeFrame(
      net::FrameType::kResponse, 1,
      net::EncodeResponse({StatusCode::kOk, 0, body}));
  (void)net::DecodeFrame(response, &decoded, &consumed, &error, 64u << 20);
  net::ResponsePayload payload;
  (void)net::DecodeResponse(decoded.payload, &payload);
}

/// Phase 1: set-up spans on scratch databases.
Status TraceSetup(const Workload& w, const std::string& work, Tracer* tracer,
                  Samples* samples, uint64_t* snapshot_bytes) {
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    api::Database scratch;
    api::Database reopened;
    const std::string snap = work + "/trace_snap";
    std::filesystem::create_directories(snap);
    for (const Document& doc : w.docs) {
      Result<xml::Document> parsed = Status::Internal("unset");
      samples->Add("xml.parse_ms",
                   tracer->Time(0, -1, "xml.parse", [&] {
                     parsed = xml::ParseDocument(doc.xml);
                   }) / 1e3);
      if (!parsed.ok()) return parsed.status();
      samples->Add("storage.build_ms",
                   tracer->Time(0, -1, "storage.build", [&] {
                     const storage::SuccinctDocument succinct =
                         storage::SuccinctDocument::Build(*parsed);
                     const storage::RegionIndex regions(*parsed);
                     const storage::ValueIndex values(*parsed);
                     const opt::Synopsis synopsis(*parsed);
                   }) / 1e3);
      Status s;
      samples->Add("api.load_ms", tracer->Time(0, -1, "api.load", [&] {
                     s = scratch.LoadDocument(doc.name, doc.xml);
                   }) / 1e3);
      XMLQ_RETURN_IF_ERROR(s);
      const std::string path = snap + "/" + doc.name + ".xqpack";
      Result<storage::SnapshotWriteInfo> info = Status::Internal("unset");
      samples->Add("storage.snapshot_write_ms",
                   tracer->Time(0, -1, "storage.snapshot_write", [&] {
                     info = scratch.Save(doc.name, path);
                   }) / 1e3);
      if (!info.ok()) return info.status();
      if (rep == 0) *snapshot_bytes += info->file_size;
      samples->Add("storage.open_ms", tracer->Time(0, -1, "storage.open", [&] {
                     s = reopened.Open(doc.name, path,
                                       storage::SnapshotOpenMode::kMap);
                   }) / 1e3);
      XMLQ_RETURN_IF_ERROR(s);
    }
    const std::string store = work + "/trace_store";
    std::filesystem::remove_all(store);
    {
      XMLQ_RETURN_IF_ERROR(scratch.Attach(store).status());
      for (const Document& doc : w.docs) {
        Status s;
        samples->Add("api.persist_ms", tracer->Time(0, -1, "api.persist", [&] {
                       s = scratch.Persist(doc.name);
                     }) / 1e3);
        XMLQ_RETURN_IF_ERROR(s);
      }
    }
    api::Database recovered;
    Status s;
    samples->Add("api.attach_ms", tracer->Time(0, -1, "api.attach", [&] {
                   s = recovered
                           .Attach(store, storage::SnapshotOpenMode::kMap)
                           .status();
                 }) / 1e3);
    XMLQ_RETURN_IF_ERROR(s);
  }
  return Status::Ok();
}

/// Primes a private plan cache with every hot request's template, keyed by
/// fingerprint, for timing the acquisition (lookup + bind) alone.
void Prime(const Workload& w, const std::string& default_doc,
           cache::PlanCache* primed) {
  Tracer scratch;  // priming is not traced
  for (const Request& r : w.requests.hot) {
    const cache::NormalizedQuery full = cache::NormalizeQuery(r.text);
    Result<Compiled> tmpl =
        Compile(full.compile_text, default_doc, true, &scratch, 0, -1);
    if (!tmpl.ok() || (full.parameterized &&
                       !cache::ValidateSentinels(*tmpl->plan, full.slots))) {
      continue;  // not cacheable: Database runs it uncached too
    }
    auto entry = std::make_shared<cache::CachedPlan>();
    entry->key = full.fingerprint;
    entry->generation = 1;
    entry->slots = full.slots;
    entry->parameterized = full.parameterized;
    entry->plan = std::move(tmpl->plan);
    (void)primed->Insert(std::move(entry));  // first template per key wins
  }
}

}  // namespace

RunResult RunTraced(Workload& w, const RunOptions& options) {
  RunResult result;
  Tracer tracer;
  Samples samples;

  // -- 1. Set-up spans ------------------------------------------------------
  uint64_t snapshot_bytes = 0;
  if (Status s = TraceSetup(w, options.work_dir, &tracer, &samples,
                            &snapshot_bytes);
      !s.ok()) {
    result.Fail("traced set-up: " + s.ToString());
    return result;
  }

  // The serving state, exactly as the timed run builds it.
  const std::string store = options.work_dir + "/store";
  if (w.durable) {
    if (Status s = CreateStore(w, store); !s.ok()) {
      result.Fail("creating the store: " + s.ToString());
      return result;
    }
  }
  Serving serving;
  if (Status s = StartServing(w, store, &serving); !s.ok()) {
    result.Fail("set-up: " + s.ToString());
    return result;
  }
  api::Database* db = serving.db.get();
  const std::string default_doc = db->default_document();

  const Result<Footprint> footprint = MeasureFootprint(w, *db);
  if (!footprint.ok()) {
    result.Fail("report: " + footprint.status().ToString());
    return result;
  }
  const double nodes = static_cast<double>(footprint->sum.node_count);
  const api::StorageReport& f = footprint->sum;
  result.Set("storage.dom_bytes_per_node", f.dom_bytes / nodes, "B");
  result.Set("storage.succinct_bytes_per_node",
             (f.succinct_structure_bytes + f.succinct_content_bytes) / nodes,
             "B");
  result.Set("storage.region_bytes_per_node", f.region_index_bytes / nodes,
             "B");
  result.Set("storage.value_bytes_per_node", f.value_index_bytes / nodes,
             "B");
  result.Set("storage.tags_bytes_per_node", f.tag_dictionary_bytes / nodes,
             "B");
  result.Set("storage.snapshot_bytes_per_node",
             static_cast<double>(snapshot_bytes) / nodes, "B");

  // -- 2. The replay --------------------------------------------------------
  // Warm the serving cache with every hot request, and prime the private
  // cache the acquisition is timed on.
  for (const Request& r : w.requests.hot) {
    api::QueryOptions o;
    o.parallelism = r.parallelism;
    (void)db->Query(r.text, o);
  }
  cache::PlanCache primed;
  Prime(w, default_doc, &primed);

  auto client = net::Client::Connect("127.0.0.1", serving.server->port());
  if (!client.ok()) {
    result.Fail("connect: " + client.status().ToString());
    return result;
  }
  RequestStream stream(w, 0, /*epoch=*/100);
  std::map<std::string, double> self;  // layer -> Σ self µs over requests
  double roundtrip_sum = 0;
  double worst_identity_error = 0;
  double par1_us = 0, par4_us = 0;
  uint64_t strategy_count[8] = {};
  ProfileTotals counts;
  double rewrites = 0, response_bytes = 0, result_bytes = 0;
  const uint32_t replayed = w.replay_requests;
  for (uint32_t i = 0; i < replayed; ++i) {
    const Request& r = stream.Next();
    const uint64_t id = i + 1;
    ++result.attempted;

    // Root: the wire round trip.
    Result<net::ResponsePayload> wire = Status::Internal("unset");
    const Clock::time_point rt_start = Clock::now();
    wire = client->Query(r.text, r.parallelism);
    const Clock::time_point rt_end = Clock::now();
    const int64_t root = tracer.Add(id, -1, "request", rt_start, rt_end);
    const double rt = MicrosBetween(rt_start, rt_end);
    if (!wire.ok() || wire->code != StatusCode::kOk ||
        !w.Accepts(r.answer, wire->body)) {
      ++result.failed;
      result.Fail("replay: wrong or failed answer on \"" + r.text + "\"");
      continue;
    }
    response_bytes += static_cast<double>(wire->body.size());

    const double codec =
        tracer.Time(id, root, "net.codec", [&] { Codec(r, wire->body); });

    // A cold request is new to the cache each time it is sent, so every
    // in-process call gets its own never-seen text.
    const auto text_for = [&](const char* tag) {
      return r.cold ? r.text + " (: " + tag + " :)" : r.text;
    };
    // Database::Query as the server calls it: api.query_us and the wire tax.
    api::QueryOptions served;
    served.parallelism = r.parallelism;
    const Clock::time_point plain_start = Clock::now();
    const bool plain_ok = db->Query(text_for("plain"), served).ok();
    const double plain_us = MicrosBetween(plain_start, Clock::now());

    // The span tree's api.query collects stats, so exec.evaluate (its
    // profile root) nests inside it in time.
    const std::string text = text_for("api");
    api::QueryOptions profiled = served;
    profiled.collect_stats = true;
    const Clock::time_point api_start = Clock::now();
    Result<exec::QueryResult> answer = db->Query(text, profiled);
    const Clock::time_point api_end = Clock::now();
    const int64_t api = tracer.Add(id, root, "api.query", api_start, api_end);
    const double api_us = MicrosBetween(api_start, api_end);
    if (!plain_ok || !answer.ok() || answer->profile == nullptr) {
      ++result.failed;
      result.Fail("replay: in-process query failed on \"" + text + "\"");
      continue;
    }
    const exec::ProfileNode& top = answer->profile->root();
    const double evaluate = static_cast<double>(top.stats.wall_nanos) / 1e3;
    tracer.Add(id, api, "exec.evaluate",
               api_end - std::chrono::nanoseconds(top.stats.wall_nanos),
               api_end);
    ProfileTotals totals;
    Accumulate(top, false, false, false, &totals);
    counts.sum.MergeFrom(totals.sum);
    counts.tau_us += totals.tau_us;
    counts.flwor_us += totals.flwor_us;
    counts.construct_us += totals.construct_us;
    counts.max_qerror = std::max(counts.max_qerror, totals.max_qerror);

    std::string body;
    const double serialize = tracer.Time(id, root, "xml.serialize", [&] {
      body = api::Database::ToXml(*answer);
    });
    result_bytes += static_cast<double>(body.size());
    if (!w.Accepts(r.answer, body)) {
      ++result.failed;
      result.Fail("replay: in-process answer differs on \"" + text + "\"");
    }

    // The other children of api.query, replayed one by one.
    cache::NormalizedQuery light;
    const double normalize = tracer.Time(id, api, "cache.normalize", [&] {
      light = cache::NormalizeQuery(text, /*render_compile_text=*/false);
    });
    double acquire = 0, compile_xq = 0, compile_xp = 0, rewrite = 0,
           choose = 0;
    {
      // The miss path's stages, timed for every request; they are children
      // of api.query only for cold requests (hot ones hit the cache).
      Tracer detached;
      Tracer& sink = r.cold ? tracer : detached;
      Result<Compiled> compiled =
          Compile(text, default_doc, false, &sink, id, api);
      if (!compiled.ok()) {
        ++result.failed;
        result.Fail("replay: compile failed on \"" + text + "\"");
        continue;
      }
      compile_xq = compiled->xquery_us;
      samples.Add("xquery.compile_us", compile_xq);
      if (compiled->xpath_us >= 0) {
        samples.Add("xpath.compile_us", compiled->xpath_us);
        if (compiled->xpath_served) compile_xp = compiled->xpath_us;
      }
      int applied = 0;
      rewrite = sink.Time(id, api, "algebra.rewrite", [&] {
        applied = algebra::ApplyAllRewrites(&compiled->plan);
      });
      samples.Add("algebra.rewrite_us", rewrite);
      rewrites += applied;
      std::vector<const LogicalExpr*> patterns;
      CollectPatterns(*compiled->plan, &patterns);
      std::vector<exec::PatternStrategy> picked;
      choose = sink.Time(id, api, "opt.choose", [&] {
        for (const LogicalExpr* node : patterns) {
          std::string doc = default_doc;
          if (!node->children.empty() &&
              node->children[0]->op == LogicalOp::kDocScan &&
              !node->children[0]->str.empty()) {
            doc = node->children[0]->str;
          }
          const opt::Synopsis* synopsis = db->GetSynopsis(doc);
          const exec::IndexedDocument* indexed = db->Get(doc);
          if (synopsis == nullptr || indexed == nullptr) continue;
          picked.push_back(opt::ChooseStrategy(*synopsis, indexed->dom->pool(),
                                               *node->pattern)
                               .strategy);
        }
      });
      samples.Add("opt.choose_us", choose);
      for (exec::PatternStrategy s : picked) {
        ++strategy_count[static_cast<size_t>(s)];
      }
    }
    if (!r.cold) {
      const std::string key = cache::NormalizeQuery(text).fingerprint;
      acquire = tracer.Time(id, api, "cache.acquire", [&] {
        const std::shared_ptr<cache::CachedPlan> entry =
            primed.Lookup(key, 1);
        if (entry == nullptr) return;
        const LogicalExprPtr bound =
            entry->parameterized
                ? cache::BindPlan(*entry->plan, entry->slots, light.values)
                : entry->plan->Clone();
      });
      samples.Add("cache.acquire_us", acquire);
    }

    // Evaluation at parallelism 1 and 4, for the speedup.
    double lanes_us[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      api::QueryOptions o = profiled;
      o.parallelism = k == 0 ? 1 : 4;
      Result<exec::QueryResult> run = db->Query(text_for("lanes"), o);
      if (!run.ok() || run->profile == nullptr) {
        ++result.failed;
        result.Fail("replay: profiled run failed on \"" + text + "\"");
        break;
      }
      lanes_us[k] =
          static_cast<double>(run->profile->root().stats.wall_nanos) / 1e3;
    }
    par1_us += lanes_us[0];
    par4_us += lanes_us[1];

    // Self times; they and the remainder sum to the round trip.
    const double api_children =
        normalize + evaluate +
        (r.cold ? compile_xq + compile_xp + rewrite + choose : acquire);
    const std::map<std::string, double> layer = {
        {"net", codec},
        {"api", api_us - api_children},
        {"cache", normalize + acquire},
        {"xquery", r.cold ? compile_xq : 0},
        {"xpath", r.cold ? compile_xp : 0},
        {"algebra", r.cold ? rewrite : 0},
        {"opt", r.cold ? choose : 0},
        {"exec", evaluate},
        {"xml", serialize},
        {"remainder", rt - codec - api_us - serialize},
    };
    double total = 0;
    for (const auto& [name, us] : layer) {
      self[name] += us;
      total += us;
    }
    worst_identity_error = std::max(worst_identity_error, std::abs(total - rt));
    roundtrip_sum += rt;
    samples.Add("net.wire_tax_us", rt - plain_us);
    samples.Add("net.codec_us", codec);
    samples.Add("xml.serialize_us", serialize);
    samples.Add("cache.normalize_us", normalize);
    samples.Add("exec.evaluate_us", evaluate);
    if (!r.cold) {
      samples.Add("api.query_us", plain_us);
      samples.Add("api.overhead_us", api_us - api_children);
    }
  }
  if (worst_identity_error > 1e-6 * std::max(1.0, roundtrip_sum)) {
    result.Fail("self times plus remainder differ from the round trip by " +
                std::to_string(worst_identity_error) + " us");
  }

  // -- 3. Traced versus untraced wire windows --------------------------------
  // Four alternating windows (untraced, traced, untraced, traced), so drift
  // over the run does not land on one side of the comparison.
  const cache::CacheStats base = db->plan_cache_stats();
  std::vector<uint8_t> versions(w.docs.size(), 0);
  std::unique_ptr<Writer> writer;
  if (w.writes_per_second > 0) {
    writer = std::make_unique<Writer>(w, db, &versions);
  }
  double completed[2] = {0, 0}, window_seconds[2] = {0, 0};
  std::vector<double> traced_latency_us;
  for (uint32_t k = 0; k < 4; ++k) {
    const bool traced = k % 2 == 1;
    WindowSpec spec;
    spec.warmup_seconds = k == 0 ? 0.5 : 0;
    spec.seconds = options.seconds / 4;
    spec.epoch = 1 + k;
    spec.spans = traced ? &tracer.spans() : nullptr;
    WireWindow window = DriveWire(w, serving.server->port(), spec);
    result.attempted += window.attempted;
    result.failed += window.failed;
    for (std::string& p : window.problems) result.Fail(std::move(p));
    completed[traced] += static_cast<double>(window.latency_us.size());
    window_seconds[traced] += window.seconds;
    if (traced) {
      traced_latency_us.insert(traced_latency_us.end(),
                               window.latency_us.begin(),
                               window.latency_us.end());
    }
  }
  if (writer != nullptr) {
    writer->Stop();
    result.attempted += writer->attempted();
    result.failed += writer->failed();
    for (const std::string& p : writer->problems()) result.Fail(p);
  }
  const cache::CacheStats after = db->plan_cache_stats();
  const double qps_plain = completed[0] / window_seconds[0];
  const double qps_traced = completed[1] / window_seconds[1];

  // -- Metrics ----------------------------------------------------------------
  const double n = std::max<uint32_t>(1, replayed);
  const uint64_t hits = after.hits - base.hits;
  const uint64_t misses = after.misses - base.misses;
  result.Set("net.roundtrip_us", Median(traced_latency_us), "us",
             "traced windows, n=" + std::to_string(traced_latency_us.size()));
  result.Set("net.wire_tax_us", samples.Median("net.wire_tax_us"), "us");
  result.Set("net.codec_us", samples.Median("net.codec_us"), "us");
  result.Set("net.response_bytes", response_bytes / n, "B", "per request");
  result.Set("api.query_us", samples.Median("api.query_us"), "us",
             "warm cache, n=" + std::to_string(samples.Count("api.query_us")));
  result.Set("api.overhead_us", samples.Median("api.overhead_us"), "us");
  for (const char* name : {"api.load_ms", "api.persist_ms", "api.attach_ms",
                           "xml.parse_ms", "storage.build_ms",
                           "storage.snapshot_write_ms", "storage.open_ms"}) {
    result.Set(name, samples.Median(name), "ms",
               "median of " + std::to_string(samples.Count(name)));
  }
  result.Set("cache.normalize_us", samples.Median("cache.normalize_us"), "us");
  result.Set("cache.acquire_us", samples.Median("cache.acquire_us"), "us");
  result.Set("cache.hit_ratio",
             hits + misses == 0 ? 0
                                : static_cast<double>(hits) /
                                      static_cast<double>(hits + misses),
             "fraction", "over the wire windows");
  result.Set("cache.misses", static_cast<double>(misses), "count",
             "over the wire windows");
  result.Set("cache.invalidations",
             static_cast<double>(after.invalidations - base.invalidations),
             "count", "over the wire windows");
  result.Set("cache.evictions",
             static_cast<double>(after.evictions - base.evictions), "count",
             "over the wire windows");
  for (const char* name : {"xquery.compile_us", "xpath.compile_us",
                           "algebra.rewrite_us", "opt.choose_us",
                           "exec.evaluate_us"}) {
    result.Set(name, samples.Median(name), "us",
               "n=" + std::to_string(samples.Count(name)));
  }
  result.Set("algebra.rewrites", rewrites / n, "count", "per request");
  result.Set("opt.max_qerror", counts.max_qerror, "ratio");
  for (exec::PatternStrategy s : kStrategies) {
    result.Set("opt.strategy." + std::string(exec::PatternStrategyName(s)),
               static_cast<double>(strategy_count[static_cast<size_t>(s)]) / n,
               "count", "τ per request");
  }
  result.Set("exec.tau_us", counts.tau_us / n, "us", "mean per request");
  result.Set("exec.flwor_us", counts.flwor_us / n, "us", "mean per request");
  result.Set("exec.construct_us", counts.construct_us / n, "us",
             "mean per request");
  result.Set("exec.par_speedup", par4_us > 0 ? par1_us / par4_us : 0, "ratio",
             "Σ evaluate at parallelism 1 / at 4");
  result.Set("exec.nodes_visited", counts.sum.nodes_visited / n, "count",
             "per request");
  result.Set("exec.index_probes", counts.sum.index_probes / n, "count",
             "per request");
  result.Set("exec.stack_pushes", counts.sum.stack_pushes / n, "count",
             "per request");
  result.Set("exec.bytes_touched", counts.sum.bytes_touched / n, "count",
             "per request");
  result.Set("exec.output_rows", counts.sum.output_rows / n, "count",
             "per request");
  result.Set("xml.serialize_us", samples.Median("xml.serialize_us"), "us");
  result.Set("xml.result_bytes", result_bytes / n, "B", "per request");
  for (const auto& [name, us] : self) {
    result.Set("self." + name + "_us", us / n, "us",
               "mean per replayed request");
  }
  result.Set("trace.roundtrip_mean_us", roundtrip_sum / n, "us",
             "= Σ self.*_us");
  result.Set("trace.qps_untraced", qps_plain, "1/s");
  result.Set("trace.qps_traced", qps_traced, "1/s");
  result.Set("trace.overhead", qps_plain / qps_traced - 1, "fraction",
             "untraced / traced qps - 1");

  if (Status s = tracer.WriteJson(options.work_dir + "/trace.json", w.name);
      !s.ok()) {
    result.Fail(s.ToString());
  }
  return result;
}

}  // namespace xmlq::perfbench

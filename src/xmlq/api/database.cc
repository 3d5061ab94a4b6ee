#include "xmlq/api/database.h"

#include <cctype>
#include <chrono>
#include <set>
#include <utility>

#include "xmlq/base/strings.h"
#include "xmlq/xml/parser.h"
#include "xmlq/xml/serializer.h"
#include "xmlq/xpath/compiler.h"
#include "xmlq/xquery/translate.h"
#include "xmlq/opt/optimizer.h"
#include "xmlq/opt/plan_annotator.h"

namespace xmlq::api {

using algebra::LogicalExpr;
using algebra::LogicalExprPtr;
using algebra::LogicalOp;

Status Database::LoadDocument(std::string name, std::string_view xml_text,
                              xml::ParseOptions options) {
  XMLQ_ASSIGN_OR_RETURN(xml::Document parsed,
                        xml::ParseDocument(xml_text, options));
  return RegisterDocument(std::move(name),
                          std::make_unique<xml::Document>(std::move(parsed)));
}

Status Database::RegisterDocument(std::string name,
                                  std::unique_ptr<xml::Document> doc) {
  if (doc == nullptr) return Status::InvalidArgument("null document");
  if (!doc->IsPreorder()) {
    return Status::InvalidArgument(
        "document node ids must be in pre-order (build top-down)");
  }
  // All physical representations are built outside the catalog lock; only
  // the final pointer swap is serialized.
  storage::OpenedSnapshot parts;
  parts.dom = std::move(doc);
  XMLQ_ASSIGN_OR_RETURN(storage::SuccinctDocument succinct,
                        storage::SuccinctDocument::TryBuild(*parts.dom));
  parts.succinct =
      std::make_unique<storage::SuccinctDocument>(std::move(succinct));
  XMLQ_ASSIGN_OR_RETURN(storage::RegionIndex regions,
                        storage::RegionIndex::TryBuild(*parts.dom));
  parts.regions = std::make_unique<storage::RegionIndex>(std::move(regions));
  XMLQ_ASSIGN_OR_RETURN(storage::ValueIndex values,
                        storage::ValueIndex::TryBuild(*parts.dom));
  parts.values = std::make_unique<storage::ValueIndex>(std::move(values));
  return Install(std::move(name), MakeEntry(std::move(parts)));
}

std::shared_ptr<Database::Entry> Database::MakeEntry(
    storage::OpenedSnapshot parts) {
  auto entry = std::make_shared<Entry>();
  entry->dom = std::move(parts.dom);
  entry->succinct = std::move(parts.succinct);
  entry->regions = std::move(parts.regions);
  entry->values = std::move(parts.values);
  entry->backing = std::move(parts.backing);
  // The synopsis is a small derived statistic; rebuilding it from the DOM
  // keeps it out of the snapshot file format.
  entry->synopsis =
      std::make_unique<opt::Synopsis>(*entry->dom, entry->values.get());
  entry->view = exec::IndexedDocument{entry->dom.get(), entry->succinct.get(),
                                      entry->regions.get(),
                                      entry->values.get()};
  return entry;
}

Status Database::Open(std::string name, const std::string& path,
                      storage::SnapshotOpenMode mode) {
  XMLQ_ASSIGN_OR_RETURN(storage::OpenedSnapshot snapshot,
                        storage::OpenSnapshot(path, mode));
  return Install(std::move(name), MakeEntry(std::move(snapshot)));
}

Status Database::Install(std::string name,
                         std::shared_ptr<const Entry> entry) {
  MutateCatalog([&](CatalogState& next) {
    if (next.entries.empty()) next.default_document = name;
    // A degraded note describes the entry being replaced, not this one.
    next.degraded.erase(name);
    next.entries[std::move(name)] = std::move(entry);
    return true;
  });
  return Status::Ok();
}

void Database::MutateCatalog(
    const std::function<bool(CatalogState&)>& mutate) {
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    auto next = std::make_shared<CatalogState>(*catalog_);
    // A mutation that changes nothing (a failed remove) keeps the
    // generation, so it does not wipe every cached plan.
    if (!mutate(*next)) return;
    next->generation = catalog_->generation + 1;
    generation = next->generation;
    catalog_ = std::move(next);
  }
  // Sweep cached plans compiled under older catalogs. Correctness never
  // depends on this (lookups compare generations); it only frees memory.
  PinPlanCache()->InvalidateGeneration(generation);
}

std::shared_ptr<const Database::CatalogState> Database::Pin() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return catalog_;
}

Result<storage::SnapshotWriteInfo> Database::Save(
    std::string_view name, const std::string& path) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  const Entry* entry = catalog->Find(name);
  if (entry == nullptr) {
    return Status::NotFound("document \"" + std::string(name) +
                            "\" is not loaded");
  }
  return storage::WriteSnapshot(path, *entry->dom, *entry->succinct,
                                *entry->values);
}

void Database::SetReadGate(std::shared_ptr<exec::StalenessGate> gate) const {
  std::lock_guard<std::mutex> lock(read_gate_mu_);
  read_gate_ = std::move(gate);
}

std::shared_ptr<exec::StalenessGate> Database::PinReadGate() const {
  std::lock_guard<std::mutex> lock(read_gate_mu_);
  return read_gate_;
}

bool Database::Contains(std::string_view name) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  return catalog->entries.find(name) != catalog->entries.end();
}

const exec::IndexedDocument* Database::Get(std::string_view name) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  const Entry* entry = catalog->Find(name);
  return entry == nullptr ? nullptr : &entry->view;
}

const opt::Synopsis* Database::GetSynopsis(std::string_view name) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  const Entry* entry = catalog->Find(name);
  return entry == nullptr ? nullptr : entry->synopsis.get();
}

std::string Database::default_document() const {
  return Pin()->default_document;
}

exec::EvalContext Database::MakeContext(const CatalogState& catalog,
                                        const QueryOptions& options) const {
  exec::EvalContext context;
  for (const auto& [name, entry] : catalog.entries) {
    context.documents.emplace(name, entry->view);
  }
  if (const Entry* entry = catalog.Find(""); entry != nullptr) {
    context.documents.emplace("", entry->view);
  }
  context.flwor_mode = options.flwor_mode;
  return context;
}

namespace {

/// Finds every τ node in a plan.
void CollectPatterns(const LogicalExpr& plan,
                     std::vector<const LogicalExpr*>* out) {
  if (plan.op == LogicalOp::kTreePattern) out->push_back(&plan);
  for (const auto& child : plan.children) CollectPatterns(*child, out);
}

/// Every document name the plan scans (for the degraded-doc check).
void CollectDocNames(const LogicalExpr& plan, std::set<std::string>* out) {
  if (plan.op == LogicalOp::kDocScan) out->insert(plan.str);
  for (const auto& child : plan.children) CollectDocNames(*child, out);
}

/// First DocScan in the plan — the document the profile annotator uses for
/// its synopsis estimates.
const LogicalExpr* FindDocScan(const LogicalExpr& plan) {
  if (plan.op == LogicalOp::kDocScan) return &plan;
  for (const auto& child : plan.children) {
    if (const LogicalExpr* found = FindDocScan(*child)) return found;
  }
  return nullptr;
}

/// Unregisters a query from the active-token map on every exit path.
class ActiveRegistration {
 public:
  ActiveRegistration(std::mutex* mu,
                     std::map<uint64_t, std::shared_ptr<CancelToken>>* active,
                     uint64_t id, std::shared_ptr<CancelToken> token)
      : mu_(mu), active_(active), id_(id) {
    std::lock_guard<std::mutex> lock(*mu_);
    (*active_)[id_] = std::move(token);
  }
  ~ActiveRegistration() {
    std::lock_guard<std::mutex> lock(*mu_);
    active_->erase(id_);
  }
  ActiveRegistration(const ActiveRegistration&) = delete;
  ActiveRegistration& operator=(const ActiveRegistration&) = delete;

 private:
  std::mutex* mu_;
  std::map<uint64_t, std::shared_ptr<CancelToken>>* active_;
  uint64_t id_;
};

}  // namespace

void Database::PlanStrategies(const CatalogState& catalog, LogicalExpr* plan,
                              const QueryOptions& options,
                              std::string* explanation) const {
  if (plan->op == LogicalOp::kTreePattern && plan->pattern != nullptr) {
    plan->strategy = options.strategy;
    // The pattern's document is its DocScan child when present.
    std::string doc_name;
    if (!plan->children.empty() &&
        plan->children[0]->op == LogicalOp::kDocScan) {
      doc_name = plan->children[0]->str;
    }
    const Entry* entry = catalog.Find(doc_name);
    if (entry != nullptr && (options.auto_optimize || explanation != nullptr)) {
      const opt::StrategyChoice choice = opt::ChooseStrategy(
          *entry->synopsis, entry->dom->pool(), *plan->pattern);
      if (options.auto_optimize) plan->strategy = choice.strategy;
      if (explanation != nullptr) {
        explanation->append(choice.explanation);
        explanation->push_back('\n');
      }
    }
  }
  for (const auto& child : plan->children) {
    PlanStrategies(catalog, child.get(), options, explanation);
  }
}

namespace {

/// Copies each τ node's engine from `from` onto the same node of `to`, a
/// plan of the same shape (`from` is a bound clone of `to`).
void CopyStrategies(const LogicalExpr& from, LogicalExpr* to) {
  to->strategy = from.strategy;
  for (size_t i = 0; i < from.children.size(); ++i) {
    CopyStrategies(*from.children[i], to->children[i].get());
  }
}

std::string CachedProvenance(const cache::CachedPlan& entry,
                             uint64_t generation,
                             const std::vector<std::string>& binds) {
  const auto age = std::chrono::duration_cast<std::chrono::seconds>(
                       std::chrono::steady_clock::now() - entry.created)
                       .count();
  std::vector<const LogicalExpr*> patterns;
  CollectPatterns(*entry.plan, &patterns);
  std::string out =
      "cached (gen " + std::to_string(generation) + ", age " +
      std::to_string(age) + "s, hits " +
      std::to_string(entry.hit_count.load(std::memory_order_relaxed));
  // The per-τ-node engine picks, in plan order.
  for (size_t i = 0; i < patterns.size(); ++i) {
    out += i == 0 ? (patterns.size() == 1 ? ", strategy " : ", strategies ")
                  : ", ";
    out += exec::PatternStrategyName(patterns[i]->strategy);
  }
  out += ")";
  if (entry.parameterized && !binds.empty()) {
    out += ", binds [";
    for (size_t i = 0; i < binds.size(); ++i) {
      if (i > 0) out += ", ";
      out += binds[i];
    }
    out += "]";
  }
  return out;
}

/// Rebuilds executable query text from a parameterized template by textually
/// replacing each slot's sentinel (planted exactly once by the canonical
/// render) with the quoted bind value — the uncached fallback for explicit
/// binds when the compiled template can't be bound plan-side.
Result<std::string> SubstituteBindText(
    const cache::NormalizedQuery& normalized,
    const std::vector<std::string>& values) {
  std::string text = normalized.compile_text;
  for (size_t i = 0; i < normalized.slots.size(); ++i) {
    const cache::BindSlot& slot = normalized.slots[i];
    std::string needle;
    std::string replacement;
    if (slot.numeric) {
      needle = slot.sentinel;
      replacement = values[i];
    } else {
      needle = "\"" + slot.sentinel + "\"";
      const bool has_d = values[i].find('"') != std::string::npos;
      const bool has_s = values[i].find('\'') != std::string::npos;
      if (has_d && has_s) {
        return Status::InvalidArgument(
            "bind slot " + std::to_string(i) +
            " value mixes both quote characters; not expressible as a "
            "literal for this query");
      }
      const char quote = has_d ? '\'' : '"';
      replacement = quote + values[i] + quote;
    }
    const size_t pos = text.find(needle);
    if (pos == std::string::npos) {
      return Status::Internal("bind sentinel " + std::to_string(i) +
                              " missing from template text");
    }
    text.replace(pos, needle.size(), replacement);
  }
  return text;
}

}  // namespace

Result<exec::QueryResult> Database::Run(
    LogicalExprPtr plan, const QueryOptions& options,
    std::shared_ptr<const CatalogState> catalog,
    std::string provenance) const {
  // Every execution gets a serving identity and a cancel token, registered
  // *before* admission so a queued query is already cancellable.
  const uint64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<CancelToken> token =
      std::const_pointer_cast<CancelToken>(options.limits.cancel_token);
  if (token == nullptr) token = std::make_shared<CancelToken>();
  ActiveRegistration registration(&active_mu_, &active_, query_id, token);
  if (options.query_id_out != nullptr) {
    options.query_id_out->store(query_id, std::memory_order_release);
  }

  // Follower-read admission: a replica too stale for the configured bound
  // sheds the read with the standard retry-after hint *before* consuming a
  // scheduler slot. No gate (the default) admits everything.
  if (const std::shared_ptr<exec::StalenessGate> gate = PinReadGate();
      gate != nullptr) {
    XMLQ_RETURN_IF_ERROR(gate->Admit());
  }

  XMLQ_ASSIGN_OR_RETURN(exec::QueryScheduler::Ticket ticket,
                        scheduler_.Admit(token.get()));

  exec::EvalContext context = MakeContext(*catalog, options);
  std::unique_ptr<exec::PlanProfile> profile;
  if (options.collect_stats) {
    profile = exec::PlanProfile::Create(*plan);
    std::string doc_name;
    if (const LogicalExpr* scan = FindDocScan(*plan); scan != nullptr) {
      doc_name = scan->str;
    }
    if (const Entry* entry = catalog->Find(doc_name); entry != nullptr) {
      opt::AnnotateProfile(*entry->synopsis, entry->dom->pool(), *plan,
                           profile.get());
    }
    context.profile = profile.get();
  }
  // The guard lives on this frame: the executor and everything below it only
  // borrow the pointer, and Run outlives the evaluation. The serving token
  // means every query is governed (cancellable) even with no explicit
  // limits; the extra poll every 4096 steps is noise (bench R1).
  QueryLimits limits = options.limits;
  limits.cancel_token = token;
  ResourceGuard guard(limits);
  context.guard = &guard;
  context.breaker = &breaker_;
  context.admitted_seq = ticket.admitted_seq();
  exec::FallbackInfo fallback;
  context.fallback = &fallback;

  exec::Executor executor(&context);
  auto result = executor.Evaluate(*plan);
  if (profile != nullptr) {
    if (fallback.Degraded()) {
      opt::ReannotateFallback(*plan, fallback, profile.get());
    }
    profile->Finalize();
  }
  if (!result.ok()) return result.status();
  result->profile = std::move(profile);
  result->query_id = query_id;
  result->plan_provenance = std::move(provenance);
  // Surface scrubber degradations for every document this query scanned,
  // the same channel engine fallbacks use.
  if (!catalog->degraded.empty()) {
    std::set<std::string> docs;
    CollectDocNames(*plan, &docs);
    for (const std::string& doc : docs) {
      const std::string& resolved =
          doc.empty() ? catalog->default_document : doc;
      const auto it = catalog->degraded.find(resolved);
      if (it == catalog->degraded.end()) continue;
      result->degraded = true;
      if (!result->degradation.empty()) result->degradation += "; ";
      result->degradation += "document \"" + it->first + "\": " + it->second;
    }
  }
  result->pinned = std::move(catalog);
  if (fallback.Degraded()) {
    // The first reroute names the engine and the reason.
    const exec::FallbackInfo::Reroute& first = fallback.reroutes.front();
    result->degraded = true;
    if (!result->degradation.empty()) result->degradation += "; ";
    result->degradation +=
        "τ engine " + std::string(exec::PatternStrategyName(first.from)) +
        (first.quarantined ? " quarantined (circuit breaker open)"
                           : " faulted (" + first.reason + ")") +
        "; degraded to naive navigation";
  }
  return result;
}

Result<LogicalExprPtr> Database::Compile(std::string_view query,
                                         const QueryOptions& options,
                                         const CatalogState& catalog) const {
  xquery::TranslateOptions translate_options;
  translate_options.default_document = catalog.default_document;
  translate_options.apply_rewrites = options.apply_rewrites;
  auto plan = xquery::CompileQuery(query, translate_options);
  if (plan.ok()) return plan;
  // Pure XPath with predicates is outside the XQuery path subset but fully
  // supported by the XPath front end; fall back for absolute paths.
  const std::string_view trimmed = TrimWhitespace(query);
  if (!trimmed.empty() && trimmed[0] == '/') {
    auto xpath_plan = xpath::CompilePath(trimmed, catalog.default_document);
    if (xpath_plan.ok()) return xpath_plan;
  }
  return plan.status();
}

std::string Database::CacheKey(bool is_path, const std::string& path_doc,
                               const QueryOptions& options,
                               const std::string& fingerprint) {
  // Front-end tag: XPath plans depend on the explicit target document;
  // XQuery plans resolve documents (and the default document) from the
  // catalog, which the generation already versions.
  std::string key = is_path ? "P\x1f" + path_doc : std::string("Q");
  key += '\x1f';
  // Options class: anything that changes what Compile/PlanStrategies
  // produce.
  if (options.auto_optimize) {
    key += 'A';
  } else {
    key += 'F';
    key.append(exec::PatternStrategyName(options.strategy));
  }
  key += options.flwor_mode == exec::FlworMode::kEnv ? 'e' : 'p';
  key += options.apply_rewrites ? 'r' : 'n';
  // Limits class: bounded/unbounded bits only — the plan is identical, but
  // keeping classes apart keeps a fleet of deadline-bound queries from
  // sharing hit counters and LRU slots with unbounded ad-hoc runs.
  key += options.limits.deadline_micros != 0 ? 'd' : '-';
  key += options.limits.max_steps != 0 ? 's' : '-';
  key += options.limits.max_memory_bytes != 0 ? 'm' : '-';
  key += '\x1f';
  key += fingerprint;
  return key;
}

Result<exec::QueryResult> Database::CachedExecute(
    std::string_view original_text, const cache::NormalizedQuery& normalized,
    const std::vector<std::string>& values, const QueryOptions& options,
    std::shared_ptr<const CatalogState> catalog, bool is_path,
    const std::string& path_doc) const {
  const std::shared_ptr<cache::PlanCache> plan_cache = PinPlanCache();
  // Explicit binds (PreparedQuery::Execute(binds)) that differ from the
  // text's own literals: every path must substitute them — re-running the
  // original text would execute the literals the query was *prepared* with.
  const bool custom_binds = normalized.parameterized &&
                            &values != &normalized.values &&
                            values != normalized.values;
  const auto compile = [&](std::string_view text) {
    return is_path ? xpath::CompilePath(text, path_doc)
                   : Compile(text, options, *catalog);
  };
  const auto run_uncached =
      [&](std::string provenance) -> Result<exec::QueryResult> {
    plan_cache->RecordBypass();
    LogicalExprPtr plan;
    if (custom_binds) {
      // Compile the sentinel template and bind, exactly like a cache hit;
      // when the compiled form hides a sentinel from the binder, fall back
      // to substituting the binds into the template text itself.
      Result<LogicalExprPtr> tmpl = compile(normalized.compile_text);
      if (tmpl.ok() && cache::ValidateSentinels(**tmpl, normalized.slots)) {
        plan = cache::BindPlan(**tmpl, normalized.slots, values);
      } else {
        XMLQ_ASSIGN_OR_RETURN(const std::string text,
                              SubstituteBindText(normalized, values));
        XMLQ_ASSIGN_OR_RETURN(plan, compile(text));
      }
    } else {
      XMLQ_ASSIGN_OR_RETURN(plan, compile(original_text));
    }
    PlanStrategies(*catalog, plan.get(), options);
    return Run(std::move(plan), options, std::move(catalog),
               std::move(provenance));
  };
  if (!plan_cache->config().enabled || !options.use_plan_cache) {
    return run_uncached("fresh (cache bypassed)");
  }

  const std::string key =
      CacheKey(is_path, path_doc, options, normalized.fingerprint);
  std::shared_ptr<cache::CachedPlan> entry =
      plan_cache->Lookup(key, catalog->generation);
  if (entry != nullptr &&
      (entry->parameterized ? entry->slots.size() != values.size()
                            : !values.empty())) {
    // Belt-and-braces against key-namespace bugs: a template whose slot
    // count doesn't match this execution's binds must not be bound (BindPlan
    // indexes values by slot position). Treat as a miss — the re-compiled
    // template just loses the Insert race below.
    entry = nullptr;
  }
  if (entry != nullptr) {
    // Hit: no parse, no rewrite, no optimizer — clone the template (its τ
    // nodes keep their engines), substitute this execution's binds, run.
    LogicalExprPtr bound =
        entry->parameterized
            ? cache::BindPlan(*entry->plan, entry->slots, values)
            : entry->plan->Clone();
    std::string provenance =
        CachedProvenance(*entry, catalog->generation, values);
    return Run(std::move(bound), options, std::move(catalog),
               std::move(provenance));
  }

  // Miss: compile the sentinel template (one plan per fingerprint), check
  // the binder can reach every lifted literal, bind this execution's
  // values, pick each τ node's engine on the *bound* plan (real values →
  // real value-index counts), keep the picks in the template, and try to
  // install it. Query/QueryPath
  // normalize in the light mode (fingerprint + values only — all a hit
  // needs), so the sentinel render happens here, on the slow path.
  cache::NormalizedQuery full_storage;
  const cache::NormalizedQuery* full = &normalized;
  if (normalized.compile_text.empty()) {
    full_storage = cache::NormalizeQuery(original_text);
    full = &full_storage;
  }
  Result<LogicalExprPtr> tmpl = compile(full->compile_text);
  if (!tmpl.ok() || (full->parameterized &&
                     !cache::ValidateSentinels(**tmpl, full->slots))) {
    return run_uncached("fresh (not cacheable)");
  }
  LogicalExprPtr bound = full->parameterized
                             ? cache::BindPlan(**tmpl, full->slots, values)
                             : (*tmpl)->Clone();
  PlanStrategies(*catalog, bound.get(), options);
  CopyStrategies(*bound, tmpl->get());
  entry = std::make_shared<cache::CachedPlan>();
  entry->key = key;
  entry->generation = catalog->generation;
  entry->slots = full->slots;
  entry->parameterized = full->parameterized;
  entry->created = std::chrono::steady_clock::now();
  entry->plan = std::move(*tmpl);
  entry->bytes = cache::PlanFootprint(*entry->plan) + key.size() +
                 sizeof(cache::CachedPlan);
  // Insert may fail (injected fault, racing first writer, over-budget
  // entry): the query still runs off its own bound copy.
  (void)plan_cache->Insert(std::move(entry));
  return Run(std::move(bound), options, std::move(catalog), "fresh");
}

Result<exec::QueryResult> Database::Query(std::string_view query,
                                          const QueryOptions& options) const {
  // One pin covers compilation and execution, so the default document the
  // plan was compiled against is exactly the one it runs against even when
  // a writer swaps the catalog in between.
  std::shared_ptr<const CatalogState> catalog = Pin();
  const cache::NormalizedQuery normalized =
      cache::NormalizeQuery(query, /*render_compile_text=*/false);
  return CachedExecute(query, normalized, normalized.values, options,
                       std::move(catalog), /*is_path=*/false, "");
}

Result<exec::QueryResult> Database::QueryPath(
    std::string_view path, std::string_view doc_name,
    const QueryOptions& options) const {
  std::shared_ptr<const CatalogState> catalog = Pin();
  const std::string name = doc_name.empty() ? catalog->default_document
                                            : std::string(doc_name);
  const cache::NormalizedQuery normalized =
      cache::NormalizeQuery(path, /*render_compile_text=*/false);
  return CachedExecute(path, normalized, normalized.values, options,
                       std::move(catalog), /*is_path=*/true, name);
}

Result<PreparedQuery> Database::Prepare(std::string_view text,
                                        const QueryOptions& options) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  // Surface syntax errors now, not at the first Execute.
  XMLQ_RETURN_IF_ERROR(Compile(text, options, *catalog).status());
  return PreparedQuery(this, std::string(text), options,
                       cache::NormalizeQuery(text));
}

Result<exec::QueryResult> PreparedQuery::Execute() const {
  return Execute(normalized_.values, options_);
}

Result<exec::QueryResult> PreparedQuery::Execute(
    const std::vector<std::string>& binds) const {
  return Execute(binds, options_);
}

Result<exec::QueryResult> PreparedQuery::Execute(
    const std::vector<std::string>& binds,
    const QueryOptions& options) const {
  if (binds.size() != normalized_.slots.size()) {
    return Status::InvalidArgument(
        "prepared query has " + std::to_string(normalized_.slots.size()) +
        " bind slot(s), got " + std::to_string(binds.size()) + " value(s)");
  }
  for (size_t i = 0; i < binds.size(); ++i) {
    const std::string& v = binds[i];
    const bool numeric = normalized_.slots[i].numeric;
    if (numeric) {
      // Numeric slots must stay well-formed numbers — digits with at most
      // one dot and digits on both sides of it — so the bound plan is
      // byte-for-byte what compiling the literal would have produced (a
      // malformed string like "1.2.3" would otherwise diverge from its
      // strtod prefix parse).
      const bool ok = [&] {
        if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0]))) {
          return false;
        }
        bool seen_dot = false;
        for (size_t j = 0; j < v.size(); ++j) {
          if (v[j] == '.') {
            if (seen_dot || j + 1 >= v.size() ||
                !std::isdigit(static_cast<unsigned char>(v[j + 1]))) {
              return false;
            }
            seen_dot = true;
          } else if (!std::isdigit(static_cast<unsigned char>(v[j]))) {
            return false;
          }
        }
        return true;
      }();
      if (!ok) {
        return Status::InvalidArgument("bind slot " + std::to_string(i) +
                                       " expects a number, got \"" + v +
                                       "\"");
      }
    }
    if (cache::CollidesWithSentinelSpace(v, numeric)) {
      return Status::InvalidArgument(
          "bind slot " + std::to_string(i) +
          " value collides with the plan-cache sentinel encoding");
    }
  }
  return db_->CachedExecute(text_, normalized_, binds, options, db_->Pin(),
                            /*is_path=*/false, "");
}

Result<std::string> Database::Explain(std::string_view query,
                                      const QueryOptions& options) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  XMLQ_ASSIGN_OR_RETURN(LogicalExprPtr plan,
                        Compile(query, options, *catalog));
  std::string out;
  // Plan provenance header: what Query(text) would serve right now. Peek,
  // not Lookup — explaining a query must not bump its LRU position or hit
  // counters.
  const std::shared_ptr<cache::PlanCache> plan_cache = PinPlanCache();
  if (plan_cache->config().enabled && options.use_plan_cache) {
    const cache::NormalizedQuery normalized =
        cache::NormalizeQuery(query, /*render_compile_text=*/false);
    const std::string key =
        CacheKey(/*is_path=*/false, "", options, normalized.fingerprint);
    if (const std::shared_ptr<cache::CachedPlan> entry =
            plan_cache->Peek(key, catalog->generation)) {
      out += "-- plan: " +
             CachedProvenance(*entry, catalog->generation, normalized.values) +
             "\n";
    } else {
      out += "-- plan: fresh (not cached)\n";
    }
  }
  out += plan->ToString();
  std::string strategies;
  PlanStrategies(*catalog, plan.get(), options, &strategies);
  if (!strategies.empty()) {
    out += "-- physical strategy --\n" + strategies;
  }
  return out;
}

Result<std::string> Database::ExplainAnalyze(
    std::string_view query, const QueryOptions& options) const {
  QueryOptions analyze_options = options;
  analyze_options.collect_stats = true;
  XMLQ_ASSIGN_OR_RETURN(exec::QueryResult result,
                        Query(query, analyze_options));
  std::string out;
  if (!result.plan_provenance.empty()) {
    out += "-- plan: " + result.plan_provenance + "\n";
  }
  if (result.profile != nullptr) out += result.profile->ToString();
  out += "-- " + std::to_string(result.value.size()) + " item(s)\n";
  if (result.degraded) {
    out += "-- degraded: " + result.degradation + "\n";
  }
  return out;
}

std::shared_ptr<cache::PlanCache> Database::PinPlanCache() const {
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  return plan_cache_;
}

void Database::SetPlanCache(const cache::CacheConfig& config) const {
  // Swap whole: in-flight queries finish against the instance they pinned;
  // old entries die with the last reference.
  auto next = std::make_shared<cache::PlanCache>(config);
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  plan_cache_ = std::move(next);
}

cache::CacheStats Database::plan_cache_stats() const {
  return PinPlanCache()->Stats();
}

void Database::SetAdmission(const exec::AdmissionConfig& config) const {
  scheduler_.Configure(config);
}

void Database::SetBreaker(const exec::CircuitBreaker::Config& config) const {
  breaker_.Configure(config);
}

bool Database::Cancel(uint64_t query_id) const {
  std::shared_ptr<CancelToken> token;
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    const auto it = active_.find(query_id);
    if (it == active_.end()) return false;
    token = it->second;
  }
  token->Cancel();
  // Wake the admission queue so a still-queued query notices promptly.
  scheduler_.Poke();
  return true;
}

exec::AdmissionStats Database::admission_stats() const {
  return scheduler_.Stats();
}

std::string Database::BreakerReport() const { return breaker_.Render(); }

std::string Database::ToXml(const exec::QueryResult& result, bool indent) {
  xml::SerializeOptions options;
  options.indent = indent;
  std::string out;
  for (const algebra::Item& item : result.value) {
    if (!out.empty()) out.push_back('\n');
    if (item.IsNode()) {
      out += xml::Serialize(*item.node().doc, item.node().id, options);
    } else {
      out += item.StringValue();
    }
  }
  return out;
}

Result<StorageReport> Database::Report(std::string_view name) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  const Entry* entry = catalog->Find(name);
  if (entry == nullptr) {
    return Status::NotFound("document \"" + std::string(name) +
                            "\" is not loaded");
  }
  StorageReport report;
  report.dom_bytes = entry->dom->MemoryUsage();
  report.succinct_structure_bytes = entry->succinct->StructureBytes();
  report.succinct_content_bytes = entry->succinct->ContentBytes();
  report.region_index_bytes = entry->regions->MemoryUsage();
  report.value_index_bytes = entry->values->MemoryUsage();
  report.node_count = entry->dom->NodeCount();
  report.succinct_heap_bytes = entry->succinct->HeapBytes();
  report.region_index_heap_bytes = entry->regions->HeapBytes();
  report.value_index_heap_bytes = entry->values->HeapBytes();
  if (entry->backing != nullptr) {
    report.from_snapshot = true;
    report.mapped = entry->backing->bytes().mapped();
    report.snapshot_file_bytes = entry->backing->file_size();
  }
  return report;
}

}  // namespace xmlq::api

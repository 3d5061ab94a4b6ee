// E4 cost-model calibration: times every τ engine on seeded generated
// patterns (auction, bibliography, random trees), fits CostParams by
// least squares against the measured wall time, and reports how far the
// cost-model pick lands from the fastest engine — with the checked-in
// constants and with the fresh fit.
//
//   bench_costmodel [--rounds N]
//
// --rounds N measures every pattern N times (as separate rows) so the fit
// averages over a noisy host.
//
// Fit: each (pattern, engine) run is one row, features from
// opt::EstimateWork, target the median wall time of the engine's match
// call. The fit minimizes the squared log error of the prediction by
// iteratively reweighted least squares (weights 1/time² on the first pass,
// 1/(time·prediction) on the next eight), keeping every coefficient
// non-negative (active-set). The fitted constants are printed in
// CostParams order for checking in.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "xmlq/base/random.h"
#include "xmlq/base/strings.h"
#include "xmlq/datagen/random_tree.h"
#include "xmlq/exec/hybrid.h"
#include "xmlq/exec/naive_nav.h"
#include "xmlq/exec/path_stack.h"
#include "xmlq/exec/structural_join.h"
#include "xmlq/exec/twig_stack.h"
#include "xmlq/opt/cost_model.h"

namespace xmlq::bench {
namespace {

using exec::PatternStrategy;

constexpr PatternStrategy kEngines[] = {
    PatternStrategy::kNok, PatternStrategy::kTwigStack,
    PatternStrategy::kPathStack, PatternStrategy::kBinaryJoin,
    PatternStrategy::kNaive};
constexpr size_t kFeatures = 10;

std::array<double, kFeatures> Vec(const opt::CostFeatures& f) {
  return {f.stream,    f.anchor, f.scan,      f.navigate,
          f.predicate, f.merge,  f.twig_step, f.pair, f.hash, f.call};
}

/// CostParams in the same order, as fit weights.
std::array<double, kFeatures> Weights(const opt::CostParams& p) {
  return {p.stream,    p.anchor, p.scan,      p.navigate,
          p.predicate, p.merge,  p.twig_step, p.pair, p.hash, p.call};
}

Result<exec::NodeList> RunEngine(PatternStrategy strategy,
                                 const exec::IndexedDocument& doc,
                                 const algebra::PatternGraph& pattern) {
  switch (strategy) {
    case PatternStrategy::kNok:
      return exec::HybridMatch(doc, pattern);
    case PatternStrategy::kTwigStack:
      return exec::TwigStackMatch(doc, pattern);
    case PatternStrategy::kPathStack:
      // Branching patterns are not a PathStack alternative (the executor
      // runs them on TwigStack); PathStackMatch rejects them.
      return exec::PathStackMatch(doc, pattern);
    case PatternStrategy::kBinaryJoin:
      return exec::BinaryJoinPlanMatch(doc, pattern, {}, nullptr);
    case PatternStrategy::kNaive:
      return exec::NaiveMatchPattern(*doc.dom, pattern);
  }
  return Status::Internal("unknown engine");
}

/// Per synopsis node: up to 6 sample string-values of its data elements
/// and attributes, for value predicates on generated patterns.
std::vector<std::vector<std::string>> SampleValues(
    const xml::Document& doc, const opt::Synopsis& synopsis, Rng* rng) {
  const auto& nodes = synopsis.nodes();
  std::vector<std::vector<std::string>> out(nodes.size());
  std::vector<uint32_t> syn_of(doc.NodeCount(), 0);
  std::vector<uint32_t> seen(nodes.size(), 0);
  for (xml::NodeId id = 1; id < doc.NodeCount(); ++id) {
    const xml::NodeKind kind = doc.Kind(id);
    const bool attr = kind == xml::NodeKind::kAttribute;
    if (!attr && kind != xml::NodeKind::kElement) continue;
    uint32_t syn = 0;
    for (const uint32_t c : nodes[syn_of[doc.Parent(id)]].children) {
      if (nodes[c].name == doc.Name(id) && nodes[c].is_attribute == attr) {
        syn = c;
      }
    }
    syn_of[id] = syn;
    const xml::NodeId child = doc.FirstChild(id);
    const bool data = attr || (child != xml::kNullNode &&
                               doc.Kind(child) == xml::NodeKind::kText &&
                               doc.NextSibling(child) == xml::kNullNode);
    if (!data) continue;
    // Reservoir sample.
    const uint32_t k = ++seen[syn];
    const std::string value = doc.StringValue(id);
    if (value.empty() || value.find('\'') != std::string::npos ||
        value.size() > 40) {
      continue;
    }
    if (out[syn].size() < 6) {
      out[syn].push_back(value);
    } else if (rng->Below(k) < 6) {
      out[syn][rng->Below(6)] = value;
    }
  }
  return out;
}

/// A random twig over the document's synopsis: a root path, some steps
/// folded into '//', and up to two branch or value predicates.
std::string GeneratePattern(const xml::Document& doc,
                            const opt::Synopsis& synopsis,
                            const std::vector<std::vector<std::string>>& values,
                            Rng* rng) {
  const auto& nodes = synopsis.nodes();
  const auto& pool = doc.pool();
  // Pick an element path with at least two steps.
  uint32_t target = 0;
  std::vector<uint32_t> path;
  for (int attempt = 0; attempt < 100; ++attempt) {
    target = static_cast<uint32_t>(1 + rng->Below(nodes.size() - 1));
    if (nodes[target].is_attribute) continue;
    path.clear();
    for (uint32_t s = target; s != 0; s = nodes[s].parent) path.push_back(s);
    std::reverse(path.begin(), path.end());
    if (path.size() >= 2) break;
  }
  const auto predicate = [&](uint32_t s, uint32_t skip) -> std::string {
    std::vector<uint32_t> options;
    for (const uint32_t c : nodes[s].children) {
      if (c != skip) options.push_back(c);
    }
    if (options.empty()) return "";
    const uint32_t c = options[rng->Below(options.size())];
    const std::string name = (nodes[c].is_attribute ? "@" : "") +
                             std::string(pool.NameOf(nodes[c].name));
    if (!values[c].empty() && rng->Chance(0.6)) {
      const std::string& v = values[c][rng->Below(values[c].size())];
      if (ParseDouble(v).has_value() && rng->Chance(0.5)) {
        return "[" + name + (rng->Chance(0.5) ? " > " : " < ") + v + "]";
      }
      return "[" + name + " = '" + v + "']";
    }
    return "[" + name + "]";
  };
  std::string out;
  size_t i = rng->Chance(0.5) ? rng->Below(path.size() - 1) : 0;
  out = (i == 0 && rng->Chance(0.5) ? "/" : "//");
  int predicates = 0;
  while (true) {
    out += pool.NameOf(nodes[path[i]].name);
    const uint32_t next = i + 1 < path.size() ? path[i + 1] : UINT32_MAX;
    if (predicates < 2 && rng->Chance(0.3)) {
      const std::string p = predicate(path[i], next);
      if (!p.empty()) {
        out += p;
        ++predicates;
      }
    }
    if (i + 1 == path.size()) break;
    if (i + 2 < path.size() && rng->Chance(0.25)) {
      i += 1 + rng->Below(std::min<size_t>(2, path.size() - i - 2));
      out += "//";
    } else {
      out += "/";
    }
    ++i;
  }
  return out;
}

struct Row {
  std::string doc;
  std::string path;
  double time[5];  // per kEngines entry, ns; -1 when unsupported
  std::array<double, kFeatures> features[5];
};

struct NamedDoc {
  std::string name;
  std::unique_ptr<LoadedDoc> doc;
  std::vector<std::string> fixed;  // hand-written shapes
};

double Dot(const std::array<double, kFeatures>& a,
           const std::array<double, kFeatures>& b) {
  double sum = 0;
  for (size_t i = 0; i < kFeatures; ++i) sum += a[i] * b[i];
  return sum;
}

/// Active-set non-negative weighted least squares on the normal equations.
/// Row weights are 1/time² on the first pass, 1/(time·prediction) after.
std::array<double, kFeatures> FitOnce(
    const std::vector<Row>& rows, const std::array<double, kFeatures>* prev) {
  std::array<bool, kFeatures> free;
  free.fill(true);
  std::array<double, kFeatures> w{};
  for (int round = 0; round < static_cast<int>(kFeatures); ++round) {
    double a[kFeatures][kFeatures + 1] = {};
    for (const Row& row : rows) {
      for (size_t e = 0; e < 5; ++e) {
        if (row.time[e] <= 0) continue;
        const auto& f = row.features[e];
        const double scale =
            prev == nullptr
                ? row.time[e]
                : std::max(Dot(*prev, f), 0.05 * row.time[e]);
        const double weight = 1.0 / (row.time[e] * scale);
        for (size_t i = 0; i < kFeatures; ++i) {
          for (size_t j = 0; j < kFeatures; ++j) {
            a[i][j] += weight * f[i] * f[j];
          }
          a[i][kFeatures] += weight * f[i] * row.time[e];
        }
      }
    }
    for (size_t i = 0; i < kFeatures; ++i) {
      if (free[i] && a[i][i] > 0) continue;
      for (size_t j = 0; j <= kFeatures; ++j) a[i][j] = 0;
      for (size_t j = 0; j < kFeatures; ++j) a[j][i] = 0;
      a[i][i] = 1;
      free[i] = false;
    }
    // Gaussian elimination with partial pivoting.
    for (size_t c = 0; c < kFeatures; ++c) {
      size_t pivot = c;
      for (size_t r = c + 1; r < kFeatures; ++r) {
        if (std::fabs(a[r][c]) > std::fabs(a[pivot][c])) pivot = r;
      }
      std::swap(a[c], a[pivot]);
      for (size_t r = 0; r < kFeatures; ++r) {
        if (r == c || a[c][c] == 0) continue;
        const double m = a[r][c] / a[c][c];
        for (size_t j = c; j <= kFeatures; ++j) a[r][j] -= m * a[c][j];
      }
    }
    for (size_t i = 0; i < kFeatures; ++i) {
      w[i] = a[i][i] != 0 ? a[i][kFeatures] / a[i][i] : 0;
    }
    size_t worst = kFeatures;
    for (size_t i = 0; i < kFeatures; ++i) {
      if (free[i] && w[i] < 0 && (worst == kFeatures || w[i] < w[worst])) {
        worst = i;
      }
    }
    if (worst == kFeatures) break;
    free[worst] = false;
  }
  for (double& x : w) x = std::max(0.0, x);
  return w;
}

/// Minimizes squared log error by iteratively reweighted least squares.
std::array<double, kFeatures> Fit(const std::vector<Row>& rows) {
  std::array<double, kFeatures> w = FitOnce(rows, nullptr);
  for (int round = 0; round < 8; ++round) w = FitOnce(rows, &w);
  return w;
}

/// Summed time of the cost-model pick vs the fastest engine, over rows.
void Report(const char* label, const std::vector<Row>& rows,
            const std::array<double, kFeatures>& weights, bool verbose) {
  double picked_sum = 0, best_sum = 0, worst_ratio = 1, log_sum = 0;
  size_t within = 0;
  for (const Row& row : rows) {
    size_t best = 0, pick = 0;
    double pick_cost = -1;
    for (size_t e = 0; e < 5; ++e) {
      if (row.time[e] <= 0) continue;
      if (row.time[best] <= 0 || row.time[e] < row.time[best]) best = e;
      const double cost = Dot(weights, row.features[e]);
      if (pick_cost < 0 || cost < pick_cost) {
        pick_cost = cost;
        pick = e;
      }
    }
    const double ratio = row.time[pick] / row.time[best];
    picked_sum += row.time[pick];
    best_sum += row.time[best];
    worst_ratio = std::max(worst_ratio, ratio);
    log_sum += std::log(ratio);
    if (ratio <= 1.2) ++within;
    if (verbose && ratio > 1.2) {
      std::printf("  %-8s %-60s pick %-10s %8.1f us, best %-10s %8.1f us\n",
                  row.doc.c_str(), row.path.c_str(),
                  std::string(exec::PatternStrategyName(kEngines[pick]))
                      .c_str(),
                  row.time[pick] / 1e3,
                  std::string(exec::PatternStrategyName(kEngines[best]))
                      .c_str(),
                  row.time[best] / 1e3);
    }
  }
  std::printf(
      "%s: %zu patterns, picks sum %.2f ms vs best %.2f ms (+%.1f%%), "
      "geomean %.3fx, worst %.2fx, %zu/%zu within 1.2x\n",
      label, rows.size(), picked_sum / 1e6, best_sum / 1e6,
      100.0 * (picked_sum / best_sum - 1), std::exp(log_sum / rows.size()),
      worst_ratio, within, rows.size());
}

int Main(int argc, char** argv) {
  int rounds = 1;
  if (argc == 3 && std::strcmp(argv[1], "--rounds") == 0) {
    rounds = std::max(1, std::atoi(argv[2]));
  }
  std::vector<NamedDoc> docs;
  const auto auction = [](double scale, uint64_t seed) {
    datagen::AuctionOptions options;
    options.scale = scale;
    options.seed = seed;
    return std::make_unique<LoadedDoc>(datagen::GenerateAuctionSite(options));
  };
  const auto bib = [](size_t books, uint64_t seed) {
    datagen::BibOptions options;
    options.num_books = books;
    options.seed = seed;
    return std::make_unique<LoadedDoc>(datagen::GenerateBibliography(options));
  };
  const std::vector<std::string> auction_shapes = {
      "/site/open_auctions/open_auction/bidder/increase",
      "//mailbox//text",
      "//person[address][phone]/name",
      "//item[payment = 'Cash']/location",
      "//person[@id = 'person7']",
      "//person[@id = 'person7']/name",
      "//open_auction[bidder/increase > 25]/current",
      "//regions//item[location = 'Boston']",
      "//person[profile]",
      "//item",
      "//closed_auction/price",
      "//open_auction[@id = 'open_auction7']/current",
      "//person[address/city = 'Boston']/name",
      "//item/name",
      "/site/regions/africa/item",
      "//closed_auction",
      "//person",
  };
  const std::vector<std::string> bib_shapes = {
      "//book[@id = 'b7']/title", "//book[@year = '1995']/title",
      "//book[@year = '1995']/price", "/bib/book[@id = 'b7']/title",
      "//book", "//book/author[last][first]",
      "//book[author/last = 'Stevens']/title",
  };
  docs.push_back({"auc0.2", auction(0.2, 5), auction_shapes});
  docs.push_back({"auc1.0", auction(1.0, 9), auction_shapes});
  docs.push_back({"auc0.05", auction(0.05, 3), auction_shapes});
  docs.push_back({"bib1000", bib(1000, 4), bib_shapes});
  docs.push_back({"bib500", bib(500, 8), bib_shapes});
  for (uint64_t seed : {1, 2}) {
    datagen::RandomTreeOptions options;
    options.num_elements = 20000;
    options.seed = seed;
    docs.push_back({"rand" + std::to_string(seed),
                    std::make_unique<LoadedDoc>(
                        datagen::GenerateRandomTree(options)),
                    {}});
  }

  std::vector<Row> rows;
  constexpr int kGenerated = 30;
  for (int round = 0; round < rounds; ++round) {
    Rng rng(20);  // the same patterns every round
    for (const NamedDoc& named : docs) {
      const LoadedDoc& doc = *named.doc;
      const opt::Synopsis synopsis(*doc.dom, doc.values.get());
      const auto values = SampleValues(*doc.dom, synopsis, &rng);
      std::vector<std::string> paths = named.fixed;
      for (int i = 0; i < kGenerated; ++i) {
        paths.push_back(GeneratePattern(*doc.dom, synopsis, values, &rng));
      }
      for (const std::string& path : paths) {
        const algebra::PatternGraph pattern = Pattern(path);
        const opt::CardinalityEstimate est =
            opt::EstimatePattern(synopsis, doc.dom->pool(), pattern);
        Row row;
        row.doc = named.name;
        row.path = path;
        // Engines are timed round-robin so drift on a shared host spreads
        // over all of them alike.
        std::vector<double> samples[5];
        for (size_t e = 0; e < 5; ++e) {
          row.features[e] = Vec(opt::EstimateWork(
              kEngines[e], synopsis, doc.dom->pool(), pattern, est));
          if (!RunEngine(kEngines[e], doc.view, pattern).ok()) {
            samples[e].push_back(-1);  // not an alternative for this pattern
          }
        }
        constexpr size_t kReps = 15;
        constexpr uint64_t kBudgetNanos = 40'000'000;
        const uint64_t start = SteadyNowNanos();
        for (size_t r = 0; r < kReps; ++r) {
          if (r >= 3 && SteadyNowNanos() - start > kBudgetNanos) break;
          for (size_t e = 0; e < 5; ++e) {
            if (!samples[e].empty() && samples[e][0] < 0) continue;
            const uint64_t t0 = SteadyNowNanos();
            auto result = RunEngine(kEngines[e], doc.view, pattern);
            benchmark::DoNotOptimize(result);
            samples[e].push_back(static_cast<double>(SteadyNowNanos() - t0));
          }
        }
        for (size_t e = 0; e < 5; ++e) {
          std::vector<double>& s = samples[e];
          std::nth_element(s.begin(), s.begin() + s.size() / 2, s.end());
          row.time[e] = s[s.size() / 2];
        }
        rows.push_back(std::move(row));
      }
    }
  }

  const std::array<double, kFeatures> w = Fit(rows);
  std::printf(
      "fitted CostParams (ns/unit): stream=%.3g anchor=%.3g scan=%.3g "
      "navigate=%.3g predicate=%.3g merge=%.3g twig_step=%.3g pair=%.3g "
      "hash=%.3g call=%.3g\n",
      w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8], w[9]);
  Report("checked-in params", rows, Weights(opt::CostParams{}),
         /*verbose=*/true);
  Report("fresh fit", rows, w, /*verbose=*/false);
  return 0;
}

}  // namespace
}  // namespace xmlq::bench

int main(int argc, char** argv) { return xmlq::bench::Main(argc, argv); }

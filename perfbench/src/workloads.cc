// The three workloads: their documents (from src/xmlq/datagen), their
// request sets, their per-client request streams and their reference
// answers.

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <utility>

#include "bench.h"
#include "xmlq/datagen/auction_gen.h"
#include "xmlq/datagen/bib_gen.h"
#include "xmlq/xml/serializer.h"

namespace xmlq::perfbench {

namespace {

std::string AuctionXml(double scale, uint64_t seed) {
  datagen::AuctionOptions options;
  options.scale = scale;
  options.seed = seed;
  return xml::Serialize(*datagen::GenerateAuctionSite(options));
}

std::string BibXml(size_t books, uint64_t seed) {
  datagen::BibOptions options;
  options.num_books = books;
  options.seed = seed;
  return xml::Serialize(*datagen::GenerateBibliography(options));
}

/// Derived seed for part `part` of a workload seeded with `seed`.
uint64_t SeedOf(uint64_t seed, uint64_t part) {
  return Mix64(seed ^ Mix64(part + 0x51ED));
}

constexpr const char* kCities[] = {"Waterloo", "Toronto", "Boston", "Berlin",
                                   "Tokyo",    "Sydney",  "Nairobi", "Lima"};

/// `count` distinct values of `make(rng.Below(range))`.
std::vector<std::string> Distinct(Rng* rng, size_t count, uint64_t range,
                                  const std::function<std::string(uint64_t)>&
                                      make) {
  std::set<uint64_t> seen;
  std::vector<std::string> out;
  while (out.size() < count && seen.size() < range) {
    const uint64_t v = rng->Below(range);
    if (seen.insert(v).second) out.push_back(make(v));
  }
  return out;
}

std::string Quote(const std::string& value) { return "'" + value + "'"; }

/// A query shape: its literal-taking text builder and the literals it is
/// instantiated with.
struct Shape {
  std::function<std::string(const std::string&)> text;
  std::vector<std::string> literals;
};

/// Orders the variants of `shapes` by interleaving the shapes (rank r takes
/// the next unused variant of shape r mod n), so the popularity ranks of a
/// Zipf draw fall on the same shapes for every seed; only the literals and
/// the data change.
std::vector<Request> Interleave(const std::vector<Shape>& shapes,
                                uint32_t parallelism) {
  std::vector<Request> out;
  size_t round = 0;
  bool added = true;
  while (added) {
    added = false;
    for (uint32_t s = 0; s < shapes.size(); ++s) {
      if (round >= shapes[s].literals.size()) continue;
      Request request;
      request.text = shapes[s].text(shapes[s].literals[round]);
      request.parallelism = parallelism;
      request.shape = s;
      out.push_back(std::move(request));
      added = true;
    }
    ++round;
  }
  return out;
}

Workload PointMix(uint64_t seed) {
  Workload w;
  w.name = "point_mix";
  w.docs.push_back({"auction.xml", AuctionXml(0.1, SeedOf(seed, 1)),
                    AuctionXml(0.1, SeedOf(seed, 11))});
  w.docs.push_back({"bib.xml", BibXml(500, SeedOf(seed, 2)),
                    BibXml(500, SeedOf(seed, 12))});
  w.clients = 2;
  w.pick = Pick::kZipf;
  w.cold_share = 0.05;
  w.probe_doc = "bib.xml";
  w.probe_writes = 60;
  w.setup_repeats = 31;
  w.replay_requests = 600;

  Rng rng(SeedOf(seed, 3));
  const auto person = [](uint64_t k) { return "person" + std::to_string(k); };
  const auto auction = [](uint64_t k) {
    return "open_auction" + std::to_string(k);
  };
  // At XMark scale 0.1: 200 people, 240 open auctions; bib years 1985-2004.
  std::vector<Shape> shapes = {
      {[](const std::string& v) {
         return "//person[@id = " + Quote(v) + "]/name";
       },
       Distinct(&rng, 20, 200, person)},
      {[](const std::string& v) {
         return "//item[payment = " + Quote(v) + "]/location";
       },
       {"Cash", "Creditcard"}},
      {[](const std::string& v) {
         return "doc(\"bib.xml\")//book[@year = " + Quote(v) + "]/title";
       },
       Distinct(&rng, 10, 20,
                [](uint64_t y) { return std::to_string(1985 + y); })},
      {[](const std::string& v) {
         return "for $p in doc(\"auction.xml\")//person where $p/@id = " +
                Quote(v) + " return $p/emailaddress";
       },
       Distinct(&rng, 12, 200, person)},
      {[](const std::string& v) {
         return "//open_auction[@id = " + Quote(v) + "]/current";
       },
       Distinct(&rng, 12, 240, auction)},
      {[](const std::string& v) {
         return "//person[address/city = " + Quote(v) + "]/name";
       },
       Distinct(&rng, 8, 8, [](uint64_t c) { return std::string(kCities[c]); })},
  };
  w.requests.hot = Interleave(shapes, 1);
  // Cold templates: each shape wrapped in an element constructor, which
  // the normalizer does not parameterize (raw mode), so the unique comment a
  // stream appends gives every cold request its own fingerprint.
  for (uint32_t s = 0; s < shapes.size(); ++s) {
    std::string inner = shapes[s].text(shapes[s].literals.back());
    if (inner[0] == '/') inner = "doc(\"auction.xml\")" + inner;
    Request request;
    request.text = "<c>{" + inner + "}</c>";
    request.shape = s;
    request.cold = true;
    w.requests.cold_templates.push_back(std::move(request));
  }
  return w;
}

Workload Analytic(uint64_t seed) {
  Workload w;
  w.name = "analytic";
  w.docs.push_back({"auction.xml", AuctionXml(1.0, SeedOf(seed, 1)),
                    AuctionXml(1.0, SeedOf(seed, 11))});
  w.clients = 1;
  w.pick = Pick::kRoundRobin;
  w.probe_doc = "auction.xml";
  w.probe_writes = 40;
  w.setup_repeats = 11;
  w.replay_requests = 66;

  Rng rng(SeedOf(seed, 3));
  const auto person = [](uint64_t k) { return "person" + std::to_string(k); };
  const auto literal = [](const std::string& text) {
    return [text](const std::string&) { return text; };
  };
  // At XMark scale 1.0: 2000 people; bidder increases span 1.5-26.5.
  std::vector<Shape> shapes = {
      // E1 Q2, Q4, Q5: structural twigs.
      {literal("/site/open_auctions/open_auction/bidder/increase"), {""}},
      {literal("//mailbox//text"), {""}},
      {literal("//person[address][phone]/name"), {""}},
      // E1 Q6-Q8: value-selective twigs.
      {[](const std::string& v) {
         return "//item[payment = " + Quote(v) + "]/location";
       },
       {"Cash", "Creditcard"}},
      {[](const std::string& v) {
         return "//person[@id = " + Quote(v) + "]";
       },
       Distinct(&rng, 3, 2000, person)},
      // One threshold: variants of very different cost within one shape
      // would leave the median of the mix in a gap between them.
      {literal("//open_auction[bidder/increase > 25]/current"), {""}},
      {[](const std::string& v) {
         return "//regions//item[location = " + Quote(v) + "]";
       },
       Distinct(&rng, 3, 8, [](uint64_t c) { return std::string(kCities[c]); })},
      // γ-constructing FLWOR.
      {literal("<out>{for $p in doc(\"auction.xml\")//person[profile] "
               "return <p>{$p/name}</p>}</out>"),
       {""}},
      // Two-variable value-join FLWOR.
      {[](const std::string& v) {
         return "for $p in doc(\"auction.xml\")//person[@id = " + Quote(v) +
                "], $c in doc(\"auction.xml\")//closed_auction "
                "where $c/buyer/@person = $p/@id return $c/price";
       },
       Distinct(&rng, 3, 2000, person)},
      // Aggregates.
      {literal("count(doc(\"auction.xml\")//item)"), {""}},
      {literal("avg(doc(\"auction.xml\")//closed_auction/price)"), {""}},
  };
  // Every request is a kQueryOpts frame with parallelism 2, so a run keeps
  // about three threads busy on a host of four shared cores.
  w.requests.hot = Interleave(shapes, 2);
  return w;
}

Workload StoreRw(uint64_t seed) {
  Workload w;
  w.name = "store_rw";
  for (uint64_t k = 0; k < 8; ++k) {
    w.docs.push_back({"bib" + std::to_string(k) + ".xml",
                      BibXml(1000, SeedOf(seed, 100 + k)),
                      BibXml(1000, SeedOf(seed, 200 + k))});
  }
  w.durable = true;
  w.clients = 2;
  w.pick = Pick::kUniform;
  w.writes_per_second = 5;
  w.setup_repeats = 31;
  w.replay_requests = 300;

  Rng rng(SeedOf(seed, 3));
  const auto book = [](uint64_t n) { return "b" + std::to_string(n); };
  std::vector<Shape> shapes;
  for (const Document& doc : w.docs) {
    const std::string scan = "doc(\"" + doc.name + "\")";
    shapes.push_back({[scan](const std::string& v) {
                        return scan + "//book[@id = " + Quote(v) + "]/title";
                      },
                      Distinct(&rng, 3, 1000, book)});
    shapes.push_back({[scan](const std::string& v) {
                        return scan + "//book[@year = " + Quote(v) + "]/price";
                      },
                      Distinct(&rng, 2, 20, [](uint64_t y) {
                        return std::to_string(1985 + y);
                      })});
    shapes.push_back({[scan](const std::string& v) {
                        return "for $b in " + scan +
                               "//book where $b/@id = " + Quote(v) +
                               " return $b/author";
                      },
                      Distinct(&rng, 1, 1000, book)});
  }
  // The default document (bib0.xml) through the XPath front end.
  shapes.push_back({[](const std::string& v) {
                      return "/bib/book[@id = " + Quote(v) + "]/title";
                    },
                    Distinct(&rng, 4, 1000, book)});
  w.requests.hot = Interleave(shapes, 1);
  return w;
}

}  // namespace

Result<Workload> MakeWorkload(std::string_view name, uint64_t seed) {
  Workload w;
  if (name == "point_mix") {
    w = PointMix(seed);
  } else if (name == "analytic") {
    w = Analytic(seed);
  } else if (name == "store_rw") {
    w = StoreRw(seed);
  } else {
    return Status::NotFound("unknown workload \"" + std::string(name) + "\"");
  }
  w.seed = seed;
  for (const Document& doc : w.docs) w.xml_bytes += doc.xml.size();
  return w;
}

Status LoadAll(const Workload& workload, api::Database* db) {
  for (const Document& doc : workload.docs) {
    XMLQ_RETURN_IF_ERROR(db->LoadDocument(doc.name, doc.xml));
  }
  return Status::Ok();
}

Status CreateStore(const Workload& workload, const std::string& dir) {
  std::filesystem::remove_all(dir);
  api::Database db;
  XMLQ_RETURN_IF_ERROR(db.Attach(dir).status());
  for (const Document& doc : workload.docs) {
    XMLQ_RETURN_IF_ERROR(db.LoadDocument(doc.name, doc.xml));
    XMLQ_RETURN_IF_ERROR(db.Persist(doc.name));
  }
  return Status::Ok();
}

Status ComputeAnswers(Workload* w) {
  api::QueryOptions reference;
  reference.auto_optimize = false;
  reference.strategy = exec::PatternStrategy::kNaive;
  reference.use_plan_cache = false;
  reference.parallelism = 1;

  std::vector<Request*> all;
  for (Request& r : w->requests.hot) all.push_back(&r);
  for (Request& r : w->requests.cold_templates) all.push_back(&r);
  w->answers.assign(all.size(), {});
  // A writer swaps documents between their two versions; every version it
  // can serve is a correct answer.
  const int versions = w->writes_per_second > 0 ? 2 : 1;
  for (int version = 0; version < versions; ++version) {
    api::Database db;
    for (const Document& doc : w->docs) {
      XMLQ_RETURN_IF_ERROR(db.LoadDocument(
          doc.name, version == 0 ? doc.xml : doc.variant_xml));
    }
    for (size_t i = 0; i < all.size(); ++i) {
      Request& request = *all[i];
      request.answer = static_cast<uint32_t>(i);
      auto result = db.Query(request.text, reference);
      if (!result.ok()) {
        return Status::Internal("reference engine failed on \"" +
                                request.text +
                                "\": " + result.status().ToString());
      }
      const uint64_t digest = Digest(api::Database::ToXml(*result));
      std::vector<uint64_t>& accepted = w->answers[i];
      if (std::find(accepted.begin(), accepted.end(), digest) ==
          accepted.end()) {
        accepted.push_back(digest);
      }
      if (request.cold && version == 0) {
        // A cold request is its template plus a comment: same answer.
        auto tagged = db.Query(request.text + " (: check :)", reference);
        if (!tagged.ok() ||
            Digest(api::Database::ToXml(*tagged)) != digest) {
          return Status::Internal("cold template answer changes with a "
                                  "comment: \"" + request.text + "\"");
        }
      }
    }
  }
  return Status::Ok();
}

RequestStream::RequestStream(const Workload& workload, uint32_t client,
                             uint32_t epoch)
    : workload_(workload),
      cold_tag_(" (: e" + std::to_string(epoch) + " c" +
                std::to_string(client) + " n"),
      rng_(Rng::Stream(workload.seed ^ 0xC11E47, client)) {
  const size_t n = workload.requests.hot.size();
  if (workload.pick == Pick::kZipf) {
    double total = 0;
    zipf_cdf_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t shape = workload.requests.hot[i].shape;
    if (by_shape_.size() <= shape) by_shape_.resize(shape + 1);
    by_shape_[shape].push_back(i);
  }
}

const Request& RequestStream::Next() {
  const RequestSet& set = workload_.requests;
  if (workload_.cold_share > 0 && rng_.Chance(workload_.cold_share)) {
    const Request& tmpl =
        set.cold_templates[rng_.Below(set.cold_templates.size())];
    cold_ = tmpl;
    cold_.text += cold_tag_ + std::to_string(cold_counter_++) + " :)";
    return cold_;
  }
  switch (workload_.pick) {
    case Pick::kZipf: {
      const double u = rng_.NextDouble();
      const size_t i = static_cast<size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin());
      return set.hot[std::min(i, set.hot.size() - 1)];
    }
    case Pick::kRoundRobin: {
      const std::vector<uint32_t>& variants =
          by_shape_[position_++ % by_shape_.size()];
      return set.hot[variants[rng_.Below(variants.size())]];
    }
    case Pick::kUniform:
      break;
  }
  return set.hot[rng_.Below(set.hot.size())];
}

}  // namespace xmlq::perfbench

// The 74-query cross-engine oracle workload, shared by the differential
// suites (every τ engine must agree byte-for-byte, and rewrites on must
// agree with rewrites off) and the replication suite (a caught-up follower
// must answer every one of these byte-identically to its primary). Keeping
// one definition ensures "the oracle" means the same thing in every place —
// a follower that passes it serves exactly what the primary serves.

#ifndef XMLQ_TESTS_ORACLE_QUERIES_H_
#define XMLQ_TESTS_ORACLE_QUERIES_H_

namespace xmlq::tests {

/// XPath workload over the XMark-style auction document: linear chains,
/// twigs, wildcards, attribute steps, value predicates, existence
/// predicates, deep //. 30 paths.
inline constexpr const char* kAuctionXPaths[] = {
    "/site/people/person",
    "/site/people/person/name",
    "//person",
    "//person/name",
    "//person[address]/name",
    "//person[address][phone]/name",
    "//person[phone]/emailaddress",
    "//person/profile/education",
    "//person[profile/education]/name",
    "//person/profile[@income]",
    "//person[@id = 'person3']/name",
    "//item",
    "//item/location",
    "//item[payment = 'Cash']/location",
    "//item[quantity = '1']/name",
    "//item/mailbox/mail",
    "//item/mailbox/mail/text",
    "//item[mailbox/mail]/name",
    "//open_auction/bidder",
    "//open_auction[bidder]/current",
    "//closed_auction/price",
    "//closed_auction[price]/itemref",
    "//category/name",
    "//category/description/text",
    "/site/regions/*/item/name",
    "//regions//item[location = 'Dallas']",
    "//*[@id]/name",
    "//person/address/city",
    "//mail[date]/from",
    "//profile[interest]/gender",
};

/// XQuery workload over the same auction document (FLWOR, aggregates,
/// ordering, element construction). 10 queries.
inline constexpr const char* kAuctionXQueries[] = {
    "for $p in doc(\"auction.xml\")//person[address] return $p/name",
    "for $p in doc(\"auction.xml\")//person "
    "where count($p/phone) > 0 return $p/emailaddress",
    "count(doc(\"auction.xml\")//item)",
    "for $i in doc(\"auction.xml\")//item "
    "where $i/payment = 'Cash' return $i/location",
    "for $a in doc(\"auction.xml\")//open_auction "
    "where count($a/bidder) > 1 return $a/current",
    "avg(doc(\"auction.xml\")//closed_auction/price)",
    "for $c in doc(\"auction.xml\")//category "
    "order by $c/name return $c/name",
    "<out>{for $p in doc(\"auction.xml\")//person[profile] "
    "return <p>{$p/name}</p>}</out>",
    "for $m in doc(\"auction.xml\")//mailbox/mail "
    "where $m/date return $m/from",
    "sum(doc(\"auction.xml\")//closed_auction/quantity)",
};

/// Fixed XPath workload over the random-tree generator's t0..t4 / a0..a2
/// vocabulary; the seed varies the document, not the workload. 14 paths.
inline constexpr const char* kRandomTreeXPaths[] = {
    "//t0",
    "//t0/t1",
    "//t0//t2",
    "/t0/*",
    "//t1[t2]",
    "//t0[t1][t2]",
    "//t2[@a0]",
    "//t3[@a1]/t0",
    "//t1[. < 40]",
    "//t0[t1 = '7']",
    "//*[t4]",
    "//t2/t3/t4",
    "//t0[t2]//t1",
    "//t4[@a2][t0]",
};

/// A FLWOR whose `where` clause unnests into τ predicates (rewrite R6) and
/// the predicate path that must give the same bytes. The values compare
/// the same under the XPath predicate typing and under general comparison
/// (DESIGN.md, rewrite R6), so the pairs agree. `keeps_where`: a conjunct R6
/// cannot fold stays per-tuple.
struct FlworPredicatePair {
  const char* flwor;
  const char* predicate;
  bool keeps_where = false;
};

/// FLWOR/predicate pairs over the auction document and a bibliography
/// registered as "bib.xml" (ids b0.., years 1985-2004, prices 10-150).
/// 10 pairs, 20 queries.
inline constexpr FlworPredicatePair kFlworPredicatePairs[] = {
    // The store_rw and point_mix point-lookup shapes.
    {"for $b in doc(\"bib.xml\")//book where $b/@id = 'b7' "
     "return $b/author",
     "doc(\"bib.xml\")//book[@id = 'b7']/author"},
    {"for $p in doc(\"auction.xml\")//person where $p/@id = 'person3' "
     "return $p/emailaddress",
     "doc(\"auction.xml\")//person[@id = 'person3']/emailaddress"},
    // The integration_test shapes; exists() stays a per-tuple conjunct.
    {"for $a in doc(\"auction.xml\")//open_auction "
     "where $a/current > 150 and exists($a/bidder) return $a/current",
     "doc(\"auction.xml\")//open_auction[current > 150][bidder]/current",
     true},
    {"for $p in doc(\"auction.xml\")//person "
     "where $p/profile/education = 'Graduate School' return $p/name",
     "doc(\"auction.xml\")//person[profile/education = 'Graduate School']"
     "/name"},
    {"count(for $i in doc(\"auction.xml\")//item "
     "where $i/payment = 'Cash' return $i)",
     "count(doc(\"auction.xml\")//item[payment = 'Cash'])"},
    // A number-literal range.
    {"for $b in doc(\"bib.xml\")//book "
     "where $b/price >= 30 and $b/price < 80 return $b/title",
     "doc(\"bib.xml\")//book[price >= 30][price < 80]/title"},
    // Existence conjuncts, one through a descendant step.
    {"for $p in doc(\"auction.xml\")//person "
     "where $p/address/city and $p/phone return $p/name",
     "doc(\"auction.xml\")//person[address/city][phone]/name"},
    {"for $i in doc(\"auction.xml\")//item "
     "where $i//mail/from return $i/name",
     "doc(\"auction.xml\")//item[mailbox/mail/from]/name"},
    // The bound item itself compared, and a numeric attribute.
    {"for $c in doc(\"auction.xml\")//closed_auction/price "
     "where $c > 100 return $c",
     "doc(\"auction.xml\")//closed_auction/price[. > 100]"},
    {"for $b in doc(\"bib.xml\")//book where $b/@year <= 1990 "
     "return $b/title",
     "doc(\"bib.xml\")//book[@year <= 1990]/title"},
};

}  // namespace xmlq::tests

#endif  // XMLQ_TESTS_ORACLE_QUERIES_H_

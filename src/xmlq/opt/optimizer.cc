#include "xmlq/opt/optimizer.h"

#include <algorithm>

namespace xmlq::opt {

using algebra::PatternGraph;
using algebra::VertexId;
using exec::PatternStrategy;

StrategyChoice ChooseStrategy(const Synopsis& synopsis,
                              const xml::NamePool& pool,
                              const PatternGraph& pattern) {
  const CardinalityEstimate est = EstimatePattern(synopsis, pool, pattern);
  bool linear = true;
  for (VertexId v = 0; v < pattern.VertexCount(); ++v) {
    if (pattern.vertex(v).children.size() > 1) linear = false;
  }
  StrategyChoice choice;
  for (const PatternStrategy strategy :
       {PatternStrategy::kNok, PatternStrategy::kTwigStack,
        PatternStrategy::kBinaryJoin, PatternStrategy::kNaive,
        PatternStrategy::kPathStack}) {
    // PathStack runs branching patterns on TwigStack: not an alternative.
    if (strategy == PatternStrategy::kPathStack && !linear) continue;
    choice.alternatives.emplace_back(
        strategy,
        Charge(EstimateWork(strategy, synopsis, pool, pattern, est)));
  }
  const auto best = std::min_element(
      choice.alternatives.begin(), choice.alternatives.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  choice.strategy = best->first;
  choice.cost = best->second;
  choice.explanation = "selected ";
  choice.explanation += exec::PatternStrategyName(choice.strategy);
  choice.explanation += " (cost " + std::to_string(choice.cost) + ") among:";
  for (const auto& [strategy, cost] : choice.alternatives) {
    choice.explanation += " ";
    choice.explanation += exec::PatternStrategyName(strategy);
    choice.explanation += "=" + std::to_string(cost);
  }
  return choice;
}

std::vector<VertexId> ChooseJoinOrder(const Synopsis& synopsis,
                                      const xml::NamePool& pool,
                                      const PatternGraph& pattern) {
  const CardinalityEstimate est = EstimatePattern(synopsis, pool, pattern);
  std::vector<VertexId> order;
  for (VertexId v = 1; v < pattern.VertexCount(); ++v) order.push_back(v);
  // Smaller joins first: rank an edge by the smaller of its two stream
  // sizes weighted by the path-restricted cardinality of its target.
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const auto rank = [&](VertexId v) {
      const VertexId p = pattern.vertex(v).parent;
      return std::min(est.stream_size[p], est.stream_size[v]) +
             est.path_cardinality[v];
    };
    return rank(a) < rank(b);
  });
  return order;
}

}  // namespace xmlq::opt

#ifndef XMLQ_OPT_CARDINALITY_H_
#define XMLQ_OPT_CARDINALITY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "xmlq/algebra/pattern_graph.h"
#include "xmlq/opt/synopsis.h"
#include "xmlq/xml/name_pool.h"

namespace xmlq::opt {

/// Selectivity charged for a value predicate the value index cannot count:
/// a wildcard vertex, a string ordering comparison, or a synopsis built
/// without a value index.
inline constexpr double kUnindexedSelectivity = 0.1;

/// Estimated cardinalities for one pattern over one document.
struct CardinalityEstimate {
  /// Estimated number of nodes bound to each vertex in complete embeddings:
  /// the vertex's root-path count from the synopsis, times its predicate
  /// selectivity, times the chance that its own branches and its
  /// ancestors' other branches embed (independence assumed).
  std::vector<double> vertex_cardinality;
  /// The vertex's root-path count times the predicate selectivities of the
  /// vertex and its ancestors, ignoring every branch constraint.
  std::vector<double> path_cardinality;
  /// Nodes on each vertex's root path, ignoring every value predicate (the
  /// sum of its synopsis nodes' counts; 1 for the root).
  std::vector<double> root_path_size;
  /// Size of the per-tag stream a join-based matcher scans for each vertex.
  std::vector<double> stream_size;
  /// Fraction of each vertex's tag population that satisfies its value
  /// predicates (1 without predicates), from value-index counts.
  std::vector<double> selectivity;
  /// Synopsis nodes each vertex's root path maps to.
  std::vector<std::vector<uint32_t>> paths;
  /// Estimate for the output vertex (==vertex_cardinality[output]).
  double output_cardinality = 0;
};

/// Estimates cardinalities by embedding the pattern into the path synopsis:
/// exact for predicate-free single paths (the synopsis is a lossless
/// structural summary); value predicates are counted in the value index.
CardinalityEstimate EstimatePattern(const Synopsis& synopsis,
                                    const xml::NamePool& pool,
                                    const algebra::PatternGraph& pattern);

/// The synopsis nodes reached from `from` by one step to `vertex` (its
/// incoming axis and node test), sorted and duplicate-free.
std::vector<uint32_t> EmbedStep(const Synopsis& synopsis,
                                const xml::NamePool& pool,
                                std::span<const uint32_t> from,
                                const algebra::PatternVertex& vertex);

}  // namespace xmlq::opt

#endif  // XMLQ_OPT_CARDINALITY_H_

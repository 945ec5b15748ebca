#ifndef GPAR_GRAPH_GENERATOR_H_
#define GPAR_GRAPH_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace gpar {

/// Specification of a synthetic labeled social graph.
///
/// The generator plants community structure so that graph-pattern
/// association rules actually hold with measurable confidence: persons in a
/// community share item preferences, and social edges are mostly
/// intra-community, so "x--friend-->x', x'--likes-->y:kind" genuinely
/// correlates with "x--likes-->y':kind". This is the behaviour-preserving
/// substitute for the Pokec / Google+ snapshots (see README.md,
/// "Reproduction substitutions").
struct SocialGraphSpec {
  /// One item universe (music genres, employers, cities, ...): `num_kinds`
  /// distinct node labels, each carried by `items_per_kind` item nodes, and
  /// one edge label connecting persons to items.
  struct ItemDomain {
    std::string kind_prefix;     ///< item labels are "<prefix><i>"
    uint32_t num_kinds = 10;
    uint32_t items_per_kind = 4;
    std::string edge_label;
    uint32_t kinds_per_community = 2;  ///< preferred kinds per community
    double adoption_prob = 0.7;  ///< P(person adopts a preferred kind)
    double noise_prob = 0.05;    ///< P(person adopts a uniformly random kind)
    bool single_kind_label = false;  ///< all items share one label (= prefix)
  };

  uint32_t num_persons = 10000;
  std::string person_label = "user";
  double social_avg_degree = 8.0;
  std::vector<std::string> social_edge_labels = {"follow", "friend"};
  double social_zipf_s = 1.0;  ///< skew of the social edge-label mix
  uint32_t num_communities = 50;
  double intra_community_prob = 0.8;
  double degree_zipf_s = 1.2;  ///< skew of person degree targets
  std::vector<ItemDomain> domains;
  uint64_t seed = 42;
};

/// Generates a graph from an explicit spec.
Graph MakeSocialGraph(const SocialGraphSpec& spec);

/// Pokec-like graph: 269 node labels (user + many fine-grained item kinds),
/// 11 edge labels, skewed degrees. `scale` multiplies the person count
/// (scale 1 ~ 2k persons, ~20k nodes+edges).
Graph MakePokecLike(uint32_t scale, uint64_t seed = 42);

/// Google+-like graph: 5 node labels (person, employer, school, major,
/// city), 5 edge labels, coarser selectivity than Pokec-like (which is what
/// makes its curves slower in the paper's Figures 5(b)/(d)/(i)/(k)).
Graph MakeGPlusLike(uint32_t scale, uint64_t seed = 42);

/// Uniform synthetic graph per the paper's generator (Section 6): |V| nodes,
/// ~|E| edges, labels drawn from an alphabet of `num_labels` (default 100),
/// with Zipfian label skew and heavy-tailed degrees.
Graph MakeSynthetic(uint32_t num_nodes, uint64_t num_edges,
                    uint32_t num_labels = 100, uint64_t seed = 42);

}  // namespace gpar

#endif  // GPAR_GRAPH_GENERATOR_H_

#ifndef E2EBENCH_INPUTS_HPP
#define E2EBENCH_INPUTS_HPP
// Seeded input generation. Every input the program receives is derived
// from the --seed argument through a named stream, so the same seed gives
// the same inputs and a different seed gives different ones. Sizes are
// constants of each workload, never read from ECL_SCALE or other
// environment variables.
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/digraph.hpp"

namespace e2e {

using ecl::graph::Digraph;

struct NamedGraph {
  std::string name;
  Digraph graph;
};

/// Independent seed for one named input stream of a run.
std::uint64_t stream_seed(std::uint64_t seed, std::string_view stream);

/// One Table 2 mesh group, scaled to `scale` of its paper element count,
/// with `ordinates` sweep directions taken evenly spaced from the group's
/// full ordinate set, starting at an offset drawn from the seed.
struct MeshPick {
  std::string group;
  double scale = 0.0;
  unsigned ordinates = 0;
};

/// Wall time spent in the mesh layer while building inputs.
struct MeshTimes {
  double generate_s = 0.0;      ///< mesh generation (geometry + faces)
  double sweep_graphs_s = 0.0;  ///< sweep-graph construction per ordinate
};

/// Sweep graphs for the picked groups, in pick order; names are
/// "<group>/o<ordinate index>".
std::vector<NamedGraph> mesh_sweep_graphs(const std::vector<MeshPick>& picks, std::uint64_t seed,
                                          MeshTimes& times);

/// The Table 3 stand-in named `name`, scaled to `scale` of its paper vertex
/// count and generated from the run's seed (not the name-hashed seed of
/// ecl::bench::power_law_graph).
Digraph power_law_graph(const std::string& name, double scale, std::uint64_t seed);

/// Names of the ten Table 3 profiles, in table order.
std::vector<std::string> power_law_names();

}  // namespace e2e

#endif  // E2EBENCH_INPUTS_HPP

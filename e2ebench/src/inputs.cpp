#include "inputs.hpp"

#include <algorithm>
#include <stdexcept>

#include "bench.hpp"
#include "bench_support/workloads.hpp"
#include "graph/generators.hpp"
#include "mesh/ordinates.hpp"
#include "mesh/suite.hpp"
#include "mesh/sweep_graph.hpp"
#include "support/rng.hpp"

namespace e2e {

std::uint64_t stream_seed(std::uint64_t seed, std::string_view stream) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the stream name
  for (const char c : stream) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  std::uint64_t state = seed ^ h;
  return ecl::splitmix64(state);
}

std::vector<NamedGraph> mesh_sweep_graphs(const std::vector<MeshPick>& picks, std::uint64_t seed,
                                          MeshTimes& times) {
  const auto suite = ecl::mesh::large_mesh_suite();
  std::vector<NamedGraph> graphs;
  for (const MeshPick& pick : picks) {
    const ecl::mesh::MeshGroup* group = ecl::mesh::find_group(suite, pick.group);
    if (group == nullptr) throw std::invalid_argument("unknown mesh group " + pick.group);
    auto t0 = Clock::now();
    const auto elements = std::max<std::size_t>(
        256, static_cast<std::size_t>(static_cast<double>(group->paper_elements) * pick.scale));
    const ecl::mesh::Mesh mesh = group->generate(elements);
    times.generate_s += seconds_since(t0);

    t0 = Clock::now();
    const unsigned total = group->num_ordinates;
    const auto all = ecl::mesh::fibonacci_ordinates(total);
    const unsigned count = std::min(pick.ordinates, total);
    const unsigned stride = total / count;
    const auto start = static_cast<unsigned>(stream_seed(seed, "ordinates/" + pick.group) % total);
    for (unsigned i = 0; i < count; ++i) {
      const unsigned o = (start + i * stride) % total;
      graphs.push_back({pick.group + "/o" + std::to_string(o),
                        ecl::mesh::build_sweep_graph(mesh, all[o])});
    }
    times.sweep_graphs_s += seconds_since(t0);
  }
  return graphs;
}

std::vector<std::string> power_law_names() {
  std::vector<std::string> names;
  for (const auto& spec : ecl::bench::power_law_specs()) names.push_back(spec.name);
  return names;
}

Digraph power_law_graph(const std::string& name, double scale, std::uint64_t seed) {
  const auto specs = ecl::bench::power_law_specs();
  const auto it = std::find_if(specs.begin(), specs.end(),
                               [&](const auto& spec) { return spec.name == name; });
  if (it == specs.end()) throw std::invalid_argument("unknown power-law profile " + name);
  // Same Table 3 shape as ecl::bench::power_law_graph; only the size and
  // the seed come from the benchmark.
  const auto n = static_cast<ecl::graph::vid>(std::max<double>(
      512.0, static_cast<double>(it->paper_vertices) * scale));
  ecl::graph::SccProfile profile;
  profile.num_vertices = n;
  profile.avg_degree = it->avg_degree;
  profile.giant_fraction = it->giant_fraction;
  profile.size2_sccs = static_cast<ecl::graph::vid>(it->size2_fraction * n);
  profile.mid_sccs = static_cast<ecl::graph::vid>(it->mid_fraction * n);
  profile.dag_depth = static_cast<ecl::graph::vid>(std::min<std::size_t>(it->dag_depth, n / 4 + 1));
  profile.power_law = true;
  ecl::Rng rng(stream_seed(seed, "powerlaw/" + name));
  return ecl::graph::scc_profile_graph(profile, rng);
}

}  // namespace e2e

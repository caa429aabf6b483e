// Hot-path differential suite (ctest label: perf).
//
// The DESIGN.md §10 levers — chunked worklist reservation, frontier-gated
// propagation, padded signature slots — are pure performance transforms:
// every one of the 8 lever combinations must produce BIT-IDENTICAL labels
// to the seed (all-levers-off) configuration, on every graph family, both
// fault-free and under seeded chaos plans. Identity of raw labels (not just
// partitions) holds because ECL-SCC's max-ID labeling is a function of the
// graph alone: whichever schedule the levers induce, the converged
// signatures are the unique fixpoint and every component is named by its
// maximum member.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/test_graphs.hpp"
#include "core/ecl_scc.hpp"
#include "core/tarjan.hpp"
#include "device/fault.hpp"

namespace ecl::test {
namespace {

using device::FaultPlan;
using scc::EclOptions;
using scc::SccResult;

struct Family {
  std::string name;
  Digraph graph;
};

std::vector<Family> families() {
  std::vector<Family> fs;
  fs.push_back({"cycle_chain_12x6", graph::cycle_chain(12, 6)});
  fs.push_back({"grid_dag_10x10", graph::grid_dag(10, 10)});
  {
    Rng rng(0x40710'01);
    fs.push_back({"er_n150_m450", graph::random_digraph(150, 450, rng)});
  }
  {
    Rng rng(0x40710'02);
    graph::SccProfile profile;
    profile.num_vertices = 200;
    profile.giant_fraction = 0.4;
    profile.size2_sccs = 10;
    profile.mid_sccs = 3;
    profile.dag_depth = 6;
    fs.push_back({"powerlaw_giant", graph::scc_profile_graph(profile, rng)});
  }
  return fs;
}

EclOptions lever_combo(unsigned mask) {
  EclOptions opts = scc::ecl_hotpath_levers_off();
  opts.chunked_worklist = mask & 1;
  opts.frontier_gating = mask & 2;
  opts.padded_signatures = mask & 4;
  return opts;
}

std::string combo_name(unsigned mask) {
  return std::string(mask & 1 ? "chunk" : "-") + "/" + (mask & 2 ? "frontier" : "-") + "/" +
         (mask & 4 ? "pad" : "-");
}

device::DeviceProfile hotpath_profile(FaultPlan plan = {}) {
  device::DeviceProfile profile = device::tiny_profile();  // zero launch overhead
  profile.fault_plan = plan;
  return profile;
}

TEST(HotpathDifferential, AllLeverCombosMatchSeedLabelsBitForBit) {
  for (const auto& family : families()) {
    device::Device dev(hotpath_profile());
    const SccResult seed = scc::ecl_scc(family.graph, dev, lever_combo(0));
    ASSERT_TRUE(seed.ok()) << family.name;
    const SccResult oracle = scc::tarjan(family.graph);
    ASSERT_TRUE(scc::same_partition(seed.labels, oracle.labels)) << family.name;

    for (unsigned mask = 1; mask < 8; ++mask) {
      const SccResult r = scc::ecl_scc(family.graph, dev, lever_combo(mask));
      ASSERT_TRUE(r.ok()) << family.name << " " << combo_name(mask);
      EXPECT_EQ(r.labels, seed.labels)
          << family.name << ": combo " << combo_name(mask)
          << " changed the labeling (levers must be pure perf transforms)";
      EXPECT_EQ(r.num_components, seed.num_components) << family.name;
    }
  }
}

TEST(HotpathDifferential, FrontierGatingSkipsEdgesAndCountsThem) {
  // On a deep DAG the gate must actually fire (quiescent regions appear as
  // the fixpoint spreads) and the savings must be visible in the metrics.
  // The gate can only skip once Phase 2 runs three or more rounds. The §15
  // local search and async in-block iteration both let this grid converge
  // in fewer (the latter depending on scheduling), so both are pinned off
  // in both arms: synchronous rounds make the round count a fixed
  // property of the input.
  const auto g = graph::grid_dag(12, 12);
  device::Device dev(hotpath_profile());
  EclOptions gated_opts = lever_combo(2);
  gated_opts.local_search = false;
  gated_opts.async_phase2 = false;
  EclOptions ungated_opts = lever_combo(0);
  ungated_opts.local_search = false;
  ungated_opts.async_phase2 = false;
  const SccResult gated = scc::ecl_scc(g, dev, gated_opts);
  ASSERT_TRUE(gated.ok());
  EXPECT_GT(gated.metrics.edges_skipped, 0u);
  EXPECT_GT(gated.metrics.frontier_rounds, 0u);
  const SccResult ungated = scc::ecl_scc(g, dev, ungated_opts);
  EXPECT_EQ(ungated.metrics.edges_skipped, 0u);
  EXPECT_EQ(ungated.metrics.frontier_rounds, 0u);
}

TEST(HotpathDifferential, ChaosPlansPreserveLabelsAcrossLevers) {
  // Same seeded fault plan, levers on vs off: the fault draw sequences
  // diverge (a gated run makes fewer stores), but the converged labeling
  // may not. Recovered runs (serial fallback) keep the max-ID convention,
  // so raw labels stay comparable even when a plan trips the watchdog.
  for (const auto& family : families()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const FaultPlan plan = FaultPlan::from_seed(seed);
      device::Device dev_on(hotpath_profile(plan));
      device::Device dev_off(hotpath_profile(plan));
      const SccResult on = scc::ecl_scc(family.graph, dev_on, EclOptions{});
      const SccResult off = scc::ecl_scc(family.graph, dev_off, lever_combo(0));
      const std::string ctx = family.name + " " + plan.describe();
      ASSERT_EQ(on.labels.size(), family.graph.num_vertices()) << ctx;
      ASSERT_EQ(off.labels.size(), family.graph.num_vertices()) << ctx;
      // Default stall policy completes every labeling (serial fallback).
      EXPECT_EQ(on.labels, off.labels) << ctx;
      const SccResult oracle = scc::tarjan(family.graph);
      EXPECT_TRUE(scc::same_partition(on.labels, oracle.labels)) << ctx;
    }
  }
}

TEST(HotpathDifferential, ChunkedPhase3RemovesExactlyTheSameEdges) {
  // The chunked appender must commit the same surviving edge multiset as
  // the per-edge path: compare worklist shrinkage metrics across a run.
  for (const auto& family : families()) {
    device::Device dev(hotpath_profile());
    EclOptions chunked = lever_combo(1);
    EclOptions plain = lever_combo(0);
    const SccResult a = scc::ecl_scc(family.graph, dev, chunked);
    const SccResult b = scc::ecl_scc(family.graph, dev, plain);
    ASSERT_TRUE(a.ok() && b.ok()) << family.name;
    EXPECT_EQ(a.metrics.edges_removed, b.metrics.edges_removed) << family.name;
    EXPECT_EQ(a.metrics.outer_iterations, b.metrics.outer_iterations) << family.name;
    EXPECT_EQ(a.metrics.edges_dropped, 0u) << family.name;
  }
}

}  // namespace
}  // namespace ecl::test

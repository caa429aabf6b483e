// High-diameter differential suite (ctest label: perf).
//
// The DESIGN.md §15 levers — chain chasing, the hash-bag sparse frontier —
// are pure performance transforms: every lever combination must produce
// BIT-IDENTICAL labels to the PR-5 baseline (§10 + §11 on, §15 off), on
// every graph family, fault-free and under seeded chaos plans. Identity of
// raw labels holds because ECL-SCC's max-ID labeling is a function of the
// graph alone: a chase only re-applies the same monotone per-edge rule
// early, and a sparse round visits a superset of the edges the dense gate
// would have moved.
//
// FB-Trim's §15 analogues (multi-pivot sets, trim chasing) change WHICH
// pivot names a component, so they are checked for partition identity
// against Tarjan rather than raw-label identity.
//
// The suite also pins the chain chaser's termination guarantees: self-loop
// vertices, 2-cycles, pure cycles (one-lap saturation), and chains longer
// than chain_cap (budget exhaustion) must all converge, with the recorded
// max_chain_len never exceeding the cap.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/test_graphs.hpp"
#include "core/ecl_omp.hpp"
#include "core/ecl_scc.hpp"
#include "core/fb_trim.hpp"
#include "core/tarjan.hpp"
#include "device/fault.hpp"
#include "graph/edge_list.hpp"

namespace ecl::test {
namespace {

using device::FaultPlan;
using scc::EclOptions;
using scc::FbOptions;
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

/// Chain-heavy boundary families aimed specifically at the chaser's
/// termination cases.
std::vector<Family> chain_families() {
  std::vector<Family> fs;
  {
    // Pure directed cycle longer than the default chain_cap (64): a chase
    // entering the cycle must stop at the budget or the one-lap guard.
    EdgeList e;
    for (vid v = 0; v < 200; ++v) e.add(v, (v + 1) % 200);
    fs.push_back({"cycle_200", Digraph(200, e)});
  }
  {
    // Path of 200 edges (every interior vertex degree-1 both ways) feeding
    // a small cycle: the deepest possible chain for the budget to cut.
    EdgeList e;
    for (vid v = 0; v < 200; ++v) e.add(v, v + 1);
    for (vid v = 200; v < 205; ++v) e.add(v, v + 1);
    e.add(205, 200);
    fs.push_back({"path_200_into_cycle", Digraph(206, e)});
  }
  {
    // Self-loops on a path: succ/pred maps see the loop edge and the path
    // edge, so every vertex is kMany — the chaser must simply decline.
    EdgeList e;
    for (vid v = 0; v < 50; ++v) e.add(v, v);
    for (vid v = 0; v + 1 < 50; ++v) e.add(v, v + 1);
    fs.push_back({"self_loop_path_50", Digraph(50, e)});
  }
  {
    // Chain of 2-cycles: u <-> u+1 pairs linked in a path. Forward and
    // backward chases meet their own starts after one hop.
    EdgeList e;
    for (vid v = 0; v + 1 < 60; v += 2) {
      e.add(v, v + 1);
      e.add(v + 1, v);
      if (v + 2 < 60) e.add(v + 1, v + 2);
    }
    fs.push_back({"two_cycle_chain_30", Digraph(60, e)});
  }
  return fs;
}

/// The §15 lever square on top of the full PR-5 configuration: bit 0 =
/// chain chasing, bit 1 = hash-bag frontier. Mask 0 is the
/// `ecl-loadbalance` baseline configuration; mask 3 is the default.
EclOptions lever_combo(unsigned mask) {
  EclOptions opts = scc::ecl_highdiameter_levers_off();
  opts.chain_chasing = mask & 1;
  opts.hashbag_frontier = mask & 2;
  return opts;
}

std::string combo_name(unsigned mask) {
  return std::string(mask & 1 ? "chain" : "-") + "/" + (mask & 2 ? "hashbag" : "-");
}

device::DeviceProfile highdiameter_profile(FaultPlan plan = {}) {
  device::DeviceProfile profile = device::tiny_profile();  // zero launch overhead
  profile.fault_plan = plan;
  return profile;
}

TEST(HighdiameterDifferential, AllLeverCombosMatchBaselineLabelsBitForBit) {
  for (const auto& family : families()) {
    device::Device dev(highdiameter_profile(), /*workers=*/4);
    const SccResult baseline = scc::ecl_scc(family.graph, dev, lever_combo(0));
    ASSERT_TRUE(baseline.ok()) << family.name;
    const SccResult oracle = scc::tarjan(family.graph);
    ASSERT_TRUE(scc::same_partition(baseline.labels, oracle.labels)) << family.name;

    for (unsigned mask = 1; mask < 4; ++mask) {
      const SccResult r = scc::ecl_scc(family.graph, dev, lever_combo(mask));
      ASSERT_TRUE(r.ok()) << family.name << " " << combo_name(mask);
      EXPECT_EQ(r.labels, baseline.labels)
          << family.name << ": combo " << combo_name(mask)
          << " changed the labeling (levers must be pure perf transforms)";
      EXPECT_EQ(r.num_components, baseline.num_components) << family.name;
    }
  }
}

TEST(HighdiameterDifferential, CombosAlsoMatchTheClassicSeedConfiguration) {
  // Transitively: the all-on default must also agree with the everything-
  // off seed (ecl-classic), pinning the whole §10 + §11 + §15 lever stack
  // to one labeling.
  for (const auto& family : families()) {
    device::Device dev(highdiameter_profile(), /*workers=*/4);
    const SccResult classic = scc::ecl_scc(family.graph, dev, scc::ecl_hotpath_levers_off());
    ASSERT_TRUE(classic.ok()) << family.name;
    const SccResult all_on = scc::ecl_scc(family.graph, dev, EclOptions{});
    ASSERT_TRUE(all_on.ok()) << family.name;
    EXPECT_EQ(all_on.labels, classic.labels) << family.name;
  }
}

TEST(HighdiameterDifferential, ChaosPlansPreserveLabelsAcrossLevers) {
  // Same seeded fault plan, each §15 combo vs the loadbalance baseline: the
  // fault draw sequences diverge, but the converged labeling may not.
  for (const auto& family : families()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const FaultPlan plan = FaultPlan::from_seed(seed);
      device::Device dev_off(highdiameter_profile(plan), /*workers=*/4);
      const SccResult off = scc::ecl_scc(family.graph, dev_off, lever_combo(0));
      ASSERT_EQ(off.labels.size(), family.graph.num_vertices());
      for (unsigned mask = 1; mask < 4; ++mask) {
        device::Device dev_on(highdiameter_profile(plan), /*workers=*/4);
        const SccResult on = scc::ecl_scc(family.graph, dev_on, lever_combo(mask));
        const std::string ctx = family.name + " " + combo_name(mask) + " " + plan.describe();
        ASSERT_EQ(on.labels.size(), family.graph.num_vertices()) << ctx;
        EXPECT_EQ(on.labels, off.labels) << ctx;
      }
      const SccResult oracle = scc::tarjan(family.graph);
      EXPECT_TRUE(scc::same_partition(off.labels, oracle.labels)) << family.name;
    }
  }
}

TEST(HighdiameterDifferential, ChainChaserTerminatesOnBoundaryFamilies) {
  for (const auto& family : chain_families()) {
    device::Device dev(highdiameter_profile(), /*workers=*/4);
    const SccResult baseline = scc::ecl_scc(family.graph, dev, lever_combo(0));
    ASSERT_TRUE(baseline.ok()) << family.name;
    const SccResult oracle = scc::tarjan(family.graph);
    ASSERT_TRUE(scc::same_partition(baseline.labels, oracle.labels)) << family.name;
    for (unsigned mask = 1; mask < 4; ++mask) {
      EclOptions opts = lever_combo(mask);
      opts.chain_density = 2.0;  // force chases so the boundary cases run
      const SccResult r = scc::ecl_scc(family.graph, dev, opts);
      ASSERT_TRUE(r.ok()) << family.name << " " << combo_name(mask);
      EXPECT_EQ(r.labels, baseline.labels) << family.name << " " << combo_name(mask);
      // One chase never exceeds its budget.
      EXPECT_LE(r.metrics.max_chain_len, opts.chain_cap)
          << family.name << " " << combo_name(mask);
    }
  }
}

TEST(HighdiameterDifferential, ChainCapBoundsEveryChase) {
  // Tight caps on the deepest chain family: the chaser must respect 1 and
  // the exact chain length, and labels stay pinned either way.
  const auto family = chain_families()[1];  // path_200_into_cycle
  device::Device dev(highdiameter_profile(), /*workers=*/4);
  const SccResult baseline = scc::ecl_scc(family.graph, dev, lever_combo(0));
  ASSERT_TRUE(baseline.ok());
  for (std::uint32_t cap : {1u, 2u, 63u, 64u, 65u, 1024u}) {
    EclOptions opts = lever_combo(1);
    opts.chain_cap = cap;
    opts.chain_density = 2.0;  // force the chaser on this small family
    const SccResult r = scc::ecl_scc(family.graph, dev, opts);
    ASSERT_TRUE(r.ok()) << "cap=" << cap;
    EXPECT_EQ(r.labels, baseline.labels) << "cap=" << cap;
    EXPECT_LE(r.metrics.max_chain_len, cap) << "cap=" << cap;
  }
}

TEST(HighdiameterDifferential, ChainMetricsRecordCollapsedChains) {
  // The deep path family must actually exercise the chaser when it is on,
  // and record nothing when it is off. chain_density >= 1 forces a chase in
  // every round whose active count is below m (round-level adaptivity would
  // otherwise let a graph this small converge before the chaser arms).
  const auto family = chain_families()[1];
  device::Device dev(highdiameter_profile(), /*workers=*/4);
  const SccResult off = scc::ecl_scc(family.graph, dev, lever_combo(0));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.metrics.chains_collapsed, 0u);
  EXPECT_EQ(off.metrics.max_chain_len, 0u);
  EclOptions forced = lever_combo(1);
  forced.chain_density = 2.0;  // > 1: chase from round 1
  const SccResult on = scc::ecl_scc(family.graph, dev, forced);
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(on.labels, off.labels);
  EXPECT_GT(on.metrics.chains_collapsed, 0u);
  EXPECT_GT(on.metrics.max_chain_len, 0u);
  EXPECT_GE(on.metrics.chain_steps, on.metrics.max_chain_len);
}

TEST(HighdiameterDifferential, ForcedSparseRoundsStayBitIdentical) {
  // hashbag_density = 1.0 forces every eligible round through the sparse
  // path (any frontier is below 100% of the worklist), so the gather /
  // incidence machinery itself is exercised, not just the fallback.
  for (const auto& family : families()) {
    device::Device dev(highdiameter_profile(), /*workers=*/4);
    const SccResult baseline = scc::ecl_scc(family.graph, dev, lever_combo(0));
    ASSERT_TRUE(baseline.ok()) << family.name;
    EclOptions forced = lever_combo(2);
    forced.hashbag_density = 1.0;
    const SccResult sparse = scc::ecl_scc(family.graph, dev, forced);
    ASSERT_TRUE(sparse.ok()) << family.name;
    EXPECT_EQ(sparse.labels, baseline.labels) << family.name;
    EXPECT_GT(sparse.metrics.hashbag_rounds, 0u)
        << family.name << ": forced density never took the sparse path";
  }
}

TEST(HighdiameterDifferential, ForcedDensityGoesSparseOnFirstEligibleRound) {
  // Scheduling-free twin of ForcedSparseRoundsStayBitIdentical: a 4x4 grid
  // DAG (24 edges, one block on tiny_profile) converges in two Phase-2
  // rounds. Round 1 is dense and armed; round 2 has a known frontier below
  // the worklist, and hashbag_density >= 1 must take it sparse at once
  // rather than wait out the two-round persistence rule.
  const Digraph g = graph::grid_dag(4, 4);
  for (unsigned workers : {1u, 4u}) {
    device::Device dev(highdiameter_profile(), workers);
    const SccResult baseline = scc::ecl_scc(g, dev, lever_combo(0));
    ASSERT_TRUE(baseline.ok()) << "workers=" << workers;
    EclOptions forced = lever_combo(2);
    forced.hashbag_density = 1.0;
    const SccResult sparse = scc::ecl_scc(g, dev, forced);
    ASSERT_TRUE(sparse.ok()) << "workers=" << workers;
    EXPECT_EQ(sparse.labels, baseline.labels) << "workers=" << workers;
    EXPECT_GT(sparse.metrics.hashbag_rounds, 0u) << "workers=" << workers;
  }
}

TEST(HighdiameterDifferential, OmpMirrorMatchesAcrossChainLever) {
  // The OpenMP translation carries the same lever; both settings must land
  // on the same (max-ID) labels as the device run.
  for (const auto& family : families()) {
    device::Device dev(highdiameter_profile(), /*workers=*/4);
    const SccResult reference = scc::ecl_scc(family.graph, dev, lever_combo(0));
    ASSERT_TRUE(reference.ok()) << family.name;
    for (bool chasing : {false, true}) {
      scc::EclOmpOptions opts;
      opts.chain_chasing = chasing;
      const SccResult r = scc::ecl_omp(family.graph, opts);
      ASSERT_TRUE(r.ok()) << family.name;
      EXPECT_EQ(r.labels, reference.labels) << family.name << " chasing=" << chasing;
    }
  }
}

TEST(HighdiameterDifferential, FbLeverCombosMatchTarjanPartitions) {
  // FB-Trim's §15 analogues: multi-pivot sets and trim chasing may rename
  // components (pivot-named labels) but never repartition them.
  for (const auto& family : families()) {
    device::Device dev(highdiameter_profile(), /*workers=*/4);
    const SccResult oracle = scc::tarjan(family.graph);
    for (unsigned mask = 0; mask < 4; ++mask) {
      FbOptions opts;
      opts.multi_pivot = mask & 1;
      opts.trim_chase = mask & 2;
      const SccResult r = scc::fb_trim(family.graph, dev, opts);
      ASSERT_TRUE(r.ok()) << family.name << " fb mask=" << mask;
      EXPECT_TRUE(scc::same_partition(r.labels, oracle.labels))
          << family.name << " fb mask=" << mask;
    }
  }
}

TEST(HighdiameterDifferential, FbMultiPivotRecordsPivotMetrics) {
  // On the powerlaw family (many colors after round 1) the sampler should
  // draw more than one pivot for at least one color at least once.
  const auto fs = families();
  const auto& family = fs.back();  // powerlaw_giant
  device::Device dev(highdiameter_profile(), /*workers=*/4);
  FbOptions opts;  // defaults: multi_pivot on
  const SccResult r = scc::fb_trim(family.graph, dev, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.metrics.pivots_selected, 0u);
  EXPECT_GT(r.metrics.pivots_per_round, 0.0);
  FbOptions classic;
  classic.multi_pivot = false;
  const SccResult c = scc::fb_trim(family.graph, dev, classic);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.metrics.multi_pivot_rounds, 0u);
}

TEST(HighdiameterDifferential, FbTrimChaseTerminatesOnBoundaryFamilies) {
  for (const auto& family : chain_families()) {
    device::Device dev(highdiameter_profile(), /*workers=*/4);
    const SccResult oracle = scc::tarjan(family.graph);
    for (unsigned cap : {1u, 64u}) {
      FbOptions opts;
      opts.trim_chain_cap = cap;
      const SccResult r = scc::fb_trim(family.graph, dev, opts);
      ASSERT_TRUE(r.ok()) << family.name << " cap=" << cap;
      EXPECT_TRUE(scc::same_partition(r.labels, oracle.labels))
          << family.name << " cap=" << cap;
    }
  }
}

}  // namespace
}  // namespace ecl::test

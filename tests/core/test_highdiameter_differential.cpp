// High-diameter differential suite (ctest label: perf).
//
// The DESIGN.md §15 lever — the bounded local search in every Phase-2
// round — is a pure performance transform: with it on, labels must be
// BIT-IDENTICAL to the `ecl-loadbalance` baseline (§10 + §11 on, §15 off)
// on every graph family, fault-free and under seeded chaos plans, and equal
// to the independently coded OpenMP solver. The sharded runs are checked in
// the fleet suite (ShardedScc.HighdiameterLevers*).
// Identity of raw labels holds because ECL-SCC's max-ID labeling is a
// function of the graph alone, and a search only applies the same monotone
// per-edge rule early, to edges of the current worklist.
//
// FB-Trim's §15 analogues (multi-pivot sets, trim chasing) change WHICH
// pivot names a component, so they are checked for partition identity
// against Tarjan rather than raw-label identity.
//
// The suite also pins the search's boundary cases: self-loops, 2-cycles,
// pure cycles, walks that exhaust the visit budget, and the rule that a
// store-deferring fault never extends a walk.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/test_graphs.hpp"
#include "core/ecl_omp.hpp"
#include "core/ecl_scc.hpp"
#include "core/fb_trim.hpp"
#include "core/propagate.hpp"
#include "core/tarjan.hpp"
#include "device/fault.hpp"
#include "device/signature_store.hpp"
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

/// Chain-heavy boundary families aimed at the local search's termination
/// cases.
std::vector<Family> chain_families() {
  std::vector<Family> fs;
  {
    // Pure directed cycle: a walk entering it must stop once a lap moves
    // nothing more, or at the visit budget.
    EdgeList e;
    for (vid v = 0; v < 200; ++v) e.add(v, (v + 1) % 200);
    fs.push_back({"cycle_200", Digraph(200, e)});
  }
  {
    // Path of 200 edges (every interior vertex degree-1 both ways) feeding
    // a small cycle: a deep chain for one walk to carry signatures along.
    EdgeList e;
    for (vid v = 0; v < 200; ++v) e.add(v, v + 1);
    for (vid v = 200; v < 205; ++v) e.add(v, v + 1);
    e.add(205, 200);
    fs.push_back({"path_200_into_cycle", Digraph(206, e)});
  }
  {
    // Self-loops on a path: a walk pops each vertex's own loop edge beside
    // its path edges, and the loop's far endpoint is the vertex itself.
    EdgeList e;
    for (vid v = 0; v < 50; ++v) e.add(v, v);
    for (vid v = 0; v + 1 < 50; ++v) e.add(v, v + 1);
    fs.push_back({"self_loop_path_50", Digraph(50, e)});
  }
  {
    // Chain of 2-cycles: u <-> u+1 pairs linked in a path. A walk reaches
    // each pair through both of its edges.
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

/// The §15 lever on top of the full §10 + §11 configuration. Off is the
/// `ecl-loadbalance` baseline configuration; on is the default.
EclOptions with_search(bool on) {
  EclOptions opts = scc::ecl_highdiameter_levers_off();
  opts.local_search = on;
  return opts;
}

device::DeviceProfile highdiameter_profile(FaultPlan plan = {}) {
  device::DeviceProfile profile = device::tiny_profile();  // zero launch overhead
  profile.fault_plan = plan;
  return profile;
}

/// A store fault that defers every store: no signature ever lands, and every
/// store still reports movement.
FaultPlan stall_plan() {
  FaultPlan plan;
  plan.seed = 0x57a11;
  plan.delayed_visibility = true;
  plan.store_defer_probability = 1.0;
  return plan;
}

/// Phase-1 state of a graph (every vertex's signatures are its own ID) and
/// the search index over all of its edges, for driving local_search
/// directly.
struct SearchState {
  explicit SearchState(const Digraph& g)
      : list(g.edges()),
        sigs(g.num_vertices(), /*with_min=*/false, /*padded=*/false),
        slots(list.raw().size()) {
    for (vid v = 0; v < g.num_vertices(); ++v) {
      sigs.vin(v).store(v, std::memory_order_relaxed);
      sigs.vout(v).store(v, std::memory_order_relaxed);
    }
    inc.build(g.num_vertices(), edges(), slots);
  }
  std::span<const graph::Edge> edges() const { return list.raw(); }

  graph::EdgeList list;
  device::SignatureStore sigs;
  std::vector<graph::Edge> slots;
  scc::detail::WorklistIncidence inc;
};

TEST(HighdiameterDifferential, AllLeverCombosMatchBaselineLabelsBitForBit) {
  for (const auto& family : families()) {
    device::Device dev(highdiameter_profile(), /*workers=*/4);
    const SccResult baseline = scc::ecl_scc(family.graph, dev, with_search(false));
    ASSERT_TRUE(baseline.ok()) << family.name;
    const SccResult oracle = scc::tarjan(family.graph);
    ASSERT_TRUE(scc::same_partition(baseline.labels, oracle.labels)) << family.name;

    const SccResult r = scc::ecl_scc(family.graph, dev, with_search(true));
    ASSERT_TRUE(r.ok()) << family.name;
    EXPECT_EQ(r.labels, baseline.labels)
        << family.name << ": the local search changed the labeling (it must be a pure perf "
        << "transform)";
    EXPECT_EQ(r.num_components, baseline.num_components) << family.name;
  }
}

TEST(HighdiameterDifferential, ChaosPlansPreserveLabelsAcrossLevers) {
  // Same seeded fault plan, search on vs the loadbalance baseline: the fault
  // draw sequences diverge, but the converged labeling may not.
  for (const auto& family : families()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const FaultPlan plan = FaultPlan::from_seed(seed);
      device::Device dev_off(highdiameter_profile(plan), /*workers=*/4);
      const SccResult off = scc::ecl_scc(family.graph, dev_off, with_search(false));
      ASSERT_EQ(off.labels.size(), family.graph.num_vertices());
      device::Device dev_on(highdiameter_profile(plan), /*workers=*/4);
      const SccResult on = scc::ecl_scc(family.graph, dev_on, with_search(true));
      const std::string ctx = family.name + " " + plan.describe();
      ASSERT_EQ(on.labels.size(), family.graph.num_vertices()) << ctx;
      EXPECT_EQ(on.labels, off.labels) << ctx;
      const SccResult oracle = scc::tarjan(family.graph);
      EXPECT_TRUE(scc::same_partition(off.labels, oracle.labels)) << family.name;
    }
  }
}

TEST(HighdiameterDifferential, OmpMirrorMatchesAcrossChainLever) {
  // The independently coded OpenMP solver has no local search; the device
  // run must land on its (max-ID) labels with the search off and on.
  for (const auto& family : families()) {
    const SccResult omp = scc::ecl_omp(family.graph);
    ASSERT_TRUE(omp.ok()) << family.name;
    device::Device dev(highdiameter_profile(), /*workers=*/4);
    for (const bool search : {false, true}) {
      const SccResult r = scc::ecl_scc(family.graph, dev, with_search(search));
      ASSERT_TRUE(r.ok()) << family.name << " search=" << search;
      EXPECT_EQ(r.labels, omp.labels) << family.name << " search=" << search;
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

TEST(HighdiameterDifferential, ChainChaserTerminatesOnBoundaryFamilies) {
  // The chain-shaped families the search generalizes: every walk ends, in
  // synchronous and asynchronous Phase 2 alike, on the baseline's labels.
  for (const auto& family : chain_families()) {
    device::Device dev(highdiameter_profile(), /*workers=*/4);
    const SccResult baseline = scc::ecl_scc(family.graph, dev, with_search(false));
    ASSERT_TRUE(baseline.ok()) << family.name;
    ASSERT_TRUE(scc::same_partition(baseline.labels, scc::tarjan(family.graph).labels))
        << family.name;
    for (const bool async : {false, true}) {
      EclOptions opts = with_search(true);
      opts.async_phase2 = async;
      const SccResult r = scc::ecl_scc(family.graph, dev, opts);
      ASSERT_TRUE(r.ok()) << family.name << " async=" << async;
      EXPECT_EQ(r.labels, baseline.labels) << family.name << " async=" << async;
    }
  }
}

TEST(HighdiameterDifferential, ChainMetricsRecordCollapsedChains) {
  // The deep path family must actually exercise the search when it is on
  // (chains_collapsed counts searches that moved a signature), and record
  // nothing when it is off.
  const auto family = chain_families()[1];  // path_200_into_cycle
  device::Device dev(highdiameter_profile(), /*workers=*/4);
  const SccResult off = scc::ecl_scc(family.graph, dev, with_search(false));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.metrics.chains_collapsed, 0u);
  const SccResult on = scc::ecl_scc(family.graph, dev, with_search(true));
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(on.labels, off.labels);
  EXPECT_GT(on.metrics.chains_collapsed, 0u);
  // Synchronous rounds make the round count a property of the input (path
  // compression already cuts it to about log2 of the path length), and the
  // search cuts it further.
  EclOptions sync_off = with_search(false);
  sync_off.async_phase2 = false;
  EclOptions sync_on = sync_off;
  sync_on.local_search = true;
  const SccResult slow = scc::ecl_scc(family.graph, dev, sync_off);
  const SccResult fast = scc::ecl_scc(family.graph, dev, sync_on);
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast.labels, off.labels);
  EXPECT_LT(fast.metrics.propagation_rounds, slow.metrics.propagation_rounds);
}

TEST(HighdiameterDifferential, SearchesThatExhaustTheBudgetStayBitIdentical) {
  // Inputs far deeper than one search's visit budget: a 4096-cycle (one
  // SCC the walks chase around) and a 48x48 grid DAG (2304 trivial SCCs,
  // diameter 94). Walks stop mid-chain at the budget, and the labels must
  // not notice, at 1 and 4 workers, synchronous and asynchronous.
  const std::vector<Family> deep = {{"cycle_4096", graph::cycle_graph(4096)},
                                    {"grid_dag_48x48", graph::grid_dag(48, 48)}};
  for (const auto& family : deep) {
    for (unsigned workers : {1u, 4u}) {
      for (const bool async : {false, true}) {
        const std::string ctx = family.name + " workers=" + std::to_string(workers) +
                                " async=" + (async ? "1" : "0");
        device::Device dev(highdiameter_profile(), workers);
        EclOptions off = with_search(false);
        off.async_phase2 = async;
        EclOptions on = off;
        on.local_search = true;
        const SccResult baseline = scc::ecl_scc(family.graph, dev, off);
        ASSERT_TRUE(baseline.ok()) << ctx;
        const SccResult r = scc::ecl_scc(family.graph, dev, on);
        ASSERT_TRUE(r.ok()) << ctx;
        EXPECT_EQ(r.labels, baseline.labels) << ctx;
        EXPECT_GT(r.metrics.chains_collapsed, 0u) << ctx;
      }
    }
  }
  // And a single walk on the cycle really is cut by the budget: with
  // Phase-1 signatures (each vertex its own ID), the edge into vertex 4095
  // moves, and so does every edge after it around the cycle.
  SearchState state(graph::cycle_graph(4096));
  const scc::detail::SigView view{state.sigs};
  const EclOptions opts = with_search(true);
  const graph::Edge seed{4094, 4095};
  ASSERT_TRUE(scc::detail::propagate_edge(view, seed, opts, 1));
  const scc::detail::SearchResult sr =
      scc::detail::local_search(view, state.inc, state.edges(), seed, opts, 1);
  EXPECT_TRUE(sr.moved);
  EXPECT_EQ(sr.visits, scc::detail::kSearchBudget);
}

TEST(HighdiameterDifferential, GuaranteedStallTripsWithinTheSameSweepBudget) {
  // Every store deferred: Phase 2 can never converge and must trip its
  // sweep budget. The search may not stretch that: with it on, the run
  // trips after exactly as many sweeps and edge visits as with it off.
  const Digraph g = graph::cycle_chain(12, 6);
  for (const bool async : {false, true}) {
    SccResult runs[2];
    for (const bool search : {false, true}) {
      EclOptions o = with_search(search);
      o.async_phase2 = async;
      o.watchdog.max_phase2_rounds = 16;
      o.checkpoint.enabled = false;
      o.stall_policy = scc::StallPolicy::kReturnError;
      device::Device dev(highdiameter_profile(stall_plan()), /*workers=*/1);
      runs[search] = scc::ecl_scc(g, dev, o);
      EXPECT_EQ(runs[search].error.code, scc::SccStatus::kStalled)
          << "search=" << search << " async=" << async;
    }
    EXPECT_EQ(runs[1].metrics.propagation_rounds, runs[0].metrics.propagation_rounds)
        << "async=" << async;
    EXPECT_EQ(runs[1].metrics.edges_processed, runs[0].metrics.edges_processed)
        << "async=" << async;
    EXPECT_EQ(runs[1].metrics.chains_collapsed, 0u) << "async=" << async;
  }
}

TEST(HighdiameterDifferential, DeferredStoreDoesNotExtendAWalk) {
  // A deferred store reports movement without landing. If that movement
  // pushed vertices, a walk would re-push the same ones until its budget
  // ran out, on every mover of every sweep. Under a store fault the search
  // therefore makes no visit at all...
  const Digraph g = graph::cycle_graph(64);
  SearchState state(g);
  device::FaultInjector fault(stall_plan());
  const scc::detail::SigView faulted{state.sigs, &fault};
  const EclOptions opts = with_search(true);
  const graph::Edge seed{62, 63};
  ASSERT_TRUE(scc::detail::propagate_edge(faulted, seed, opts, 1))
      << "a deferred store still reports movement";
  const scc::detail::SearchResult sr =
      scc::detail::local_search(faulted, state.inc, state.edges(), seed, opts, 1);
  EXPECT_EQ(sr.visits, 0u);
  EXPECT_FALSE(sr.moved);
  EXPECT_EQ(state.sigs.vout(62).load(std::memory_order_relaxed), 62u) << "no store may land";

  // ...and a recoverable deferral plan converges to the fault-free labels
  // with no search recorded.
  FaultPlan plan;
  plan.seed = 0xdefe2;
  plan.delayed_visibility = true;
  plan.store_defer_probability = 0.25;
  device::Device clean(highdiameter_profile(), /*workers=*/4);
  const SccResult reference = scc::ecl_scc(g, clean, with_search(false));
  device::Device dev(highdiameter_profile(plan), /*workers=*/4);
  const SccResult r = scc::ecl_scc(g, dev, with_search(true));
  ASSERT_TRUE(r.ok()) << r.error.message;
  EXPECT_EQ(r.labels, reference.labels);
  EXPECT_EQ(r.metrics.chains_collapsed, 0u);
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

// mesh-sweep and powerlaw-batch: a batch of graphs driven to certified SCC
// labels, one pass after another, on one virtual device.
//
// Untraced passes take the program's certified path exactly as a caller
// does: run_resilient_on("ecl-a100", g, dev), then (mesh-sweep) a
// SweepPlan over the labels. Traced passes call the same pieces one by one
// under spans — degree pre-scan, ecl_scc, Digraph::reverse, certify_scc,
// SweepPlan — so each layer's self time can be read; they alternate with
// untraced passes, and the difference is reported as tracing overhead.
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "core/ecl_scc.hpp"
#include "core/registry.hpp"
#include "core/verify.hpp"
#include "device/device.hpp"
#include "graph/degree_stats.hpp"
#include "inputs.hpp"
#include "passes.hpp"
#include "reference.hpp"
#include "sweep/sweep_solver.hpp"

namespace e2e {
namespace {

// Input sizes. mesh-sweep: every Table 2 group at this fraction of its
// paper element count, a few ordinates each; powerlaw-batch: the ten
// Table 3 profiles at this fraction of their paper vertex counts.
constexpr double kMeshScale = 0.005;
constexpr unsigned kMeshOrdinates = 8;
constexpr double kPowerLawScale = 0.02;

const char* const kMeshGroups[] = {"klein-bottle", "mobius-strip", "torch-hex",   "torch-tet",
                                   "toroid-hex",   "toroid-wedge", "twist-hex"};

/// One graph's outcome in one pass.
struct GraphRun {
  double seconds = 0.0;
  std::vector<vid> labels;
  bool certified = false;
  bool solver_ok = false;
  bool reran = false;  ///< the ladder rejected a result and served a fresh rerun or serial labels
  bool plan_built = true;
  vid plan_components = 0;
  // Traced passes only: this graph's time in each layer.
  double ecl_s = 0.0, phases_s = 0.0, reverse_s = 0.0, certify_s = 0.0;
};

/// Per-pass sums of the layer quantities a traced pass observes.
struct LayerPass {
  double prescan = 0.0, ecl = 0.0, phase1 = 0.0, phase2 = 0.0, phase3 = 0.0;
  double reverse = 0.0, certify = 0.0, plan = 0.0;
  double outer = 0.0, rounds = 0.0, hashbag = 0.0, chains = 0.0;
  double processed = 0.0, skipped = 0.0, hub_reorders = 0.0, launches = 0.0;
  double imbalance = 1.0, steal = 0.0;

  double unphased() const { return ecl - phase1 - phase2 - phase3; }
  double skip_ratio() const {
    return processed + skipped > 0 ? skipped / (processed + skipped) : 0.0;
  }
};

class BatchRunner final : public PassWorkload {
 public:
  BatchRunner(const Options& opts, Tracer& tracer, bool mesh)
      : opts_(opts), tracer_(tracer), mesh_(mesh) {}

  Outcome run();

  void begin_pass(bool traced) override;
  double solve(std::size_t i, bool traced, std::uint64_t span_id) override;
  std::uint64_t end_pass(std::size_t pass, bool traced, double wall) override;

 private:
  void set_up();
  GraphRun solve_untraced(const Digraph& g);
  GraphRun solve_traced(const Digraph& g, std::uint64_t id);

  const Options& opts_;
  Tracer& tracer_;
  const bool mesh_;
  std::vector<NamedGraph> graphs_;
  std::unique_ptr<ecl::device::Device> dev_;
  // The reference is kept as a digest of its labels and its class count,
  // so its labels do not add to the process's peak memory; a mismatch
  // recomputes it to say what differs.
  std::vector<std::uint64_t> ref_digests_;
  std::vector<vid> ref_classes_;
  std::vector<double> setup_s_, mesh_generate_s_, mesh_sweep_s_, graph_generate_s_;
  // The pass in progress.
  std::vector<GraphRun> runs_;
  LayerPass layer_;
  ecl::device::LaunchStats stats0_;
  std::uint64_t claimed0_ = 0, stolen0_ = 0;
  // Traced passes: layer records, and per-graph certify and unphased shares.
  std::vector<LayerPass> traced_;
  std::vector<std::vector<double>> certify_share_, unphased_share_;
};

void BatchRunner::set_up() {
  graphs_.clear();
  dev_.reset();
  const auto t0 = Clock::now();
  if (mesh_) {
    std::vector<MeshPick> picks;
    for (const char* group : kMeshGroups) picks.push_back({group, kMeshScale, kMeshOrdinates});
    MeshTimes times;
    graphs_ = mesh_sweep_graphs(picks, opts_.seed, times);
    mesh_generate_s_.push_back(times.generate_s);
    mesh_sweep_s_.push_back(times.sweep_graphs_s);
  } else {
    for (const auto& name : power_law_names())
      graphs_.push_back({name, power_law_graph(name, kPowerLawScale, opts_.seed)});
    graph_generate_s_.push_back(seconds_since(t0));
  }
  dev_ = std::make_unique<ecl::device::Device>(ecl::device::a100_profile(),
                                               ThreadPins::kHostWorkers);
  setup_s_.push_back(seconds_since(t0));
}

GraphRun BatchRunner::solve_untraced(const Digraph& g) {
  GraphRun run;
  const auto t0 = Clock::now();
  ecl::scc::SccResult r = ecl::scc::run_resilient_on("ecl-a100", g, *dev_);
  if (mesh_) {
    try {
      const ecl::sweep::SweepPlan plan(g, r.labels);
      run.plan_components = plan.num_components();
    } catch (const std::exception&) {
      run.plan_built = false;
    }
  }
  run.seconds = seconds_since(t0);
  run.certified = r.metrics.certified;
  run.solver_ok = r.ok();
  run.reran = r.metrics.fresh_reruns > 0 || r.metrics.serial_fallback;
  run.labels = std::move(r.labels);
  return run;
}

GraphRun BatchRunner::solve_traced(const Digraph& g, std::uint64_t id) {
  GraphRun run;
  LayerPass& layer = layer_;
  Tracer::Span top(tracer_, "graph", id);

  Tracer::Span prescan(tracer_, "graph.prescan", id, top.index());
  const auto stats = ecl::graph::compute_out_degree_stats(g);
  prescan.arg("hub_ratio", stats.hub_ratio);
  prescan.end();
  layer.prescan += prescan.seconds();

  Tracer::Span ecl_span(tracer_, "core.ecl", id, top.index());
  ecl::scc::SccResult r = ecl::scc::ecl_scc(g, *dev_);
  ecl_span.end();
  const auto& m = r.metrics;
  for (const auto& [key, value] :
       {std::pair<const char*, double>{"phase1_s", m.phase1_seconds},
        {"phase2_s", m.phase2_seconds},
        {"phase3_s", m.phase3_seconds},
        {"outer_iterations", static_cast<double>(m.outer_iterations)},
        {"propagation_rounds", static_cast<double>(m.propagation_rounds)},
        {"hashbag_rounds", static_cast<double>(m.hashbag_rounds)},
        {"chains_collapsed", static_cast<double>(m.chains_collapsed)},
        {"hub_reorder", m.hub_reorder_applied ? 1.0 : 0.0}})
    ecl_span.arg(key, value);
  layer.ecl += ecl_span.seconds();
  run.ecl_s = ecl_span.seconds();
  run.phases_s = m.phase1_seconds + m.phase2_seconds + m.phase3_seconds;
  layer.phase1 += m.phase1_seconds;
  layer.phase2 += m.phase2_seconds;
  layer.phase3 += m.phase3_seconds;
  layer.outer += static_cast<double>(m.outer_iterations);
  layer.rounds += static_cast<double>(m.propagation_rounds);
  layer.hashbag += static_cast<double>(m.hashbag_rounds);
  layer.chains += static_cast<double>(m.chains_collapsed);
  layer.processed += static_cast<double>(m.edges_processed);
  layer.skipped += static_cast<double>(m.edges_skipped);
  layer.hub_reorders += m.hub_reorder_applied ? 1.0 : 0.0;
  layer.launches += static_cast<double>(m.kernel_launches);

  Tracer::Span rev_span(tracer_, "graph.reverse", id, top.index());
  const Digraph reverse = g.reverse();
  rev_span.end();
  layer.reverse += rev_span.seconds();
  run.reverse_s = rev_span.seconds();

  Tracer::Span cert_span(tracer_, "core.certify", id, top.index());
  ecl::scc::CertifyOptions copts;
  copts.reverse_hint = &reverse;
  const ecl::scc::CertifyReport cert = ecl::scc::certify_scc(g, r.labels, copts);
  cert_span.end();
  layer.certify += cert_span.seconds();
  run.certify_s = cert_span.seconds();

  if (mesh_) {
    Tracer::Span plan_span(tracer_, "sweep.plan", id, top.index());
    try {
      const ecl::sweep::SweepPlan plan(g, r.labels);
      run.plan_components = plan.num_components();
    } catch (const std::exception&) {
      run.plan_built = false;
    }
    plan_span.end();
    layer.plan += plan_span.seconds();
  }
  top.end();
  run.seconds = top.seconds();
  run.certified = cert.ok;
  run.solver_ok = r.ok();
  run.reran = m.fresh_reruns > 0 || m.serial_fallback;
  run.labels = std::move(r.labels);
  return run;
}

void BatchRunner::begin_pass(bool traced) {
  runs_.clear();
  layer_ = {};
  if (!traced) return;
  stats0_ = dev_->stats();
  claimed0_ = dev_->pool().claimed_tasks();
  stolen0_ = dev_->pool().stolen_tasks();
}

double BatchRunner::solve(std::size_t i, bool traced, std::uint64_t span_id) {
  runs_.push_back(traced ? solve_traced(graphs_[i].graph, span_id)
                         : solve_untraced(graphs_[i].graph));
  return runs_.back().seconds;
}

std::uint64_t BatchRunner::end_pass(std::size_t pass, bool traced, double /*wall*/) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const GraphRun& run = runs_[i];
    std::string why;
    if (label_digest(run.labels) != ref_digests_[i]) {
      why = check_labels(run.labels, reference_scc(graphs_[i].graph));
      if (why.empty()) why = "labels digest differs from the reference";
    }
    if (why.empty() && !run.solver_ok) why = "solver reported an error";
    if (why.empty() && !run.certified) why = "labels were not certified";
    if (why.empty() && run.reran)
      why = "first labeling was rejected; a fresh rerun or the serial fallback produced these";
    if (why.empty() && mesh_ && !run.plan_built) why = "SweepPlan rejected the labels (cyclic condensation)";
    if (why.empty() && mesh_ && run.plan_components != ref_classes_[i])
      why = "SweepPlan component count differs from the reference";
    if (why.empty()) continue;
    ++failed;
    info("FAILED pass " + std::to_string(pass) + " graph " + graphs_[i].name + ": " + why);
  }
  if (traced) {
    const auto& after = dev_->stats();
    const double weight = after.imbalance_weight - stats0_.imbalance_weight;
    layer_.imbalance =
        weight > 0 ? (after.imbalance_weighted - stats0_.imbalance_weighted) / weight : 1.0;
    const double claimed = static_cast<double>(dev_->pool().claimed_tasks() - claimed0_);
    const double stolen = static_cast<double>(dev_->pool().stolen_tasks() - stolen0_);
    layer_.steal = claimed + stolen > 0 ? stolen / (claimed + stolen) : 0.0;
    traced_.push_back(layer_);
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const GraphRun& r = runs_[i];
      certify_share_[i].push_back(r.certify_s / (r.ecl_s + r.reverse_s + r.certify_s));
      unphased_share_[i].push_back((r.ecl_s - r.phases_s) / r.ecl_s);
    }
  }
  return failed;
}

Outcome BatchRunner::run() {
  for (int rep = 0; rep < kSetupRepeats; ++rep) set_up();

  const auto ref_t0 = Clock::now();
  for (const auto& ng : graphs_) {
    const std::vector<vid> ref = reference_scc(ng.graph);
    ref_digests_.push_back(label_digest(ref));
    ref_classes_.push_back(count_classes(ref));
  }
  const double reference_pass_s = seconds_since(ref_t0);

  std::uint64_t total_vertices = 0, total_edges = 0;
  for (const auto& ng : graphs_) {
    total_vertices += ng.graph.num_vertices();
    total_edges += ng.graph.num_edges();
  }
  info("inputs: " + std::to_string(graphs_.size()) + " graphs, " +
       std::to_string(total_vertices) + " vertices, " + std::to_string(total_edges) + " edges");
  info("threads: device host_workers=" + std::to_string(dev_->pool().num_workers()));
  info("serial reference (iterative Tarjan) per pass: " + std::to_string(reference_pass_s) + " s");

  // Untimed warm-up: builds the device's thread pool state and any lazy
  // per-process indexes before the clock starts.
  for (const auto& ng : graphs_) (void)solve_untraced(ng.graph);

  certify_share_.assign(graphs_.size(), {});
  unphased_share_.assign(graphs_.size(), {});
  const PassTimes times = run_passes(opts_, graphs_, *this);
  for (int rep = 0; rep < kSetupRepeats; ++rep) set_up();
  Outcome out = summarize_passes(opts_, graphs_, times, setup_s_, [&](std::size_t i) {
    std::ostringstream note;
    note << " sccs=" << ref_classes_[i];
    if (opts_.trace)
      note << " certify_share=" << median(certify_share_[i])
           << " unphased_share=" << median(unphased_share_[i]);
    return note.str();
  });
  if (!opts_.trace) return out;

  out.per_layer.insert(out.per_layer.end(), {
      {"mesh.generate_s", median(mesh_generate_s_), "s"},
      {"mesh.sweep_graphs_s", median(mesh_sweep_s_), "s"},
      {"graph.generate_s", median(graph_generate_s_), "s"},
      {"graph.reverse_s", median_of(traced_, &LayerPass::reverse), "s"},
      {"graph.prescan_s", median_of(traced_, &LayerPass::prescan), "s"},
      {"core.ecl_s", median_of(traced_, &LayerPass::ecl), "s"},
      {"core.phase1_s", median_of(traced_, &LayerPass::phase1), "s"},
      {"core.phase2_s", median_of(traced_, &LayerPass::phase2), "s"},
      {"core.phase3_s", median_of(traced_, &LayerPass::phase3), "s"},
      {"core.unphased_s", median_of(traced_, &LayerPass::unphased), "s"},
      {"core.certify_s", median_of(traced_, &LayerPass::certify), "s"},
      {"core.outer_iterations", median_of(traced_, &LayerPass::outer), "count"},
      {"core.propagation_rounds", median_of(traced_, &LayerPass::rounds), "count"},
      {"core.hashbag_rounds", median_of(traced_, &LayerPass::hashbag), "count"},
      {"core.chains_collapsed", median_of(traced_, &LayerPass::chains), "count"},
      {"core.edges_processed", median_of(traced_, &LayerPass::processed), "count"},
      {"core.edge_skip_ratio", median_of(traced_, &LayerPass::skip_ratio), "ratio"},
      {"core.hub_reorders", median_of(traced_, &LayerPass::hub_reorders), "count"},
      {"device.kernel_launches", median_of(traced_, &LayerPass::launches), "count"},
      {"device.block_imbalance", median_of(traced_, &LayerPass::imbalance), "ratio"},
      {"device.steal_fraction", median_of(traced_, &LayerPass::steal), "ratio"},
      {"sweep.plan_s", median_of(traced_, &LayerPass::plan), "s"},
  });
  for (Metric& m : trace_metrics(times)) out.per_layer.push_back(std::move(m));
  return out;
}

}  // namespace

Outcome run_mesh_sweep(const Options& opts, Tracer& tracer) {
  return BatchRunner(opts, tracer, true).run();
}

Outcome run_powerlaw_batch(const Options& opts, Tracer& tracer) {
  return BatchRunner(opts, tracer, false).run();
}

}  // namespace e2e

// High-diameter lever ablation (DESIGN.md §15): the bounded local search in
// every Phase-2 round on and off, and (informationally) FB-Trim's
// multi-pivot + trim-chase analogues, measured against the
// `ecl-loadbalance` registry configuration (§10 + §11 levers on, local
// search off) on the Table-2 large meshes and the Table-7 power-law
// stand-ins.
//
// Every run is verified against Tarjan outside the timed region. Timing is
// best-of-N with run-major config interleaving (see config_seconds) — on a
// single shared core, contention is additive noise and the interleaved
// minimum is the stable estimator. Besides
// the human-readable tables, the bench emits machine-readable
// BENCH_highdiameter.json (path overridable via ECL_BENCH_JSON) and
// enforces the PR's performance contract:
//
//  * with the local search on, at least TWO mesh families must run >= 1.3x
//    faster than the loadbalance baseline, at least one of them
//    mobius-strip or torch-hex (the deep, chain-heavy sweeps the search
//    targets), AND
//  * no power-law workload may regress below 1.0x (within measurement
//    tolerance) — the search must be free where it cannot help.
//
// `--smoke` runs a reduced workload set and checks only that the contract
// machinery is wired (CI smoke lanes run at tiny ECL_SCALE, where launch
// overhead dominates and the ratio is meaningless).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_support/workloads.hpp"
#include "core/ecl_scc.hpp"
#include "core/fb_trim.hpp"
#include "core/tarjan.hpp"
#include "support/env.hpp"
#include "support/format.hpp"
#include "support/timer.hpp"

namespace {

using namespace ecl;
using namespace ecl::bench;

constexpr double kContractSpeedup = 1.3;
/// "Not below 1.0x" with an allowance for timing noise at bench scale.
constexpr double kRegressionFloor = 0.95;

struct LeverConfig {
  std::string name;
  scc::EclOptions opts;
};

std::vector<LeverConfig> configs() {
  std::vector<LeverConfig> cs;
  cs.push_back({"loadbalance", scc::ecl_highdiameter_levers_off()});
  cs.push_back({"all-on", scc::EclOptions{}});
  return cs;
}

struct WorkloadRow {
  std::string family;  ///< "mesh" or "powerlaw"
  Workload workload;
  std::vector<double> seconds;  ///< one entry per config
  // §15 observability for the all-on run (summed over the workload):
  // local searches that moved a signature, and Phase-2 rounds.
  std::uint64_t chains_collapsed = 0;
  std::uint64_t propagation_rounds = 0;
};

/// Times every config on one workload with run-major interleaving: each of
/// the bench_runs() passes times every config once (A,B,C,D | A,B,C,D | ...)
/// and every cell keeps its MINIMUM across passes. The bench host is one
/// shared core, so scheduling contention is strictly additive noise: the
/// interleaved minimum estimates each config's uncontended runtime under
/// like machine conditions, where a config-major median folds slow host
/// phases into whichever config block they happen to land on (observed as
/// ±25% drift on configs whose code path is byte-identical).
std::vector<double> config_seconds(const Workload& workload, const std::vector<LeverConfig>& cs,
                                   device::Device& dev) {
  std::vector<double> best(cs.size(), 1e300);
  for (std::size_t run = 0; run < bench_runs(); ++run) {
    for (std::size_t c = 0; c < cs.size(); ++c) {
      Timer timer;
      for (const auto& g : workload.graphs) {
        const auto r = scc::ecl_scc(g, dev, cs[c].opts);
        if (!r.ok()) throw std::runtime_error("highdiameter: run failed on " + workload.name);
      }
      best[c] = std::min(best[c], timer.seconds());
    }
  }
  return best;
}

/// One untimed verified pass; also harvests the §15 counters for the row.
void verify_config(WorkloadRow& row, const scc::EclOptions& opts, device::Device& dev,
                   const std::string& config, bool harvest) {
  for (const auto& g : row.workload.graphs) {
    const auto r = scc::ecl_scc(g, dev, opts);
    if (!r.ok() || !scc::same_partition(r.labels, scc::tarjan(g).labels))
      throw std::runtime_error("highdiameter config '" + config +
                               "' failed verification on " + row.workload.name);
    if (harvest) {
      row.chains_collapsed += r.metrics.chains_collapsed;
      row.propagation_rounds += r.metrics.propagation_rounds;
    }
  }
}

std::string json_escape_free_name(const std::string& s) {
  // Workload/config names are generated identifiers (letters, digits, -, _);
  // nothing to escape, but keep the seam explicit.
  return s;
}

void write_json(const std::string& path, const std::vector<LeverConfig>& cs,
                const std::vector<WorkloadRow>& rows, bool smoke,
                const std::vector<std::string>& fast_meshes, bool target_hit,
                double worst_powerlaw, const std::string& worst_workload, bool mesh_pass,
                bool powerlaw_pass) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\n";
  out << "  \"bench\": \"highdiameter\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"scale\": " << scale_factor() << ",\n";
  out << "  \"runs\": " << bench_runs() << ",\n";
  out << "  \"configs\": [";
  for (std::size_t i = 0; i < cs.size(); ++i)
    out << (i ? ", " : "") << '"' << json_escape_free_name(cs[i].name) << '"';
  out << "],\n";
  out << "  \"workloads\": [\n";
  for (std::size_t w = 0; w < rows.size(); ++w) {
    const auto& row = rows[w];
    out << "    {\"name\": \"" << json_escape_free_name(row.workload.name)
        << "\", \"family\": \"" << row.family
        << "\", \"vertices\": " << row.workload.total_vertices()
        << ", \"edges\": " << row.workload.total_edges() << ",\n";
    out << "     \"seconds\": {";
    for (std::size_t c = 0; c < cs.size(); ++c)
      out << (c ? ", " : "") << '"' << cs[c].name << "\": " << row.seconds[c];
    out << "},\n     \"speedup_vs_loadbalance\": {";
    for (std::size_t c = 0; c < cs.size(); ++c) {
      const double speedup = row.seconds[c] > 0 ? row.seconds[0] / row.seconds[c] : 0.0;
      out << (c ? ", " : "") << '"' << cs[c].name << "\": " << speedup;
    }
    out << "},\n     \"chains_collapsed\": " << row.chains_collapsed
        << ", \"propagation_rounds\": " << row.propagation_rounds << "}"
        << (w + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"contract\": {\"threshold\": " << kContractSpeedup
      << ", \"regression_floor\": " << kRegressionFloor << ", \"config\": \"all-on\""
      << ", \"fast_meshes\": [";
  for (std::size_t i = 0; i < fast_meshes.size(); ++i)
    out << (i ? ", " : "") << '"' << json_escape_free_name(fast_meshes[i]) << '"';
  out << "], \"target_family_hit\": " << (target_hit ? "true" : "false")
      << ", \"worst_powerlaw\": " << worst_powerlaw << ", \"worst_powerlaw_workload\": \""
      << json_escape_free_name(worst_workload)
      << "\", \"mesh_pass\": " << (mesh_pass ? "true" : "false")
      << ", \"powerlaw_pass\": " << (powerlaw_pass ? "true" : "false")
      << ", \"pass\": " << (mesh_pass && powerlaw_pass ? "true" : "false")
      << ", \"enforced\": " << (smoke ? "false" : "true") << "}\n";
  out << "}\n";
  if (!out) throw std::runtime_error("write failed: " + path);
}

/// Informational FB-Trim section: the §15 FbOptions analogues (multi-pivot
/// sets + trim chasing) against the classic single-pivot FB-Trim. Not part
/// of the exit-code contract — FB-Trim is the comparison baseline family,
/// not the paper configuration — but recorded so the levers' effect on the
/// second algorithm family stays visible.
void fb_section(const std::vector<WorkloadRow>& rows, device::Device& dev) {
  scc::FbOptions classic;
  classic.multi_pivot = false;
  classic.trim_chase = false;
  const scc::FbOptions all_on;  // defaults: both levers on
  TextTable table({"Workload", "family", "classic [s]", "multi-pivot [s]", "x",
                   "pivots/round", "trim chains"});
  for (const auto& row : rows) {
    double base = 0.0, on = 0.0;
    double pivots_per_round = 0.0;
    std::uint64_t trim_chains = 0;
    for (const auto& g : row.workload.graphs) {
      {
        Timer t;
        const auto r = scc::fb_trim(g, dev, classic);
        base += t.seconds();
        if (!r.ok() || !scc::same_partition(r.labels, scc::tarjan(g).labels))
          throw std::runtime_error("fb classic failed verification on " + row.workload.name);
      }
      {
        Timer t;
        const auto r = scc::fb_trim(g, dev, all_on);
        on += t.seconds();
        if (!r.ok() || !scc::same_partition(r.labels, scc::tarjan(g).labels))
          throw std::runtime_error("fb multi-pivot failed verification on " +
                                   row.workload.name);
        pivots_per_round = std::max(pivots_per_round, r.metrics.pivots_per_round);
        trim_chains += r.metrics.chains_collapsed;
      }
    }
    table.add_row({row.workload.name, row.family, fixed(base, 4), fixed(on, 4),
                   fixed(on > 0 ? base / on : 0.0, 2), fixed(pivots_per_round, 2),
                   std::to_string(trim_chains)});
  }
  std::printf("\n== FB-Trim §15 analogues (informational; single timed pass) ==\n%s",
              table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const auto cs = configs();
  std::vector<WorkloadRow> rows;
  for (auto& w : large_mesh_workloads()) rows.push_back({"mesh", std::move(w), {}, 0, 0});
  for (auto& w : power_law_workloads()) rows.push_back({"powerlaw", std::move(w), {}, 0, 0});
  if (smoke) {
    // Keep the two contract-target mesh families and three power-law
    // stand-ins: enough to exercise both arms and the JSON/contract
    // plumbing without a long CI lane.
    std::vector<WorkloadRow> reduced;
    std::size_t pl_kept = 0;
    for (auto& row : rows) {
      if (row.family == "mesh" &&
          (row.workload.name == "mobius-strip" || row.workload.name == "torch-hex")) {
        reduced.push_back(std::move(row));
      } else if (row.family == "powerlaw" && pl_kept < 3) {
        reduced.push_back(std::move(row));
        ++pl_kept;
      }
    }
    rows = std::move(reduced);
  }

  device::Device dev(device::a100_profile());
  for (auto& row : rows) {
    for (std::size_t c = 0; c < cs.size(); ++c)
      verify_config(row, cs[c].opts, dev, cs[c].name, /*harvest=*/c == cs.size() - 1);
    row.seconds = config_seconds(row.workload, cs, dev);
  }

  // Runtime table + per-lever speedups over the loadbalance baseline.
  std::vector<std::string> headers = {"Workload", "family"};
  for (const auto& c : cs) headers.push_back(c.name + " [s]");
  for (std::size_t c = 1; c < cs.size(); ++c) headers.push_back(cs[c].name + " x");
  headers.push_back("searches");
  headers.push_back("rounds");
  TextTable table(headers);
  for (const auto& row : rows) {
    std::vector<std::string> cells = {row.workload.name, row.family};
    for (double s : row.seconds) cells.push_back(fixed(s, 4));
    for (std::size_t c = 1; c < cs.size(); ++c)
      cells.push_back(fixed(row.seconds[c] > 0 ? row.seconds[0] / row.seconds[c] : 0.0, 2));
    cells.push_back(std::to_string(row.chains_collapsed));
    cells.push_back(std::to_string(row.propagation_rounds));
    table.add_row(cells);
  }
  std::printf("\n== High-diameter lever ablation (best of %zu interleaved; "
              "speedups vs loadbalance) ==\n%s",
              bench_runs(), table.render().c_str());

  if (!smoke) fb_section(rows, dev);

  // Contract evaluation.
  const std::size_t all_on = cs.size() - 1;
  std::vector<std::string> fast_meshes;
  bool target_hit = false;
  double worst_powerlaw = 1e9;
  std::string worst_workload = "none";
  for (const auto& row : rows) {
    const double speedup = row.seconds[all_on] > 0 ? row.seconds[0] / row.seconds[all_on] : 0.0;
    if (row.family == "mesh") {
      if (speedup >= kContractSpeedup) {
        fast_meshes.push_back(row.workload.name);
        if (row.workload.name == "mobius-strip" || row.workload.name == "torch-hex")
          target_hit = true;
      }
    } else if (speedup < worst_powerlaw) {
      worst_powerlaw = speedup;
      worst_workload = row.workload.name;
    }
  }
  const bool mesh_pass = fast_meshes.size() >= 2 && target_hit;
  const bool powerlaw_pass = worst_powerlaw >= kRegressionFloor;

  const std::string json_path = env_string("ECL_BENCH_JSON", "BENCH_highdiameter.json");
  write_json(json_path, cs, rows, smoke, fast_meshes, target_hit, worst_powerlaw,
             worst_workload, mesh_pass, powerlaw_pass);
  std::printf("\ncontract: all-on >= %.1fx over loadbalance on >= 2 mesh families "
              "(incl. mobius-strip or torch-hex): %zu fast, target family %s -> %s\n"
              "contract: no power-law workload below %.2fx: worst %.2fx on %s -> %s%s\n"
              "(json: %s)\n",
              kContractSpeedup, fast_meshes.size(), target_hit ? "hit" : "missed",
              mesh_pass ? "PASS" : "FAIL", kRegressionFloor, worst_powerlaw,
              worst_workload.c_str(), powerlaw_pass ? "PASS" : "FAIL",
              smoke ? " [smoke: not enforced]" : "", json_path.c_str());

  if (!smoke && !(mesh_pass && powerlaw_pass)) return 1;
  return 0;
}

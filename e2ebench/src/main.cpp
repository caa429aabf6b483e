// e2ebench: one seeded workload of the end-to-end benchmark per process.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file.json>]
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones (and write the spans
// as Chrome trace-event JSON to --trace-out).
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace e2e {

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void info(const std::string& line) { std::cout << line << '\n' << std::flush; }

std::string setup_line(const std::vector<double>& setup_s) {
  std::ostringstream line;
  line << "setup: " << setup_s.size() << " set-ups, median " << median(setup_s) << " s, min "
       << quantile(setup_s, 0.0) << " s, max " << quantile(setup_s, 1.0) << " s";
  return line.str();
}

namespace {

// Every metric a run reports, in print order. A workload fills the ones
// its layers exercise; a per-layer metric it leaves out reads 0.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"pass_vs_serial", "x"},
    {"speedup_vs_serial", "x"},
    {"peak_rss_mib", "MiB"},
};
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"wall.pass_s", "s"},
    {"wall.geomean_mverts_per_s", "Mvertices/s"},
    {"mesh.generate_s", "s"},
    {"mesh.sweep_graphs_s", "s"},
    {"graph.generate_s", "s"},
    {"graph.reverse_s", "s"},
    {"graph.prescan_s", "s"},
    {"core.ecl_s", "s"},
    {"core.phase1_s", "s"},
    {"core.phase2_s", "s"},
    {"core.phase3_s", "s"},
    {"core.unphased_s", "s"},
    {"core.certify_s", "s"},
    {"core.outer_iterations", "count"},
    {"core.propagation_rounds", "count"},
    {"core.hashbag_rounds", "count"},
    {"core.chains_collapsed", "count"},
    {"core.edges_processed", "count"},
    {"core.edge_skip_ratio", "ratio"},
    {"core.hub_reorders", "count"},
    {"device.kernel_launches", "count"},
    {"device.block_imbalance", "ratio"},
    {"device.steal_fraction", "ratio"},
    {"sweep.plan_s", "s"},
    {"dynamic.merges", "count"},
    {"dynamic.splits", "count"},
    {"dynamic.local_recomputes", "count"},
    {"dynamic.full_rebuilds", "count"},
    {"service.queue_ms", "ms"},
    {"service.compute_ms", "ms"},
    {"service.certify_ms", "ms"},
    {"service.fresh_attempts", "count"},
    {"service.degraded_responses", "count"},
    {"service.labels_p50_ms", "ms"},
    {"service.labels_p90_ms", "ms"},
    {"service.update_p50_ms", "ms"},
    {"service.reach_p99_ms", "ms"},
    {"fleet.exchange_rounds", "count"},
    {"fleet.boundary_vertices", "count"},
    {"fleet.hashbag_rounds", "count"},
    {"fleet.certify_s", "s"},
    {"fleet.device_busy_imbalance", "ratio"},
    {"fleet.single_device_pass_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"reference.serial_pass_s", "s"},
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(const Outcome& out, bool trace) {
  std::map<std::string, double> given;
  for (const Metric& m : trace ? out.per_layer : out.end_to_end) given[m.name] = m.value;
  std::ostringstream js;
  js << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : trace ? kPerLayer : kEndToEnd) {
    const auto it = given.find(name);
    if (it == given.end() && !trace)
      throw std::logic_error(std::string("workload did not report ") + name);
    const double value = it == given.end() ? 0.0 : it->second;
    js << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << json_number(value)
       << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  js << "}}";
  return js.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload <mesh-sweep|powerlaw-batch|service-mixed|"
               "fleet-sharded> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") opts.workload = value;
      else if (flag == "--seed") opts.seed = std::stoull(value);
      else if (flag == "--seconds") opts.seconds = std::stod(value);
      else if (flag == "--trace") opts.trace = std::stoi(value) != 0;
      else if (flag == "--trace-out") opts.trace_out = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (opts.workload.empty()) usage("--workload is required");
  if (!(opts.seconds > 0.0)) usage("--seconds must be positive");
  return opts;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Options opts = parse(argc, argv);
  const std::map<std::string, std::function<Outcome(const Options&, Tracer&)>> workloads = {
      {"mesh-sweep", run_mesh_sweep},
      {"powerlaw-batch", run_powerlaw_batch},
      {"service-mixed", run_service_mixed},
      {"fleet-sharded", run_fleet_sharded},
  };
  const auto it = workloads.find(opts.workload);
  if (it == workloads.end()) usage("unknown workload " + opts.workload);

  info("workload " + opts.workload + " seed " + std::to_string(opts.seed) + " seconds " +
       json_number(opts.seconds) + " trace " + (opts.trace ? "1" : "0"));
  const char* omp = std::getenv("OMP_NUM_THREADS");
  info(std::string("threads: OMP_NUM_THREADS=") + (omp ? omp : "unset"));
  try {
    Tracer tracer(opts.trace);
    const Outcome out = it->second(opts, tracer);
    if (opts.trace && !opts.trace_out.empty()) {
      if (!tracer.write_chrome_json(opts.trace_out)) {
        std::cerr << "e2ebench: cannot write trace to " << opts.trace_out << '\n';
        return 1;
      }
      info("trace: " + std::to_string(tracer.size()) + " spans written to " + opts.trace_out);
    }
    std::cout << result_json(out, opts.trace) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << opts.workload << " aborted: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

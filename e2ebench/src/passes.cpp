#include "passes.hpp"

#include <sstream>

#include "reference.hpp"

namespace e2e {

PassTimes run_passes(const Options& opts, const std::vector<NamedGraph>& graphs,
                     PassWorkload& workload) {
  const std::size_t n_graphs = graphs.size();
  PassTimes times;
  times.per_graph.resize(n_graphs);
  times.serial_per_graph.resize(n_graphs);
  std::vector<double> seconds(n_graphs);
  double measured = 0.0;
  std::size_t pass = 0;
  // Whole rounds only: a round is one pass, or a traced + untraced pair.
  while (measured < opts.seconds) {
    for (int half = 0; half < (opts.trace ? 2 : 1); ++half, ++pass) {
      const bool traced = opts.trace && half == 0;
      workload.begin_pass(traced);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < n_graphs; ++i)
        seconds[i] = workload.solve(i, traced, pass * n_graphs + i);
      const double wall = seconds_since(t0);
      measured += wall;
      times.attempted += n_graphs;
      times.failed += workload.end_pass(pass, traced, wall);
      if (traced) {
        double covered = 0.0;
        for (const double s : seconds) covered += s;
        times.traced_walls.push_back(wall);
        times.traced_coverage.push_back(covered / wall);
      } else {
        times.untraced_walls.push_back(wall);
        for (std::size_t i = 0; i < n_graphs; ++i) times.per_graph[i].push_back(seconds[i]);
        // The paired serial pass: the benchmark's own Tarjan over the same
        // graphs, right after the pass it is paired with.
        for (std::size_t i = 0; i < n_graphs; ++i) {
          const auto s0 = Clock::now();
          (void)reference_scc(graphs[i].graph);
          times.serial_per_graph[i].push_back(seconds_since(s0));
        }
      }
    }
  }
  times.peak_rss_mib = peak_rss_mib();
  return times;
}

Outcome summarize_passes(const Options& opts, const std::vector<NamedGraph>& graphs,
                         const PassTimes& times, const std::vector<double>& setup_s,
                         const std::function<std::string(std::size_t)>& note) {
  const std::size_t passes = times.untraced_walls.size();
  std::vector<double> throughput, speedup;
  double best_pass = 0.0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const double t = best_of(times.per_graph[i]);
    best_pass += t;
    const double mverts = static_cast<double>(graphs[i].graph.num_vertices()) / t / 1e6;
    throughput.push_back(mverts);
    std::vector<double> paired;
    for (std::size_t p = 0; p < passes; ++p)
      paired.push_back(times.serial_per_graph[i][p] / times.per_graph[i][p]);
    speedup.push_back(median(paired));
    std::ostringstream line;
    line << "graph " << graphs[i].name << " n=" << graphs[i].graph.num_vertices()
         << " m=" << graphs[i].graph.num_edges() << " best_ms=" << t * 1e3
         << " median_ms=" << median(times.per_graph[i]) * 1e3 << " mverts_per_s=" << mverts
         << " serial_median_ms=" << median(times.serial_per_graph[i]) * 1e3
         << " speedup_vs_serial=" << speedup.back() << note(i);
    info(line.str());
  }
  std::vector<double> serial_walls, vs_serial;
  for (std::size_t p = 0; p < passes; ++p) {
    double serial = 0.0;
    for (const auto& per_pass : times.serial_per_graph) serial += per_pass[p];
    serial_walls.push_back(serial);
    vs_serial.push_back(times.untraced_walls[p] / serial);
  }
  info("passes: " + std::to_string(passes) + " untraced, median wall " +
       std::to_string(median(times.untraced_walls)) + " s, best-of-N " +
       std::to_string(best_pass) + " s, geomean " + std::to_string(geomean(throughput)) +
       " Mvertices/s; paired serial pass median " + std::to_string(median(serial_walls)) + " s");
  info(setup_line(setup_s));
  Outcome out;
  out.attempted = times.attempted;
  out.failed = times.failed;
  if (!opts.trace)
    out.end_to_end = {
        {"setup_s", median(setup_s), "s"},
        {"pass_vs_serial", median(vs_serial), "x"},
        {"speedup_vs_serial", geomean(speedup), "x"},
        {"peak_rss_mib", times.peak_rss_mib, "MiB"},
    };
  else
    out.per_layer = {
        {"wall.pass_s", best_pass, "s"},
        {"wall.geomean_mverts_per_s", geomean(throughput), "Mvertices/s"},
        {"reference.serial_pass_s", median(serial_walls), "s"},
    };
  return out;
}

std::vector<Metric> trace_metrics(const PassTimes& times) {
  return {
      {"trace.coverage", median(times.traced_coverage), "ratio"},
      {"trace.overhead_frac", median(times.traced_walls) / median(times.untraced_walls) - 1.0,
       "ratio"},
  };
}

}  // namespace e2e

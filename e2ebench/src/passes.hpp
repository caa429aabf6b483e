#ifndef E2EBENCH_PASSES_HPP
#define E2EBENCH_PASSES_HPP
// The measurement policy shared by the graph-batch workloads (mesh-sweep,
// powerlaw-batch, fleet-sharded): whole passes over a list of graphs until
// the run's seconds are spent, traced passes alternating with untraced ones
// in a traced run, a paired serial pass after every untraced pass, and the
// end-to-end and tracing metrics computed from those times. A workload supplies only its solve
// step, its checks and its layer accumulation.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"

namespace e2e {

/// A batch workload as the pass loop sees it.
class PassWorkload {
 public:
  virtual ~PassWorkload() = default;
  /// Called before a pass's first solve, outside the timed region.
  virtual void begin_pass(bool traced) = 0;
  /// Solves graph i once and returns the seconds the solve took. A traced
  /// solve records its spans under `span_id` and adds its layer quantities
  /// to the pass's record.
  virtual double solve(std::size_t i, bool traced, std::uint64_t span_id) = 0;
  /// Called after a pass's last solve, outside the timed region: checks
  /// the pass's outputs and closes a traced pass's record. Returns the
  /// number of graphs whose output failed a check.
  virtual std::uint64_t end_pass(std::size_t pass, bool traced, double wall) = 0;
};

/// Times of every pass of a run.
struct PassTimes {
  std::vector<std::vector<double>> per_graph;  ///< untraced solve seconds, per graph
  std::vector<std::vector<double>> serial_per_graph;  ///< paired serial Tarjan seconds, per graph
  std::vector<double> untraced_walls, traced_walls;
  std::vector<double> traced_coverage;  ///< solve-span seconds / wall, per traced pass
  std::uint64_t attempted = 0, failed = 0;
  double peak_rss_mib = 0.0;  ///< the process's peak memory, read after the last pass
};

/// Runs whole rounds (one pass, or a traced + untraced pair in a traced
/// run) over `graphs` until `opts.seconds` of pass wall time are measured.
/// Every untraced pass is followed by its paired serial pass: the
/// benchmark's own Tarjan over the same graphs, each graph timed, outside
/// the pass wall. The workload's closing set-ups follow this call.
PassTimes run_passes(const Options& opts, const std::vector<NamedGraph>& graphs,
                     PassWorkload& workload);

/// Prints one line per graph (its size, best and median solve time,
/// throughput, paired serial time, then `note(i)`) and a pass summary
/// line, and returns the run's outcome: its attempted and failed counts
/// and, untraced, the four end-to-end metrics. pass_vs_serial is the median
/// over passes of the pass wall over its paired serial pass;
/// speedup_vs_serial the geometric mean over graphs of each graph's median
/// serial / solve time ratio. Traced, it returns the raw wall metrics
/// (best-of-N pass, geomean throughput) and the serial pass as per-layer
/// metrics.
Outcome summarize_passes(const Options& opts, const std::vector<NamedGraph>& graphs,
                         const PassTimes& times, const std::vector<double>& setup_s,
                         const std::function<std::string(std::size_t)>& note);

/// trace.coverage and trace.overhead_frac of a traced run.
std::vector<Metric> trace_metrics(const PassTimes& times);

}  // namespace e2e

#endif  // E2EBENCH_PASSES_HPP

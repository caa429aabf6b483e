#ifndef E2EBENCH_BENCH_HPP
#define E2EBENCH_BENCH_HPP
// Shared vocabulary of the end-to-end benchmark: command-line options, the
// pinned thread counts, the metric record every workload fills, and the
// small statistics the workloads report (medians, percentiles, geomeans).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event file written by a traced run
};

/// Thread counts the benchmark pins from outside the program. The program
/// has no global worker override, so every layer that takes a count gets
/// one explicitly; OpenMP (used by certify_scc and the ecl-omp backend)
/// reads OMP_NUM_THREADS, which the launcher sets per workload. Every
/// workload keeps at most two threads busy on the 4-vCPU host: with all
/// four in the device's spin barriers, any other activity on the host
/// stalls a whole grid, and a same-seed test spread ~25% against ~10% at
/// two (README.md, "Pinned threads"). The fleet pool has one 2-worker
/// device: with two devices sharded_scc spawns and joins a thread per
/// device at every lockstep step, and that spawn latency follows the
/// host's scheduler, not the program (README.md, "Steadiness").
struct ThreadPins {
  static constexpr unsigned kHostWorkers = 2;           ///< single Device host_workers
  static constexpr unsigned kPoolDevices = 1;           ///< fleet DevicePool devices
  static constexpr unsigned kPoolThreadBudget = 2;      ///< fleet DevicePool thread_budget
  static constexpr unsigned kServiceWorkers = 2;        ///< SccService workers
  static constexpr unsigned kServiceDeviceWorkers = 1;  ///< SccService device_workers
  static constexpr unsigned kServiceClients = 2;        ///< closed-loop client threads
};

/// Set-ups a workload times at each end of its run: before the first pass,
/// and again after the last one, once peak memory is read and the live
/// inputs are released. setup_s is the median of all of them, so it
/// samples the host at two moments a run apart instead of one: the
/// host's speed drifts over tens of seconds, and set-ups made back to back
/// all see the same moment.
inline constexpr int kSetupRepeats = 4;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main for printing.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile q in [0, 1] (0.5 = median); 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Median over `records` of one field (a data member pointer or a callable).
template <class Record, class Field>
double median_of(const std::vector<Record>& records, Field field) {
  std::vector<double> v;
  v.reserve(records.size());
  for (const Record& r : records) v.push_back(static_cast<double>(std::invoke(field, r)));
  return median(v);
}

/// Fastest of a graph's timed solves in a run (best-of-N, the statistic the
/// repository's benches use): the host's noise only ever adds time.
inline double best_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Percentile q kept only when at least ten samples lie beyond it (the
/// tail rule); otherwise 0, which readers take as "not enough samples".
inline double tail_quantile(const std::vector<double>& v, double q) {
  const double beyond = (1.0 - q) * static_cast<double>(v.size());
  return beyond >= 10.0 ? quantile(v, q) : 0.0;
}

inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Peak resident set of this process in MiB.
double peak_rss_mib();

/// Prints one human-readable line (never the last line of stdout).
void info(const std::string& line);

/// "setup: N set-ups, median ..., min ..., max ..." for the info output.
std::string setup_line(const std::vector<double>& setup_s);

Outcome run_mesh_sweep(const Options& opts, Tracer& tracer);
Outcome run_powerlaw_batch(const Options& opts, Tracer& tracer);
Outcome run_service_mixed(const Options& opts, Tracer& tracer);
Outcome run_fleet_sharded(const Options& opts, Tracer& tracer);

}  // namespace e2e

#endif  // E2EBENCH_BENCH_HPP

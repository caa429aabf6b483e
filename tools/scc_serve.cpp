// Dev tool: stand up an SccService on a graph file (or a generated
// workload) and drive it with an open-loop mixed request stream, printing
// per-status counts, tier breakdown, latency percentiles, and final breaker
// states. The interactive cousin of bench/bench_service_soak for poking at
// the pipeline's knobs.
//
//   scc_serve [<graph-file>] [--requests N] [--rate RPS] [--deadline-ms D]
//             [--staleness N] [--workers N] [--queue N] [--backends a,b,c]
//             [--devices N] [--shards K] [--chaos SEED] [--no-breakers]
//             [--no-degradation] [--seed S] [--stats]
//
// --chaos SEED installs the seeded composite FaultPlan (FaultPlan::
// from_seed) on every worker's device, so the live backends misbehave the
// same reproducible way the chaos test suite exercises — and the breaker /
// certifier / quarantine machinery can be watched doing its job.
//
// --devices N runs the service in fleet mode (DESIGN.md §13): N pooled
// devices shared by all workers behind the GraphRouter, with per-device
// health/quarantine. --shards K (with --devices) routes fresh label
// computes through the sharded cross-device fixpoint instead of
// whole-graph placement. Under --chaos each pool device draws its own
// plan from a per-device seed (golden-ratio stride off the run seed;
// device 0 matches the single-device plan), so faults land asymmetrically
// and exercise the §14 failover path.
//
// --stats additionally prints the aggregated per-worker device launch
// statistics after shutdown (launch counts, the work-weighted block
// imbalance metric, a per-block edge-work histogram, DESIGN.md §11) plus
// the self-healing counters: checkpoints, resumes, certifier activity, and
// per-backend health/quarantine state (DESIGN.md §12). In fleet mode it
// also prints one row per pool device (launches, blocks, imbalance) and
// the pool's per-device health, so placement skew and quarantines are
// visible.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "device/fault.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "service/scc_service.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"

using namespace ecl;
using service::Request;
using service::RequestKind;
using service::Response;
using service::SccService;
using service::ServiceConfig;

namespace {

std::vector<std::string> split_names(const char* csv) {
  std::vector<std::string> names;
  std::string current;
  for (const char* p = csv;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!current.empty()) names.push_back(current);
      current.clear();
      if (*p == '\0') break;
    } else {
      current.push_back(*p);
    }
  }
  return names;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[static_cast<std::size_t>(p * double(sorted.size() - 1))];
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_file;
  std::size_t num_requests = 200;
  double rate = 500.0;
  double deadline_ms = 100.0;
  std::uint64_t staleness = 1u << 20;
  std::uint64_t seed = 42;
  ServiceConfig cfg;
  bool chaos = false;
  std::uint64_t chaos_seed = 0;
  bool show_device_stats = false;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--requests")) {
      num_requests = std::strtoull(next("--requests"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--rate")) {
      rate = std::strtod(next("--rate"), nullptr);
    } else if (!std::strcmp(argv[i], "--deadline-ms")) {
      deadline_ms = std::strtod(next("--deadline-ms"), nullptr);
    } else if (!std::strcmp(argv[i], "--staleness")) {
      staleness = std::strtoull(next("--staleness"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--workers")) {
      cfg.workers = static_cast<unsigned>(std::strtoul(next("--workers"), nullptr, 10));
    } else if (!std::strcmp(argv[i], "--queue")) {
      cfg.queue_capacity = std::strtoull(next("--queue"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--backends")) {
      cfg.backends = split_names(next("--backends"));
    } else if (!std::strcmp(argv[i], "--devices")) {
      cfg.pool_devices = static_cast<unsigned>(std::strtoul(next("--devices"), nullptr, 10));
    } else if (!std::strcmp(argv[i], "--shards")) {
      cfg.shards = static_cast<unsigned>(std::strtoul(next("--shards"), nullptr, 10));
    } else if (!std::strcmp(argv[i], "--chaos")) {
      chaos = true;
      chaos_seed = std::strtoull(next("--chaos"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--no-breakers")) {
      cfg.enable_breakers = false;
    } else if (!std::strcmp(argv[i], "--no-degradation")) {
      cfg.enable_degradation = false;
    } else if (!std::strcmp(argv[i], "--seed")) {
      seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--stats")) {
      show_device_stats = true;
    } else if (argv[i][0] != '-' && graph_file.empty()) {
      graph_file = argv[i];
    } else {
      std::fprintf(
          stderr,
          "usage: %s [<graph-file>] [--requests N] [--rate RPS] [--deadline-ms D]\n"
          "          [--staleness N] [--workers N] [--queue N] [--backends a,b,c]\n"
          "          [--devices N] [--shards K] [--chaos SEED] [--no-breakers]\n"
          "          [--no-degradation] [--seed S] [--stats]\n",
          argv[0]);
      return 2;
    }
  }

  cfg.seed = seed;
  std::string chaos_banner;
  if (chaos) {
    // The same seeded composite plans the chaos test suite draws from: the
    // seed picks which fault axes are armed and how hard.
    cfg.device_profile.fault_plan = device::FaultPlan::from_seed(chaos_seed);
    chaos_banner = ", chaos [" + cfg.device_profile.fault_plan.describe() + "]";
    if (cfg.pool_devices > 0) {
      // Fleet mode: every pool device draws its OWN plan, derived from the
      // run seed by golden-ratio stride so faults land asymmetrically (the
      // interesting failover case) yet reproducibly. Device 0's plan equals
      // the single-device plan for the same seed.
      cfg.pool_fault_plans.clear();
      for (unsigned i = 0; i < cfg.pool_devices; ++i)
        cfg.pool_fault_plans.push_back(
            device::FaultPlan::from_seed(chaos_seed + 0x9e3779b97f4a7c15ull * i));
    }
  }

  Rng rng(seed);
  graph::Digraph g = [&] {
    if (!graph_file.empty()) return graph::read_graph_file(graph_file);
    graph::SccProfile profile;
    profile.num_vertices = 512;
    profile.avg_degree = 4.0;
    profile.mid_sccs = 8;
    return graph::scc_profile_graph(profile, rng);
  }();
  std::string fleet_banner;
  if (cfg.pool_devices > 0)
    fleet_banner = ", fleet [" + std::to_string(cfg.pool_devices) + " devices, " +
                   std::to_string(std::max(1u, cfg.shards)) + " shards]";
  std::printf("serving %u vertices / %llu edges; %zu requests at %.0f rps, "
              "deadline %.0fms%s%s\n",
              g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
              num_requests, rate, deadline_ms, chaos_banner.c_str(), fleet_banner.c_str());

  SccService svc(g, cfg);
  struct InFlight {
    std::future<Response> future;
    service::ServiceClock::time_point submitted_at;
  };
  std::vector<InFlight> inflight;
  inflight.reserve(num_requests);
  const auto interarrival = std::chrono::duration_cast<service::ServiceClock::duration>(
      std::chrono::duration<double>(rate > 0 ? 1.0 / rate : 0.0));

  for (std::size_t i = 0; i < num_requests; ++i) {
    Request req;
    req.deadline = Request::deadline_in(deadline_ms / 1e3);
    req.staleness_budget = staleness;
    const auto draw = rng.bounded(10);
    if (draw < 6) {
      req.kind = RequestKind::kSccLabels;
    } else if (draw < 8) {
      req.kind = RequestKind::kReachabilityQuery;
      req.u = static_cast<graph::vid>(rng.bounded(g.num_vertices()));
      req.v = static_cast<graph::vid>(rng.bounded(g.num_vertices()));
    } else if (draw < 9) {
      req.kind = RequestKind::kCondensation;
    } else {
      req.kind = RequestKind::kUpdateBatch;
      req.updates = {{graph::EdgeUpdate::Kind::kInsert,
                      static_cast<graph::vid>(rng.bounded(g.num_vertices())),
                      static_cast<graph::vid>(rng.bounded(g.num_vertices()))}};
    }
    inflight.push_back({svc.submit(req), service::ServiceClock::now()});
    if (interarrival.count() > 0) std::this_thread::sleep_for(interarrival);
  }

  std::vector<double> latencies_ms;
  std::vector<std::uint64_t> by_status(6, 0);
  std::uint64_t degraded = 0;
  for (auto& f : inflight) {
    const Response r = f.future.get();
    by_status[static_cast<std::size_t>(r.status)]++;
    if (r.ok() && r.degraded()) ++degraded;
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(r.completed_at - f.submitted_at).count());
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());

  TextTable table({"status", "count"});
  for (std::size_t s = 0; s < by_status.size(); ++s) {
    if (by_status[s] == 0) continue;
    table.add_row({service::service_status_name(static_cast<service::ServiceStatus>(s)),
                   std::to_string(by_status[s])});
  }
  std::printf("\n%s\n", table.render().c_str());

  const auto stats = svc.stats();
  std::printf("degraded serves: %llu (stale %llu, serial %llu); fresh attempts %llu, "
              "backend failures %llu, breaker skips %llu, overload sheds %llu\n",
              static_cast<unsigned long long>(degraded),
              static_cast<unsigned long long>(stats.served_stale),
              static_cast<unsigned long long>(stats.served_serial),
              static_cast<unsigned long long>(stats.fresh_attempts),
              static_cast<unsigned long long>(stats.backend_failures),
              static_cast<unsigned long long>(stats.breaker_skips),
              static_cast<unsigned long long>(stats.overload_sheds));
  std::printf("latency ms: p50 %.2f  p99 %.2f  p999 %.2f  max %.2f\n",
              percentile(latencies_ms, 0.50), percentile(latencies_ms, 0.99),
              percentile(latencies_ms, 0.999),
              latencies_ms.empty() ? 0.0 : latencies_ms.back());
  for (const auto& h : svc.backend_health())
    std::printf("health[%s] = %s (score %.2f/%zu; stall %llu, overflow %llu, cert %llu, "
                "deadline %llu; quarantined %llu, readmitted %llu)\n",
                h.name.c_str(), service::backend_health_name(h.health), h.score, h.samples,
                static_cast<unsigned long long>(
                    h.faults[static_cast<std::size_t>(service::FaultKind::kStall)]),
                static_cast<unsigned long long>(
                    h.faults[static_cast<std::size_t>(service::FaultKind::kOverflow)]),
                static_cast<unsigned long long>(
                    h.faults[static_cast<std::size_t>(service::FaultKind::kCertification)]),
                static_cast<unsigned long long>(
                    h.faults[static_cast<std::size_t>(service::FaultKind::kDeadline)]),
                static_cast<unsigned long long>(h.quarantines),
                static_cast<unsigned long long>(h.readmissions));
  const service::RecoveryStats rec = svc.recovery_stats();
  std::printf("recovery: %llu checkpoints, %llu resumes, %llu rounds replayed; "
              "certifier %llu runs / %llu rejections / %.3fs; "
              "quarantines %llu, probations %llu, readmissions %llu\n",
              static_cast<unsigned long long>(rec.checkpoints_taken),
              static_cast<unsigned long long>(rec.resumes),
              static_cast<unsigned long long>(rec.rounds_replayed),
              static_cast<unsigned long long>(rec.certifications),
              static_cast<unsigned long long>(rec.certification_failures), rec.certify_seconds,
              static_cast<unsigned long long>(rec.quarantines),
              static_cast<unsigned long long>(rec.probations),
              static_cast<unsigned long long>(rec.readmissions));
  std::printf("high-diameter: %llu local searches moved a signature\n",
              static_cast<unsigned long long>(rec.chains_collapsed));
  if (show_device_stats)
    std::printf("fleet recovery: %llu failovers, %llu shards re-homed; "
                "stragglers %llu flagged, %llu migrated\n",
                static_cast<unsigned long long>(rec.failovers),
                static_cast<unsigned long long>(rec.shards_rehomed),
                static_cast<unsigned long long>(rec.stragglers_flagged),
                static_cast<unsigned long long>(rec.straggler_migrations));
  svc.shutdown();

  if (show_device_stats) {
    // Workers fold their device stats in as they exit, so this is complete
    // only after shutdown().
    const device::LaunchStats ds = svc.device_stats();
    std::printf("\ndevice: %llu launches, %llu blocks, %llu replays; "
                "block imbalance (max/mean, work-weighted) %.3f\n",
                static_cast<unsigned long long>(ds.kernel_launches),
                static_cast<unsigned long long>(ds.blocks_executed),
                static_cast<unsigned long long>(ds.spurious_replays), ds.block_imbalance());
    if (!ds.block_edge_work.empty()) {
      const std::uint64_t top =
          *std::max_element(ds.block_edge_work.begin(), ds.block_edge_work.end());
      TextTable hist({"block", "edge work", ""});
      // Print the first 32 blocks (the interesting skew is at low IDs, where
      // block-cyclic remainders land); the scale bar is relative to the max.
      const std::size_t shown = std::min<std::size_t>(ds.block_edge_work.size(), 32);
      for (std::size_t b = 0; b < shown; ++b) {
        const std::uint64_t w = ds.block_edge_work[b];
        const std::size_t bars =
            top > 0 ? static_cast<std::size_t>((w * 40 + top - 1) / top) : 0;
        hist.add_row({std::to_string(b), std::to_string(w), std::string(bars, '#')});
      }
      std::printf("%s\n", hist.render().c_str());
      if (ds.block_edge_work.size() > shown)
        std::printf("(%zu more blocks)\n", ds.block_edge_work.size() - shown);
    }
    if (svc.pool_mode()) {
      // Fleet mode: one row per pool device, so placement skew (router) and
      // per-shard load (sharded runs) are visible, plus each device's
      // health/quarantine standing.
      TextTable devices({"device", "launches", "blocks", "replays", "imbalance"});
      for (const auto& [name, s] : svc.pool_device_stats()) {
        char imbalance[32];
        std::snprintf(imbalance, sizeof imbalance, "%.3f", s.block_imbalance());
        devices.add_row({name, std::to_string(s.kernel_launches),
                         std::to_string(s.blocks_executed),
                         std::to_string(s.spurious_replays), imbalance});
      }
      std::printf("\n%s\n", devices.render().c_str());
      for (const auto& h : svc.device_pool()->health().snapshot())
        std::printf("pool health[%s] = %s (score %.2f/%zu; quarantined %llu, "
                    "readmitted %llu)\n",
                    h.name.c_str(), service::backend_health_name(h.health), h.score,
                    h.samples, static_cast<unsigned long long>(h.quarantines),
                    static_cast<unsigned long long>(h.readmissions));
    }
  }
  return 0;
}

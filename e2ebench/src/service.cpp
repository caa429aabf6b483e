// service-mixed: SccService over a seeded power-law graph, driven in a
// closed loop by two client threads. Each round the two clients together
// send ten requests in the mix of the repository's service soak bench
// (bench/bench_service_soak.cpp): six full-labels requests, two same-SCC
// reachability queries, one condensation request and one update batch.
// The two meet at a barrier at the end of every round, so a round is the
// unit of work ("pass") and every run attempts whole rounds.
//
// A run serves kInstances graphs of the same profile, each behind its own
// SccService, and round r goes to instance r mod kInstances. One graph of
// this size is not a steady sample: its labels cost relative to the
// serial reference differs up to 2x from graph to graph, so the run
// reports the median instance.
//
// Only the writer mutates the graph, and the benchmark replays its batches
// itself: after the run, every labels, condensation and reachability
// response is checked against the benchmark's reference SCCs of the graph
// at the epoch its ServedBy names.
#include <algorithm>
#include <barrier>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "fleet/device_pool.hpp"
#include "graph/update_stream.hpp"
#include "inputs.hpp"
#include "reference.hpp"
#include "service/scc_service.hpp"
#include "support/rng.hpp"

namespace e2e {
namespace {

namespace svc = ecl::service;
using ecl::graph::EdgeUpdate;

constexpr const char* kProfile = "web-Google";
constexpr double kServiceScale = 0.01;
constexpr std::size_t kBatchSize = 8;
constexpr std::size_t kInstances = 8;
// The base graphs do not follow the seed: drawn per seed, the eight
// graphs' cost moved the workload's figure by up to 1.6x from seed to
// seed (README.md, "Steadiness"), so the figure measured the draw, not
// the service. The seed drives the update streams and the queries.
constexpr std::uint64_t kGraphSeed = 0;
constexpr std::size_t kStreamBatches = 2048;  // rounds per instance a run may use, at most

// One round's requests per client. Only the writer updates the graph. It
// also sends the condensation request: SccService::serve_condensation
// reads the epoch and the condensation in two separate calls, so an update
// applied between them would leave the answer stamped with the wrong epoch,
// and the check could not tell which graph it describes.
constexpr svc::RequestKind kWriterScript[] = {
    svc::RequestKind::kUpdateBatch, svc::RequestKind::kCondensation,
    svc::RequestKind::kSccLabels, svc::RequestKind::kSccLabels, svc::RequestKind::kSccLabels};
constexpr svc::RequestKind kReaderScript[] = {
    svc::RequestKind::kSccLabels, svc::RequestKind::kReachabilityQuery,
    svc::RequestKind::kSccLabels, svc::RequestKind::kReachabilityQuery,
    svc::RequestKind::kSccLabels};

struct Record {
  std::size_t instance = 0;
  std::size_t round = 0;
  svc::RequestKind kind = svc::RequestKind::kSccLabels;
  svc::ServiceStatus status = svc::ServiceStatus::kUnavailable;
  svc::Tier tier = svc::Tier::kNone;
  bool ecl_backend = false;
  std::uint64_t epoch = 0;
  double latency_s = 0.0, queue_s = 0.0, compute_s = 0.0, certify_s = 0.0;
  std::uint64_t digest = 0;  ///< labels: partition digest; condensation: condensation_digest
  bool max_named = false;    ///< labels: classes named by maximum member
  std::uint64_t certify_failures = 0;  ///< labels: attempts the certifier rejected first
  vid u = 0, v = 0;          ///< reachability operands
  bool reachable = false;
  std::size_t batch = 0;     ///< update: index into the stream's batches
  std::size_t applied = 0;   ///< update: updates the service applied
};

/// One served graph: its inputs, its service, and the writer's position in
/// its update stream (touched only by the writer client).
struct Instance {
  Digraph graph;
  ecl::graph::UpdateStream stream;
  /// The dynamic engine's device for its initial labeling and full
  /// rebuilds; without one it would use the process-wide device, whose
  /// worker count is the host's core count. Outlives `service`.
  std::unique_ptr<ecl::device::Device> engine_device;
  std::unique_ptr<svc::SccService> service;
  std::size_t next_batch = 0;
};

/// Instance k's base graph is the same at every seed (drawn from
/// kGraphSeed); its update stream comes from the run's seed.
Instance make_inputs(std::uint64_t seed, std::size_t k) {
  const std::string instance = "service/instance" + std::to_string(k);
  Instance in;
  in.graph = power_law_graph(kProfile, kServiceScale, stream_seed(kGraphSeed, instance));
  ecl::graph::UpdateStreamOptions uopts;
  uopts.num_updates = kBatchSize * kStreamBatches;
  uopts.insert_fraction = 0.5;
  ecl::Rng rng(stream_seed(seed, instance + "/updates"));
  in.stream = ecl::graph::generate_update_stream(in.graph, uopts, rng);
  return in;
}

svc::ServiceConfig service_config(std::uint64_t seed) {
  svc::ServiceConfig cfg;
  cfg.workers = ThreadPins::kServiceWorkers;
  cfg.device_workers = ThreadPins::kServiceDeviceWorkers;
  cfg.seed = stream_seed(seed, "service/retry");
  return cfg;
}

/// Same-SCC query operands: half follow an edge of the base graph (often
/// inside one SCC), half are uniform vertex pairs.
std::pair<vid, vid> query_pair(const Digraph& g, ecl::Rng& rng) {
  const vid n = g.num_vertices();
  const auto u = static_cast<vid>(rng.bounded(n));
  const auto out = g.out_neighbors(u);
  if (!out.empty() && rng.bounded(2) == 0) return {u, out[rng.bounded(out.size())]};
  return {u, static_cast<vid>(rng.bounded(n))};
}

class Client {
 public:
  Client(std::vector<Instance>& instances, Tracer& tracer, bool writer, std::uint64_t seed)
      : instances_(instances), tracer_(tracer), writer_(writer),
        rng_(stream_seed(seed, writer ? "service/writer" : "service/reader")) {}

  /// Round `r` of this client's script, sent to instance r mod kInstances;
  /// returns the summed duration of the requests it sent (the span-covered
  /// time when traced).
  double round(std::size_t r, bool traced, std::uint64_t& next_id) {
    const std::size_t k = r % kInstances;
    Instance& inst = instances_[k];
    double busy = 0.0;
    const std::span<const svc::RequestKind> script =
        writer_ ? std::span<const svc::RequestKind>(kWriterScript)
                : std::span<const svc::RequestKind>(kReaderScript);
    for (const svc::RequestKind kind : script) {
      svc::Request req;
      req.kind = kind;
      Record rec;
      rec.round = r;
      if (kind == svc::RequestKind::kUpdateBatch) {
        const auto begin =
            inst.stream.begin() + static_cast<std::ptrdiff_t>(inst.next_batch * kBatchSize);
        req.updates.assign(begin, begin + static_cast<std::ptrdiff_t>(kBatchSize));
        rec.batch = inst.next_batch++;
      } else if (kind == svc::RequestKind::kReachabilityQuery) {
        std::tie(req.u, req.v) = query_pair(inst.graph, rng_);
        rec.u = req.u;
        rec.v = req.v;
      }
      busy += send(inst, k, std::move(req), rec, traced, next_id);
    }
    return busy;
  }

  std::vector<Record> records;

 private:
  double send(Instance& inst, std::size_t k, svc::Request req, Record rec, bool traced,
              std::uint64_t& next_id) {
    static const char* const kSpanNames[] = {"request.labels", "request.condensation",
                                             "request.reach", "request.update"};
    rec.instance = k;
    rec.kind = req.kind;
    Tracer::Span span(traced ? tracer_ : untraced_, kSpanNames[static_cast<int>(req.kind)],
                      next_id++);
    const svc::Response resp = inst.service->call(std::move(req));
    span.end();
    rec.latency_s = span.seconds();
    const svc::ServedBy& sb = resp.served_by;
    span.arg("queue_ms", sb.queue_seconds * 1e3);
    span.arg("compute_ms", sb.compute_seconds * 1e3);
    span.arg("certify_ms", sb.certify_seconds * 1e3);
    span.arg("epoch", static_cast<double>(sb.epoch));
    span.arg("instance", static_cast<double>(k));
    rec.status = resp.status;
    rec.tier = sb.tier;
    rec.ecl_backend = sb.backend == "ecl-a100";
    rec.epoch = sb.epoch;
    rec.queue_s = sb.queue_seconds;
    rec.compute_s = sb.compute_seconds;
    rec.certify_s = sb.certify_seconds;
    rec.reachable = resp.reachable;
    rec.applied = resp.updates_applied;
    rec.certify_failures = sb.certify_failures;
    // Digests outside the latency sample; the payloads themselves are
    // dropped here so memory does not grow with the number of requests.
    if (resp.labels) {
      rec.digest = partition_digest(resp.labels->labels);
      rec.max_named = max_member_named(resp.labels->labels);
    }
    if (rec.kind == svc::RequestKind::kCondensation)
      rec.digest = condensation_digest(resp.condensation);
    records.push_back(rec);
    return rec.latency_s;
  }

  std::vector<Instance>& instances_;
  Tracer& tracer_;
  Tracer untraced_{false};
  const bool writer_;
  ecl::Rng rng_;
};

/// Replays the writer's batches to one instance in epoch order and checks
/// every response it served against the reference SCCs at the epoch the
/// response reports. Returns failures.
std::uint64_t verify(const Instance& in, std::size_t k, const std::vector<Record>& records) {
  const vid n = in.graph.num_vertices();
  std::vector<std::vector<vid>> adj(n);
  for (vid u = 0; u < n; ++u) {
    const auto out = in.graph.out_neighbors(u);
    adj[u].assign(out.begin(), out.end());
  }
  std::map<std::uint64_t, std::vector<const Record*>> by_epoch;
  for (const Record& r : records)
    if (r.instance == k) by_epoch[r.epoch].push_back(&r);

  std::uint64_t failed = 0;
  auto fail = [&](const Record& r, const std::string& why) {
    ++failed;
    info("FAILED " + std::string(svc::request_kind_name(r.kind)) + " on instance " +
         std::to_string(k) + " at epoch " + std::to_string(r.epoch) + ": " + why);
  };
  std::size_t applied = 0;  // updates of the stream replayed so far
  for (const auto& [epoch, recs] : by_epoch) {
    // Epochs count applied updates; every stream update applies.
    if (epoch > in.stream.size()) {
      for (const Record* r : recs) fail(*r, "epoch beyond the update stream");
      continue;
    }
    for (; applied < epoch; ++applied) {
      const EdgeUpdate& up = in.stream[applied];
      auto& row = adj[up.src];
      if (up.kind == EdgeUpdate::Kind::kInsert) {
        row.push_back(up.dst);
      } else {
        const auto it = std::find(row.begin(), row.end(), up.dst);
        if (it != row.end()) {
          *it = row.back();
          row.pop_back();
        }
      }
    }
    std::vector<ecl::graph::eid> offsets(1, 0);
    std::vector<vid> targets;
    for (const auto& row : adj) {
      targets.insert(targets.end(), row.begin(), row.end());
      offsets.push_back(targets.size());
    }
    const Digraph g(std::move(offsets), std::move(targets));
    const std::vector<vid> ref = reference_scc(g);
    const std::uint64_t ref_digest = partition_digest(ref);
    std::uint64_t ref_condensation = 0;
    bool have_condensation = false;
    for (const Record* r : recs) {
      if (r->status != svc::ServiceStatus::kOk) {
        fail(*r, std::string("status ") + svc::service_status_name(r->status));
      } else if (r->kind == svc::RequestKind::kSccLabels) {
        if (r->digest != ref_digest) fail(*r, "labels partition differs from the reference");
        else if (r->ecl_backend && !r->max_named)
          fail(*r, "ECL labels not named by their maximum member");
        else if (r->certify_failures > 0)
          fail(*r, "the certifier rejected a labeling before this one was served");
      } else if (r->kind == svc::RequestKind::kCondensation) {
        if (!have_condensation) {
          ref_condensation = condensation_digest(g, ref);
          have_condensation = true;
        }
        if (r->digest != ref_condensation) fail(*r, "condensation differs from the reference");
      } else if (r->kind == svc::RequestKind::kReachabilityQuery) {
        if (r->reachable != (ref[r->u] == ref[r->v])) fail(*r, "same-SCC answer is wrong");
      } else if (r->kind == svc::RequestKind::kUpdateBatch) {
        if (r->applied != kBatchSize || r->epoch != (r->batch + 1) * kBatchSize)
          fail(*r, "update batch applied " + std::to_string(r->applied) + " updates");
      }
    }
  }
  return failed;
}

}  // namespace

Outcome run_service_mixed(const Options& opts, Tracer& tracer) {
  std::vector<double> setup_s, generate_s;
  std::vector<Instance> instances;
  auto set_up = [&] {
    instances.clear();
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kInstances; ++k) instances.push_back(make_inputs(opts.seed, k));
    generate_s.push_back(seconds_since(t0));
    for (Instance& inst : instances) {
      inst.engine_device = std::make_unique<ecl::device::Device>(ecl::device::a100_profile(),
                                                                 ThreadPins::kHostWorkers);
      svc::ServiceConfig cfg = service_config(opts.seed);
      cfg.dynamic.device = inst.engine_device.get();
      inst.service = std::make_unique<svc::SccService>(inst.graph, std::move(cfg));
    }
    setup_s.push_back(seconds_since(t0));
  };
  for (int rep = 0; rep < kSetupRepeats; ++rep) set_up();
  for (std::size_t k = 0; k < kInstances; ++k)
    info("inputs: instance " + std::to_string(k) + " " + kProfile +
         " n=" + std::to_string(instances[k].graph.num_vertices()) +
         " m=" + std::to_string(instances[k].graph.num_edges()) + ", update batches of " +
         std::to_string(kBatchSize));
  const auto& cfg = instances[0].service->config();
  info("threads: " + std::to_string(kInstances) + " services (one serving per round), workers=" +
       std::to_string(cfg.workers) + " device_workers=" + std::to_string(cfg.device_workers) +
       " clients=" + std::to_string(ThreadPins::kServiceClients) + ", dynamic engine device " +
       "host_workers=" + std::to_string(instances[0].engine_device->pool().num_workers()));

  Client writer(instances, tracer, true, opts.seed);
  Client reader(instances, tracer, false, opts.seed);
  std::uint64_t writer_ids = 0, reader_ids = 1ULL << 40;
  // Untimed warm-up, one round per instance: the workers' devices and
  // caches come up.
  for (std::size_t r = 0; r < kInstances; ++r) {
    std::thread t([&] { writer.round(r, false, writer_ids); });
    reader.round(r, false, reader_ids);
    t.join();
  }
  const std::size_t warm_writer = writer.records.size();
  const std::size_t warm_reader = reader.records.size();
  auto sum_stats = [&] {
    ecl::dynamic::DynamicStats dyn;
    svc::ServiceStats stats;
    svc::RecoveryStats rec;
    for (const Instance& inst : instances) {
      const auto d = inst.service->engine().stats();
      dyn.merges += d.merges;
      dyn.splits += d.splits;
      dyn.local_recomputes += d.local_recomputes;
      dyn.full_rebuilds += d.full_rebuilds;
      stats.fresh_attempts += inst.service->stats().fresh_attempts;
      const auto r = inst.service->recovery_stats();
      rec.hashbag_rounds += r.hashbag_rounds;
      rec.chains_collapsed += r.chains_collapsed;
    }
    return std::tuple{dyn, stats, rec};
  };
  const auto [dyn0, stats0, rec0] = sum_stats();

  // Traced runs alternate whole cycles over the instances (traced, then
  // untraced), so both halves see every graph.
  auto traced_round = [&](std::size_t r) { return opts.trace && (r / kInstances) % 2 == 0; };
  std::vector<double> walls_traced, walls_untraced, coverage;
  std::vector<std::vector<double>> walls_by_instance(kInstances), vs_serial_by_instance(kInstances);
  // Each round's paired serial labeling: both clients run the benchmark's
  // own Tarjan over the round's base graph at once, after the round, as
  // both send labels requests at once during it. The slower of the two is
  // the round's serial time, as the slower client ends the round.
  std::vector<double> serial_by_round;
  double measured = 0.0, wall = 0.0;
  double busy[2] = {0.0, 0.0}, serial[2] = {0.0, 0.0};
  bool stop = false;
  std::size_t round_no = 0;
  auto round_start = Clock::now();
  auto stream_left = [&] {
    return std::all_of(instances.begin(), instances.end(),
                        [](const Instance& inst) { return inst.next_batch < kStreamBatches; });
  };
  // Run once per round, after both clients arrive: at the end of the
  // round's requests, then at the end of its serial labelings.
  auto on_round_end = [&]() noexcept {
    wall = seconds_since(round_start);
    measured += wall;
  };
  auto on_serial_end = [&]() noexcept {
    const std::size_t k = round_no % kInstances;
    serial_by_round.push_back(std::max(serial[0], serial[1]));
    if (traced_round(round_no)) {
      walls_traced.push_back(wall);
      coverage.push_back(std::max(busy[0], busy[1]) / wall);
    } else {
      walls_untraced.push_back(wall);
      walls_by_instance[k].push_back(wall);
      vs_serial_by_instance[k].push_back(wall / serial_by_round.back());
    }
    ++round_no;
    const bool whole_cycle = round_no % (opts.trace ? 2 * kInstances : kInstances) == 0;
    stop = (measured >= opts.seconds && whole_cycle) || !stream_left();
    round_start = Clock::now();
  };
  std::barrier round_done(2, on_round_end);
  std::barrier serial_done(2, on_serial_end);
  auto drive = [&](Client& client, int slot, std::uint64_t& ids) {
    while (!stop) {
      busy[slot] = client.round(round_no, traced_round(round_no), ids);
      round_done.arrive_and_wait();
      const auto s0 = Clock::now();
      (void)reference_scc(instances[round_no % kInstances].graph);
      serial[slot] = seconds_since(s0);
      serial_done.arrive_and_wait();
    }
  };
  round_start = Clock::now();
  std::thread t([&] { drive(writer, 0, writer_ids); });
  drive(reader, 1, reader_ids);
  t.join();
  if (!stream_left()) info("note: an update stream ran out; run ended early");

  const auto [dyn, stats, rec] = sum_stats();
  ecl::device::LaunchStats dev;
  for (Instance& inst : instances) {
    inst.service->shutdown();
    ecl::fleet::merge_launch_stats(dev, inst.service->device_stats());
  }

  std::vector<Record> all(writer.records.begin() + static_cast<std::ptrdiff_t>(warm_writer),
                          writer.records.end());
  all.insert(all.end(), reader.records.begin() + static_cast<std::ptrdiff_t>(warm_reader),
             reader.records.end());
  // Read before verify(), whose replayed graphs are the benchmark's memory.
  const double peak_rss = peak_rss_mib();
  Outcome out;
  out.attempted = all.size();
  for (std::size_t k = 0; k < kInstances; ++k) out.failed += verify(instances[k], k, all);
  for (int rep = 0; rep < kSetupRepeats; ++rep) set_up();

  std::vector<double> labels_ms, update_ms, reach_ms, condensation_ms, queue_ms, compute_ms,
      certify_ms;
  std::vector<int> other_backend(kInstances);
  std::vector<std::vector<double>> labels_by_instance(kInstances),
      speedup_by_instance(kInstances);
  double degraded = 0.0;
  for (const Record& r : all) {
    queue_ms.push_back(r.queue_s * 1e3);
    if (r.tier == svc::Tier::kStaleSnapshot || r.tier == svc::Tier::kSerialFallback) ++degraded;
    switch (r.kind) {
      case svc::RequestKind::kSccLabels:
        labels_ms.push_back(r.latency_s * 1e3);
        labels_by_instance[r.instance].push_back(r.latency_s);
        if (!r.ecl_backend) ++other_backend[r.instance];
        speedup_by_instance[r.instance].push_back(serial_by_round[r.round] / r.latency_s);
        compute_ms.push_back(r.compute_s * 1e3);
        certify_ms.push_back(r.certify_s * 1e3);
        break;
      case svc::RequestKind::kUpdateBatch: update_ms.push_back(r.latency_s * 1e3); break;
      case svc::RequestKind::kReachabilityQuery: reach_ms.push_back(r.latency_s * 1e3); break;
      case svc::RequestKind::kCondensation: condensation_ms.push_back(r.latency_s * 1e3); break;
    }
  }
  std::ostringstream lat;
  lat << "latency: labels p50=" << median(labels_ms) << "ms p90=" << tail_quantile(labels_ms, 0.9)
      << "ms (n=" << labels_ms.size() << "), update p50=" << median(update_ms)
      << "ms (n=" << update_ms.size() << "), reach p50=" << median(reach_ms)
      << "ms p99=" << tail_quantile(reach_ms, 0.99) << "ms (n=" << reach_ms.size()
      << "), condensation p50=" << median(condensation_ms) << "ms (n=" << condensation_ms.size()
      << "); rounds=" << round_no << ", ok responses/s="
      << static_cast<double>(out.attempted - out.failed) / measured;
  info(lat.str());
  info(setup_line(setup_s));
  info("serial reference (iterative Tarjan) per labeling: paired median " +
       std::to_string(median(serial_by_round)) + " s");

  // Per instance first (median over its rounds or its labels requests),
  // then across instances, as the batch workloads aggregate per graph.
  double round_s = 0.0;
  std::vector<double> throughput, vs_serial, speedup;
  for (std::size_t k = 0; k < kInstances; ++k) {
    round_s += median(walls_by_instance[k]) / kInstances;
    vs_serial.push_back(median(vs_serial_by_instance[k]));
    throughput.push_back(static_cast<double>(instances[k].graph.num_vertices()) /
                         median(labels_by_instance[k]) / 1e6);
    speedup.push_back(median(speedup_by_instance[k]));
    std::ostringstream line;
    line << "instance " << k << ": n=" << instances[k].graph.num_vertices()
         << " m=" << instances[k].graph.num_edges() << " rounds=" << walls_by_instance[k].size()
         << " median_round_ms=" << median(walls_by_instance[k]) * 1e3
         << " round_vs_serial=" << vs_serial.back()
         << " labels_p50_ms=" << median(labels_by_instance[k]) * 1e3
         << " labels_speedup_vs_serial=" << speedup.back()
         << " labels_other_backend=" << other_backend[k];
    info(line.str());
  }
  info("rounds: median wall " + std::to_string(round_s) + " s, labels geomean " +
       std::to_string(geomean(throughput)) + " Mvertices/s");
  if (!opts.trace) {
    out.end_to_end = {
        {"setup_s", median(setup_s), "s"},
        {"pass_vs_serial", median(vs_serial), "x"},
        {"speedup_vs_serial", median(speedup), "x"},
        {"peak_rss_mib", peak_rss, "MiB"},
    };
    return out;
  }
  const auto rounds = static_cast<double>(round_no);
  const auto labels_per_round = static_cast<double>(
      std::count(std::begin(kWriterScript), std::end(kWriterScript), svc::RequestKind::kSccLabels) +
      std::count(std::begin(kReaderScript), std::end(kReaderScript), svc::RequestKind::kSccLabels));
  auto per_round = [&](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before) / rounds;
  };
  out.per_layer = {
      {"graph.generate_s", median(generate_s), "s"},
      {"core.hashbag_rounds", per_round(rec.hashbag_rounds, rec0.hashbag_rounds), "count"},
      {"core.chains_collapsed", per_round(rec.chains_collapsed, rec0.chains_collapsed), "count"},
      {"device.kernel_launches",
       static_cast<double>(dev.kernel_launches) / (rounds + kInstances), "count"},
      {"device.block_imbalance", dev.block_imbalance(), "ratio"},
      {"dynamic.merges", per_round(dyn.merges, dyn0.merges), "count"},
      {"dynamic.splits", per_round(dyn.splits, dyn0.splits), "count"},
      {"dynamic.local_recomputes", per_round(dyn.local_recomputes, dyn0.local_recomputes), "count"},
      {"dynamic.full_rebuilds", per_round(dyn.full_rebuilds, dyn0.full_rebuilds), "count"},
      {"service.queue_ms", median(queue_ms), "ms"},
      {"service.compute_ms", median(compute_ms), "ms"},
      {"service.certify_ms", median(certify_ms), "ms"},
      {"service.fresh_attempts", per_round(stats.fresh_attempts, stats0.fresh_attempts), "count"},
      {"service.degraded_responses", degraded / rounds, "count"},
      {"service.labels_p50_ms", median(labels_ms), "ms"},
      {"service.labels_p90_ms", tail_quantile(labels_ms, 0.9), "ms"},
      {"service.update_p50_ms", median(update_ms), "ms"},
      {"service.reach_p99_ms", tail_quantile(reach_ms, 0.99), "ms"},
      {"trace.coverage", median(coverage), "ratio"},
      {"trace.overhead_frac", median(walls_traced) / median(walls_untraced) - 1.0, "ratio"},
      {"reference.serial_pass_s", labels_per_round * median(serial_by_round), "s"},
      {"wall.pass_s", round_s, "s"},
      {"wall.geomean_mverts_per_s", geomean(throughput), "Mvertices/s"},
  };
  return out;
}

}  // namespace e2e

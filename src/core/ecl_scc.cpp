#include "core/ecl_scc.hpp"

#include <optional>

#include "core/propagate.hpp"
#include "core/tarjan.hpp"
#include "device/edge_partition.hpp"
#include "device/signature_store.hpp"
#include "device/worklist.hpp"
#include "graph/condensation.hpp"
#include "graph/degree_stats.hpp"
#include "graph/permute.hpp"
#include "graph/subgraph.hpp"
#include "support/timer.hpp"

namespace ecl::scc {
namespace {

using device::BlockContext;
using device::EdgeWorklist;
using device::SignatureStore;

/// Per-run state shared by the kernels.
struct EclState {
  EclState(const Digraph& g, const EclOptions& opts)
      : n(g.num_vertices()),
        sigs(n, opts.min_max_signatures, opts.padded_signatures),
        labels(n, graph::kInvalidVid),
        worklist(g) {}

  vid n;
  SignatureStore sigs;
  std::vector<vid> labels;
  EdgeWorklist worklist;
  /// Delayed-visibility fault hook; null unless the device injects it.
  device::FaultInjector* fault = nullptr;
  /// Global round clock for frontier gating (DESIGN.md §10): bumped by the
  /// control thread before each Phase-1 launch and each Phase-2 sweep, read
  /// by kernels via the captured per-launch value only.
  std::uint32_t round = 0;

  std::atomic<std::uint32_t> changed{0};
  std::atomic<std::uint64_t> labeled{0};
  std::atomic<std::uint64_t> edges_processed{0};
  std::atomic<std::uint64_t> edges_skipped{0};
  std::atomic<std::uint64_t> block_iterations{0};

  /// Local-search index over the worklist (DESIGN.md §15), rebuilt at the
  /// start of each Phase 2 (the worklist is frozen for its duration) into
  /// the worklist's spare buffer.
  detail::WorklistIncidence incidence;
  std::atomic<std::uint64_t> searches_moved{0};  ///< searches that moved a signature
};

// The per-edge propagation bodies (monotone store dispatch, path
// compression, fault semantics) live in core/propagate.hpp, shared with the
// fleet's sharded engine (DESIGN.md §13) so both run the exact same update
// rule. These wrappers adapt them to the solver's EclState.

// --- Checkpointed resume (DESIGN.md §12) -----------------------------------
//
// Snapshots are taken only on the control thread at grid-barrier quiescent
// points (after a launch returns, before the next one), so signatures,
// labels, and the worklist are mutually consistent. The fixpoint is
// monotone, so replaying Phase 2 from any such snapshot reaches the same
// labeling an uninterrupted run would.

/// A checkpoint slot plus the sweep count accumulated since it was taken
/// (the work a resume replays — reported as SccMetrics::rounds_replayed).
struct CheckpointState {
  FixpointCheckpoint snap;
  std::uint64_t sweeps_since = 0;
};

void take_checkpoint(EclState& st, const EclOptions& opts, CheckpointState& ckpt,
                     std::uint64_t outer_iteration, SccMetrics& metrics) {
  FixpointCheckpoint& c = ckpt.snap;
  c.valid = true;
  c.outer_iteration = outer_iteration;
  c.labels = st.labels;
  const auto edges = st.worklist.edges();
  c.worklist.assign(edges.begin(), edges.end());
  const vid n = st.n;
  c.vin.resize(n);
  c.vout.resize(n);
  if (opts.min_max_signatures) {
    c.min_in.resize(n);
    c.min_out.resize(n);
  }
  for (vid v = 0; v < n; ++v) {
    c.vin[v] = st.sigs.vin(v).load(std::memory_order_relaxed);
    c.vout[v] = st.sigs.vout(v).load(std::memory_order_relaxed);
    if (opts.min_max_signatures) {
      c.min_in[v] = st.sigs.min_in(v).load(std::memory_order_relaxed);
      c.min_out[v] = st.sigs.min_out(v).load(std::memory_order_relaxed);
    }
  }
  ckpt.sweeps_since = 0;
  ++metrics.checkpoints_taken;
}

/// Restores the snapshot into the live state. Every vertex epoch is stamped
/// with the CURRENT round so the next sweep treats the whole worklist as
/// active under frontier gating (the snapshot predates the current clock).
void restore_checkpoint(EclState& st, const EclOptions& opts, const CheckpointState& ckpt) {
  const FixpointCheckpoint& c = ckpt.snap;
  st.labels = c.labels;
  st.worklist.reset(c.worklist);
  const vid n = st.n;
  std::uint64_t labeled = 0;
  for (vid v = 0; v < n; ++v) {
    st.sigs.vin(v).store(c.vin[v], std::memory_order_relaxed);
    st.sigs.vout(v).store(c.vout[v], std::memory_order_relaxed);
    if (opts.min_max_signatures) {
      st.sigs.min_in(v).store(c.min_in[v], std::memory_order_relaxed);
      st.sigs.min_out(v).store(c.min_out[v], std::memory_order_relaxed);
    }
    if (opts.frontier_gating) st.sigs.epoch(v).store(st.round, std::memory_order_relaxed);
    if (st.labels[v] != graph::kInvalidVid) ++labeled;
  }
  st.labeled.store(labeled, std::memory_order_relaxed);
  st.changed.store(0, std::memory_order_relaxed);
}

/// The solver's propagation view: signatures and fault hook. Built once per
/// kernel block.
detail::SigView sig_view(EclState& st) noexcept { return {st.sigs, st.fault}; }

// grid_size and for_each_owned live in core/propagate.hpp (shared with the
// fleet's per-shard kernels).
using detail::for_each_owned;
using detail::grid_size;

void phase1_init(EclState& st, device::Device& dev, const EclOptions& opts) {
  const std::uint64_t n = st.n;
  // Every re-initialized vertex is stamped with this round, so the first
  // Phase-2 sweep (round + 1) sees all of its edges as active.
  const std::uint32_t round = ++st.round;
  dev.launch(
      grid_size(dev, n, opts.persistent_threads),
      [&, round](const BlockContext& ctx) {
        ctx.for_each_chunk(n, [&](std::uint64_t lo, std::uint64_t hi) {
          for (std::uint64_t v = lo; v < hi; ++v) {
            if (st.labels[v] == graph::kInvalidVid) {
              st.sigs.vin(v).store(static_cast<std::uint32_t>(v), std::memory_order_relaxed);
              st.sigs.vout(v).store(static_cast<std::uint32_t>(v), std::memory_order_relaxed);
              if (opts.min_max_signatures) {
                st.sigs.min_in(v).store(static_cast<std::uint32_t>(v),
                                        std::memory_order_relaxed);
                st.sigs.min_out(v).store(static_cast<std::uint32_t>(v),
                                         std::memory_order_relaxed);
              }
              if (opts.frontier_gating)
                st.sigs.epoch(v).store(round, std::memory_order_relaxed);
            }
          }
        });
      },
      {.idempotent = true, .work_stealing = opts.work_stealing});
}

/// Runs the Phase-2 fixpoint. Returns false if the watchdog aborted it
/// (sweep budget exhausted or wall-clock expiry): signatures are then
/// unreliable and the caller must not label from them — but the last
/// checkpoint (if `ckpt` is non-null, snapshotted every
/// checkpoint.sweep_interval sweeps at the grid barrier) remains a sound
/// restart state.
bool phase2_propagate(EclState& st, device::Device& dev, const EclOptions& opts,
                      SccMetrics& metrics, FixpointWatchdog& watchdog, CheckpointState* ckpt,
                      std::uint64_t outer_iteration) {
  const auto edges = st.worklist.edges();
  const std::uint64_t m = edges.size();
  if (m == 0) return true;
  const unsigned blocks = grid_size(dev, m, opts.persistent_threads);
  const std::uint64_t budget = watchdog.phase2_round_budget();
  std::uint64_t rounds = 0;
  // Bounded local search (DESIGN.md §15) runs in every round, from the
  // first: gated to sparse tail rounds it saved nothing.
  if (opts.local_search) st.incidence.build(st.n, edges, st.worklist.spare());

  for (;;) {
    if (++rounds > budget || watchdog.expired()) {
      watchdog.mark_stalled();
      return false;
    }
    st.changed.store(0, std::memory_order_relaxed);
    ++metrics.propagation_rounds;
    // One round of the global clock per sweep. An edge is active when either
    // endpoint's signature moved in the previous round (epoch >= r - 1) or
    // this one; everything else is provably at the fixpoint already and is
    // skipped. Async in-block re-iterations share the sweep's round: stamps
    // of r keep their edges active across the inner iterations.
    const std::uint32_t r = ++st.round;
    const std::uint64_t processed_before = st.edges_processed.load(std::memory_order_relaxed);
    const std::uint64_t skipped_before = st.edges_skipped.load(std::memory_order_relaxed);

    dev.launch(
        blocks,
        [&, r](const BlockContext& ctx) {
          const detail::SigView view = sig_view(st);
          std::uint64_t local_processed = 0;
          std::uint64_t local_skipped = 0;
          std::uint64_t local_assigned = 0;
          std::uint64_t local_searches = 0;
          bool local_changed;
          std::uint64_t local_iters = 0;
          do {
            local_changed = false;
            ++local_iters;
            for_each_owned(ctx, m, opts.edge_balanced,
                           [&](std::uint64_t lo, std::uint64_t hi) {
              if (local_iters == 1) local_assigned += hi - lo;
              for (std::uint64_t i = lo; i < hi; ++i) {
                const graph::Edge e = edges[i];
                if (opts.frontier_gating && st.sigs.epoch_of(e.src) + 1 < r &&
                    st.sigs.epoch_of(e.dst) + 1 < r) {
                  ++local_skipped;
                  continue;
                }
                ++local_processed;
                bool moved = detail::propagate_edge(view, e, opts, r);
                if (opts.min_max_signatures)
                  moved |= detail::propagate_edge_min(view, e, opts, r);
                // Vertical granularity control (§15): carry the movement
                // onward locally instead of paying a grid barrier per step.
                if (moved && opts.local_search) {
                  const detail::SearchResult sr =
                      detail::local_search(view, st.incidence, edges, e, opts, r);
                  local_processed += sr.visits;
                  local_searches += sr.moved;
                }
                local_changed |= moved;
              }
            });
            // async_phase2: the block re-iterates its edges to a local fixed
            // point inside one launch (§3.3); sync mode does a single sweep.
            // The per-block sweep budget and the wall-clock check keep a
            // fault-suppressed fixpoint from spinning forever in-kernel.
          } while (opts.async_phase2 && local_changed && local_iters < budget &&
                   !watchdog.expired());
          if (local_changed || (opts.async_phase2 && local_iters > 1))
            st.changed.store(1, std::memory_order_relaxed);
          st.block_iterations.fetch_add(local_iters, std::memory_order_relaxed);
          st.edges_processed.fetch_add(local_processed, std::memory_order_relaxed);
          st.edges_skipped.fetch_add(local_skipped, std::memory_order_relaxed);
          if (local_searches)
            st.searches_moved.fetch_add(local_searches, std::memory_order_relaxed);
          // The imbalance histogram measures ASSIGNMENT skew — the edges
          // this block owns per sweep, the quantity the edge-balance lever
          // controls. Async in-block re-iteration counts are a convergence
          // property with their own metric (block_iterations).
          dev.record_block_work(ctx.block_id, local_assigned);
        },
        {.idempotent = true, .work_stealing = opts.work_stealing});

    if (opts.frontier_gating) {
      const std::uint64_t processed =
          st.edges_processed.load(std::memory_order_relaxed) - processed_before;
      if (st.edges_skipped.load(std::memory_order_relaxed) > skipped_before)
        ++metrics.frontier_rounds;
      // A shrinking active frontier is fixpoint progress even while labels
      // and worklist size are frozen mid-Phase-2; let the wall-clock
      // watchdog see it (it ignores flat or growing frontiers).
      watchdog.observe_phase2_round(processed);
    }

    // Fleet fixpoint hook (DESIGN.md §13): at this grid barrier an external
    // coordinator may merge boundary signatures into the store and replace
    // the local movement flag with a GLOBAL quiescence verdict, keeping the
    // sweep loop alive while any peer shard still moves.
    bool sweep_again = st.changed.load(std::memory_order_relaxed) != 0;
    if (opts.phase2_hook) sweep_again = opts.phase2_hook(sweep_again, st.round);

    if (!sweep_again) break;

    // Another sweep is coming: this grid barrier is a quiescent point, so
    // snapshot here if the cadence is due. Signatures mid-Phase-2 are a
    // legal restart state (monotone fixpoint); labels and the worklist are
    // frozen until Phase 3, so they are consistent with the signatures.
    if (ckpt) {
      ++ckpt->sweeps_since;
      if (opts.checkpoint.sweep_interval > 0 &&
          ckpt->sweeps_since >= opts.checkpoint.sweep_interval)
        take_checkpoint(st, opts, *ckpt, outer_iteration, metrics);
    }
  }
  return true;
}

void detect_components(EclState& st, device::Device& dev, const EclOptions& opts) {
  const std::uint64_t n = st.n;
  // Idempotent: already-labeled vertices are skipped, so a spurious replay
  // finds nothing new to label and adds 0 to the labeled counter.
  dev.launch(
      grid_size(dev, n, opts.persistent_threads),
      [&](const BlockContext& ctx) {
        std::uint64_t local = 0;
        ctx.for_each_chunk(n, [&](std::uint64_t lo, std::uint64_t hi) {
          for (std::uint64_t v = lo; v < hi; ++v) {
            if (st.labels[v] != graph::kInvalidVid) continue;
            const std::uint32_t i = st.sigs.vin(v).load(std::memory_order_relaxed);
            const std::uint32_t o = st.sigs.vout(v).load(std::memory_order_relaxed);
            if (i == o) {
              st.labels[v] = i;
              ++local;
              continue;
            }
            if (opts.min_max_signatures) {
              // A vertex whose min signatures agree is in the MIN SCC of its
              // cluster; label it by that (minimum) member.
              const std::uint32_t mi = st.sigs.min_in(v).load(std::memory_order_relaxed);
              const std::uint32_t mo = st.sigs.min_out(v).load(std::memory_order_relaxed);
              if (mi == mo) {
                st.labels[v] = mi;
                ++local;
              }
            }
          }
        });
        st.labeled.fetch_add(local, std::memory_order_relaxed);
      },
      {.idempotent = true, .work_stealing = opts.work_stealing});
}

void phase3_remove_edges(EclState& st, device::Device& dev, const EclOptions& opts,
                         SccMetrics& metrics) {
  const auto edges = st.worklist.edges();
  const std::uint64_t m = edges.size();
  if (m == 0) return;
  dev.launch(
      grid_size(dev, m, opts.persistent_threads),
      [&](const BlockContext& ctx) {
        // Chunked reservation (DESIGN.md §10): survivors are staged per block
        // and committed with one cursor fetch_add per chunk. The appender's
        // destructor flushes the partial last chunk before the grid barrier.
        EdgeWorklist::ChunkAppender chunk(st.worklist);
        std::uint64_t local_examined = 0;
        for_each_owned(ctx, m, opts.edge_balanced, [&](std::uint64_t lo, std::uint64_t hi) {
          local_examined += hi - lo;
          for (std::uint64_t i = lo; i < hi; ++i) {
            const graph::Edge e = edges[i];
            const std::uint32_t iu = st.sigs.vin(e.src).load(std::memory_order_relaxed);
            const std::uint32_t iv = st.sigs.vin(e.dst).load(std::memory_order_relaxed);
            const std::uint32_t ou = st.sigs.vout(e.src).load(std::memory_order_relaxed);
            const std::uint32_t ov = st.sigs.vout(e.dst).load(std::memory_order_relaxed);
            if (iu != iv || ou != ov) continue;  // spans SCCs: drop
            if (opts.min_max_signatures) {
              const std::uint32_t miu = st.sigs.min_in(e.src).load(std::memory_order_relaxed);
              const std::uint32_t miv = st.sigs.min_in(e.dst).load(std::memory_order_relaxed);
              const std::uint32_t mou = st.sigs.min_out(e.src).load(std::memory_order_relaxed);
              const std::uint32_t mov = st.sigs.min_out(e.dst).load(std::memory_order_relaxed);
              if (miu != miv || mou != mov) continue;  // min signatures disagree
            }
            if (opts.remove_scc_edges && st.labels[e.src] != graph::kInvalidVid)
              continue;  // inside a completed SCC: no longer needed (§3.3)
            if (opts.chunked_worklist)
              chunk.push(e);
            else
              st.worklist.push_next(e);
          }
        });
        dev.record_block_work(ctx.block_id, local_examined);
      },
      {.idempotent = false, .work_stealing = opts.work_stealing});
  const std::size_t before = st.worklist.size();
  st.worklist.swap_buffers();
  metrics.edges_removed += before - st.worklist.size();
}

/// Completes a partial labeling by running Tarjan on the residual subgraph
/// of still-unlabeled vertices. The labeled set at any break point is a
/// union of complete SCCs (detect_components only labels from converged
/// signatures, and a stalled Phase 2 breaks before detection), so the
/// residual is closed under strong connectivity and can be solved
/// independently. Each residual component is labeled by its maximum
/// parent-graph member, preserving the max-ID labeling invariant (§3.2.1).
void serial_fallback(const Digraph& g, SccResult& result) {
  const vid n = g.num_vertices();
  std::vector<std::uint8_t> active(n, 0);
  std::uint64_t residual = 0;
  for (vid v = 0; v < n; ++v) {
    if (result.labels[v] == graph::kInvalidVid) {
      active[v] = 1;
      ++residual;
    }
  }
  result.metrics.serial_fallback = true;
  result.metrics.fallback_vertices = residual;
  if (residual == 0) return;
  const graph::Subgraph sub = graph::induced_subgraph(g, active);
  const SccResult serial = tarjan(sub.graph);
  std::vector<vid> comp_max(serial.num_components, 0);
  for (std::size_t i = 0; i < sub.to_parent.size(); ++i) {
    vid& top = comp_max[serial.labels[i]];
    top = std::max(top, sub.to_parent[i]);
  }
  for (std::size_t i = 0; i < sub.to_parent.size(); ++i)
    result.labels[sub.to_parent[i]] = comp_max[serial.labels[i]];
}

/// Translates labels computed on the hub-reordered graph back to original
/// vertex IDs, renaming every component by its maximum ORIGINAL member so
/// the result is bit-identical to an unreordered run (§3.2.1's max-ID
/// naming is a function of the graph, not the schedule). Unlabeled
/// vertices (kInvalidVid, possible under kReturnError) pass through.
void remap_labels_to_original(SccResult& result, const std::vector<vid>& perm) {
  const vid n = static_cast<vid>(perm.size());
  std::vector<vid> name(n, graph::kInvalidVid);  // component (new-ID name) -> max original member
  for (vid v = 0; v < n; ++v) {
    const vid c = result.labels[perm[v]];
    if (c == graph::kInvalidVid) continue;
    if (name[c] == graph::kInvalidVid || v > name[c]) name[c] = v;
  }
  std::vector<vid> original(n, graph::kInvalidVid);
  for (vid v = 0; v < n; ++v) {
    const vid c = result.labels[perm[v]];
    if (c != graph::kInvalidVid) original[v] = name[c];
  }
  result.labels = std::move(original);
}

/// Cheap pre-scan predictor for the hub-reorder lever (the first step of the
/// per-graph adaptive policy engine, ROADMAP item 1). Relabeling pays off
/// when propagation is hub-coupled: the degree distribution must be skewed
/// THROUGHOUT, so that clustering hubs co-locates the signature slots the
/// sweep keeps re-reading. It loses when a heavy tail sits on an otherwise
/// near-regular graph (cage14, circuit5M: matrix/circuit topologies with a
/// few high-degree outliers) — the permutation + remap overhead buys
/// nothing because most edges never touch a hub. The separating feature,
/// measured across the BENCH_loadbalance suite, is the coefficient of
/// variation of the out-degree: reorder winners (wikipedia 1.95, wiki-Talk
/// 1.90, web-Google 1.87, com-Youtube 2.51 — 1.3x to 2.2x on the reorder
/// axis) all sit >= 1.87, losers (cage14 1.46, circuit5M 1.56 — 0.91x and
/// 0.92x) below 1.6; 1.75 splits the gap. Hub-mass fractions (top log2
/// buckets / total edge mass) were tried first and do NOT separate: both
/// classes carry only 1-5% of their edge mass in the hubs.
bool hub_reorder_profitable(const graph::DegreeStats& stats) {
  if (!graph::looks_power_law(stats)) return false;  // meshes: permutation = identity
  if (stats.avg <= 0.0) return false;
  return stats.stddev_out / stats.avg >= 1.75;
}

}  // namespace

EclOptions ecl_all_optimizations_off() {
  EclOptions opts;
  opts.async_phase2 = false;
  opts.remove_scc_edges = false;
  opts.path_compression = false;
  opts.persistent_threads = false;
  return opts;
}

EclOptions ecl_hotpath_levers_off() {
  EclOptions opts = ecl_loadbalance_levers_off();
  opts.chunked_worklist = false;
  opts.frontier_gating = false;
  opts.padded_signatures = false;
  return opts;
}

EclOptions ecl_loadbalance_levers_off() {
  EclOptions opts = ecl_highdiameter_levers_off();
  opts.work_stealing = false;
  opts.edge_balanced = false;
  opts.hub_reorder = false;
  return opts;
}

EclOptions ecl_highdiameter_levers_off() {
  EclOptions opts;
  opts.local_search = false;
  return opts;
}

SccResult ecl_scc(const Digraph& g, device::Device& dev, const EclOptions& opts) {
  // Hub-clustering reorder (DESIGN.md §11): run on the relabeled graph,
  // then remap labels back. Skipped whenever the permutation would be the
  // identity (uniform-degree inputs) and under min_max_signatures (see
  // EclOptions::hub_reorder).
  // The degree-skew pre-scan gates the lever per graph: an O(n) stats pass
  // predicts whether hub relabeling will pay for the permutation + remap.
  // Out-degree-only stats keep the rejected path cheap — the full variant's
  // O(m) in-degree pass showed up as ~10% on small fast-solving graphs.
  // Labels are unaffected either way — the remap already guarantees
  // bit-identity with the unreordered run.
  if (opts.hub_reorder && !opts.min_max_signatures &&
      hub_reorder_profitable(graph::compute_out_degree_stats(g))) {
    const std::vector<vid> perm = graph::hub_clustering_permutation(g);
    if (!perm.empty()) {
      const Digraph reordered = graph::apply_permutation(g, perm);
      EclOptions inner = opts;
      inner.hub_reorder = false;
      SccResult result = ecl_scc(reordered, dev, inner);
      remap_labels_to_original(result, perm);
      result.metrics.hub_reorder_applied = true;
      return result;
    }
  }

  const vid n = g.num_vertices();
  SccResult result;
  if (n == 0) return result;

  EclState st(g, opts);
  if (dev.fault_active() &&
      (dev.fault().plan().delayed_visibility || dev.fault().plan().lost_update))
    st.fault = &dev.fault();
  const std::uint64_t launches_before = dev.stats().kernel_launches;

  const std::uint64_t guard =
      opts.max_outer_iterations ? opts.max_outer_iterations : static_cast<std::uint64_t>(n) + 2;
  // FixpointWatchdog holds atomics, so a resume re-arms it by re-emplacing:
  // same config (and thus the same ABSOLUTE deadline — the budget is shared
  // across all resume attempts), fresh stall counters.
  std::optional<FixpointWatchdog> watchdog;
  watchdog.emplace(opts.watchdog, n);

  // Recovery ladder rung 1 (DESIGN.md §12): on a stall or overflow, restore
  // the last quiescent snapshot and replay, at most max_resumes times.
  CheckpointState ckpt;
  const bool checkpointing = opts.checkpoint.enabled;
  unsigned resumes_left = checkpointing ? opts.checkpoint.max_resumes : 0;
  bool skip_phase1 = false;  // set on resume: Phase 1 would reset the restored signatures
  Timer run_timer;
  double first_trip_seconds = -1.0;
  std::uint64_t dropped_edges_total = 0;

  auto note_trip = [&] {
    if (first_trip_seconds < 0) first_trip_seconds = run_timer.seconds();
  };
  // Restores the last checkpoint and re-arms the watchdog. Returns false
  // when the ladder rung is exhausted (no snapshot, no resumes left, or the
  // absolute deadline has expired — replaying would only burn the budget).
  // Callers read the deadline again after a refusal: it may have passed
  // since the trip, and a refusal it caused is reported as kDeadlineExceeded.
  auto try_resume = [&]() -> bool {
    if (!ckpt.snap.valid || resumes_left == 0) return false;
    if (watchdog->deadline_expired()) return false;
    --resumes_left;
    ++result.metrics.resumes;
    result.metrics.rounds_replayed += ckpt.sweeps_since;
    ckpt.sweeps_since = 0;
    dropped_edges_total += st.worklist.dropped_edges();
    restore_checkpoint(st, opts, ckpt);
    skip_phase1 = true;
    watchdog.emplace(opts.watchdog, n);
    return true;
  };

  while (st.labeled.load(std::memory_order_relaxed) < n) {
    if (++result.metrics.outer_iterations > guard) {
      result.error = {SccStatus::kIterationGuard,
                      "ecl_scc: outer loop exceeded iteration guard"};
      break;
    }
    if (watchdog->deadline_expired()) {
      watchdog->mark_stalled();
      ++result.metrics.watchdog_trips;
      note_trip();
      result.error = {SccStatus::kDeadlineExceeded,
                      "ecl_scc: request deadline expired between iterations"};
      break;
    }

    Timer phase_timer;
    if (skip_phase1) {
      // Resumed: the restored signatures ARE the phase-1-initialized state
      // of the snapshot's iteration (possibly advanced by later sweeps);
      // re-running Phase 1 would reset every unlabeled signature to self
      // and discard the checkpointed propagation progress.
      skip_phase1 = false;
    } else {
      phase1_init(st, dev, opts);
    }
    // Outer-boundary snapshot, AFTER Phase 1: labels and worklist are at
    // their iteration-start values and signatures are freshly initialized,
    // so restoring here and skipping Phase 1 replays this iteration
    // exactly. (Snapshotting before Phase 1 would capture the PREVIOUS
    // iteration's converged signatures, from which Phase 2 would trivially
    // re-converge with no new labels — an instant stall.)
    if (checkpointing)
      take_checkpoint(st, opts, ckpt, result.metrics.outer_iterations, result.metrics);
    result.metrics.phase1_seconds += phase_timer.seconds();
    phase_timer.reset();
    const bool converged =
        phase2_propagate(st, dev, opts, result.metrics, *watchdog,
                         checkpointing ? &ckpt : nullptr, result.metrics.outer_iterations);
    result.metrics.phase2_seconds += phase_timer.seconds();
    if (!converged) {
      ++result.metrics.watchdog_trips;
      note_trip();
      if (try_resume()) continue;
      // A deadline trip aborts the same way a stall does but is reported
      // distinctly: the run was cancelled, not necessarily stuck.
      const bool deadline = watchdog->deadline_expired();
      result.error =
          deadline ? SccError{SccStatus::kDeadlineExceeded,
                              "ecl_scc: request deadline expired mid-fixpoint"}
                   : SccError{SccStatus::kStalled,
                              "ecl_scc: phase-2 propagation exceeded its sweep budget"};
      break;
    }
    phase_timer.reset();
    detect_components(st, dev, opts);
    phase3_remove_edges(st, dev, opts, result.metrics);
    result.metrics.phase3_seconds += phase_timer.seconds();

    if (st.worklist.overflowed()) {
      // The next-iteration worklist dropped edges; labels assigned so far
      // came from the intact pre-overflow worklist and remain sound, but
      // further propagation over the truncated edge set would not be.
      note_trip();
      const std::uint64_t dropped = st.worklist.dropped_edges();
      if (try_resume()) continue;
      result.error = {SccStatus::kWorklistOverflow,
                      "ecl_scc: edge worklist overflowed during phase 3 (" +
                          std::to_string(dropped) + " edges dropped)"};
      break;
    }
    if (watchdog->observe_iteration(st.labeled.load(std::memory_order_relaxed),
                                    st.worklist.size())) {
      ++result.metrics.watchdog_trips;
      note_trip();
      if (try_resume()) continue;
      result.error =
          watchdog->deadline_expired()
              ? SccError{SccStatus::kDeadlineExceeded,
                         "ecl_scc: request deadline expired before a resume"}
              : SccError{SccStatus::kStalled,
                         "ecl_scc: no new labels and no worklist shrinkage for " +
                             std::to_string(opts.watchdog.stall_rounds) + " iterations"};
      break;
    }
  }

  result.metrics.edges_processed = st.edges_processed.load(std::memory_order_relaxed);
  result.metrics.edges_skipped = st.edges_skipped.load(std::memory_order_relaxed);
  result.metrics.edges_dropped = dropped_edges_total + st.worklist.dropped_edges();
  result.metrics.kernel_launches = dev.stats().kernel_launches - launches_before;
  result.metrics.block_iterations = st.block_iterations.load(std::memory_order_relaxed);
  dev.stats().block_iterations += result.metrics.block_iterations;
  result.metrics.chains_collapsed = st.searches_moved.load(std::memory_order_relaxed);
  dev.stats().chains_collapsed += result.metrics.chains_collapsed;

  result.labels = std::move(st.labels);
  if (result.error && opts.stall_policy == StallPolicy::kSerialFallback)
    serial_fallback(g, result);
  if (!result.error || result.metrics.serial_fallback) {
    std::vector<vid> dense(result.labels.begin(), result.labels.end());
    result.num_components = graph::normalize_labels(dense);
  }
  // Time-to-good-result after the FIRST fault manifestation, including any
  // serial fallback: the quantity bench_chaos_recovery compares between the
  // resume path and the discard-and-recompute path.
  if (first_trip_seconds >= 0)
    result.metrics.recovery_seconds = run_timer.seconds() - first_trip_seconds;
  return result;
}

device::Device& shared_device() {
  static device::Device dev(device::a100_profile());
  return dev;
}

SccResult ecl_scc(const Digraph& g, const EclOptions& opts) {
  return ecl_scc(g, shared_device(), opts);
}

}  // namespace ecl::scc

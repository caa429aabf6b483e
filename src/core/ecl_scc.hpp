#ifndef ECL_CORE_ECL_SCC_HPP
#define ECL_CORE_ECL_SCC_HPP

// ECL-SCC: the paper's primary contribution (§3).
//
// Max-ID propagation with edge removal, implemented in GPU-kernel style on
// the virtual device substrate. All four code optimizations studied in
// Fig. 14 are independent toggles so the ablation benchmark can disable
// them one at a time:
//
//  * async_phase2      — thread blocks iterate internally to a local fixed
//                        point, slashing kernel-launch count (§3.3);
//  * remove_scc_edges  — drop edges inside already-detected SCCs from the
//                        worklist, not only the cross-SCC edges (§3.3);
//  * path_compression  — propagate in[in[u]] / out[out[v]] and lift the
//                        signature of the overwritten value's vertex (§3.3);
//  * persistent_threads— resident grid with multiple edges per thread
//                        instead of one thread per edge (§3.4).
//
// Note on the second-level path compression: the paper states that before a
// signature value s of vertex v is overwritten by a larger value t, vertex
// s's signature is also conditionally updated. Updating s with t itself is
// not sound in general (t need not be reachable from / to s); this
// implementation uses the provably sound cross-signature form implied by
// the paper's own justification ("ancestors of v share v's descendants"):
// when in[v] is raised, the old value s is an ancestor of v, so out[s] is
// lifted with out[v]; symmetrically for out[u]. The fixed point then equals
// Algorithm 1's exactly (see DESIGN.md).

#include <functional>
#include <vector>

#include "core/result.hpp"
#include "core/watchdog.hpp"
#include "device/device.hpp"

namespace ecl::scc {

/// Checkpointed-resume policy (DESIGN.md §12). ECL-SCC's fixpoint is
/// monotone — signatures only move toward the fixed point — so ANY
/// quiescent snapshot (labels + signatures + worklist, taken at a grid
/// barrier) is a legal restart state: resuming propagation from it
/// converges to the same labeling as an uninterrupted run. Checkpoints let
/// a watchdog trip or worklist overflow replay recent work instead of
/// discarding the whole run.
struct CheckpointConfig {
  /// Master switch. Off = the pre-§12 behavior (one-shot run, no replay).
  bool enabled = true;
  /// Snapshot cadence inside Phase 2, in propagation sweeps. A snapshot is
  /// also taken at every outer-iteration boundary (label/worklist
  /// quiescent points). Smaller = less work replayed on a trip, more
  /// snapshot copies on the happy path.
  std::uint64_t sweep_interval = 32;
  /// Bounded recovery ladder rung 1: at most this many replays from the
  /// last checkpoint per run before the error escalates (rung 2 = fresh
  /// rerun, rung 3 = serial Tarjan; see core/registry.hpp).
  unsigned max_resumes = 2;
};

/// One quiescent-state snapshot of a running ECL-SCC fixpoint. Restoring
/// it and re-entering Phase 2 (skipping Phase 1, which would reset the
/// signatures) preserves all progress up to the snapshot.
struct FixpointCheckpoint {
  bool valid = false;
  std::uint64_t outer_iteration = 0;  ///< outer loop trips completed at snapshot
  std::vector<vid> labels;
  std::vector<graph::Edge> worklist;
  /// Signature arrays. Snapshotting labels alone would be unsound: under
  /// min_max_signatures a re-initialized min signature (vertex ID) can be
  /// LARGER than the checkpointed one, and a zero is a winning false value
  /// for min-propagation — so the full signature state travels with the
  /// checkpoint.
  std::vector<std::uint32_t> vin, vout;
  std::vector<std::uint32_t> min_in, min_out;  ///< empty unless 4-signature mode
};

/// What ecl_scc does when the fixpoint watchdog trips, the worklist
/// overflows, or the iteration guard fires.
enum class StallPolicy : std::uint8_t {
  /// Complete the labeling with Tarjan on the unlabeled residual subgraph
  /// and return it (the error is still recorded, and the fallback is noted
  /// in SccMetrics). This is the graceful-degradation default: callers
  /// always receive a full, verifiable labeling.
  kSerialFallback,
  /// Return immediately with partial labels (unlabeled vertices hold
  /// graph::kInvalidVid) and the structured error. num_components is 0.
  kReturnError,
};

struct EclOptions {
  bool async_phase2 = true;
  bool remove_scc_edges = true;
  bool path_compression = true;
  bool persistent_threads = true;
  /// Use CAS atomic-max instead of the paper's atomic-free monotonic store.
  bool use_atomic_max = false;
  /// The 4-signature min/max variant the paper describes but rejects
  /// (§3.3): also propagate minimum IDs, detecting at least TWO SCCs per
  /// cluster per outer iteration at the cost of doubled signature memory.
  /// Off by default, like the paper's shipped configuration.
  bool min_max_signatures = false;

  // --- Hot-path levers (DESIGN.md §10). Each preserves the exact fixpoint,
  // labeling, and overflow/fault semantics of the seed implementation and
  // is independently toggleable for the bench_hotpath ablation. -----------
  /// Phase-3 survivors are staged per block and committed to the next
  /// worklist buffer with one cursor fetch_add per chunk instead of one per
  /// edge (EdgeWorklist::ChunkAppender).
  bool chunked_worklist = true;
  /// Per-vertex epoch stamps let propagation sweeps skip edges whose
  /// endpoints are both quiescent, turning late fixpoint rounds from full
  /// re-sweeps into near-empty ones. Savings are reported in
  /// SccMetrics::edges_skipped / frontier_rounds.
  bool frontier_gating = true;
  /// Store each vertex's signature state in its own 64-byte-aligned slot
  /// (device/signature_store.hpp) instead of densely packed SoA arrays, so
  /// pool threads never false-share signature cache lines.
  bool padded_signatures = true;

  // --- Load-balance levers (DESIGN.md §11). Like the §10 levers, each is a
  // pure performance transform: all 8 combinations produce bit-identical
  // labels, fault semantics unchanged. ------------------------------------
  /// Distribute kernel blocks over per-worker claim ranges with
  /// steal-from-most-loaded (device/thread_pool.hpp) instead of one shared
  /// claim cursor, and use the pool's spin-then-park barrier between
  /// back-to-back launches.
  bool work_stealing = true;
  /// Phases 2/3 partition the flat edge worklist into equal contiguous
  /// EDGE spans per block (device/edge_partition.hpp) instead of
  /// block-cyclic thread-width chunks: each sweep scans the worklist once
  /// in order, and per-block edge work is reported to the device's
  /// imbalance histogram (LaunchStats::block_imbalance).
  bool edge_balanced = true;
  /// Relabel the graph with the hub-clustering permutation
  /// (graph/permute.hpp) before the run and remap the labels back (naming
  /// each component by its maximum ORIGINAL member, so raw labels stay
  /// bit-identical to the unreordered run). Top IDs on the widest-fan-out
  /// vertices make the winning max-ID saturate power-law clusters in few
  /// propagation rounds. Skipped when the permutation is the identity and
  /// under min_max_signatures (min-side labels name by minimum member,
  /// which a max-member remap cannot reproduce).
  bool hub_reorder = true;
  // --- High-diameter lever (DESIGN.md §15). A pure performance transform
  // like the §10/§11 levers: labels are bit-identical either way. ---------
  /// Vertical granularity control (Wang et al., PAPERS.md): in every Phase-2
  /// round, an edge whose update moves a signature starts a bounded local
  /// search (detail::local_search, core/propagate.hpp) that keeps applying
  /// the per-edge rule to the worklist edges around it, up to a fixed budget
  /// of edge visits, instead of leaving each further step to the next
  /// round. Deep SCC-DAGs (meshes) then converge in far fewer rounds. The
  /// search walks only CURRENT-worklist edges (Phase 3 removes cross-SCC
  /// edges, and propagating along a removed edge would be unsound).
  bool local_search = true;

  /// Safety guard on outer iterations; 0 means |V| + 2 (the theoretical
  /// bound is the number of SCCs). A trip is reported as
  /// SccStatus::kIterationGuard, subject to stall_policy — never thrown.
  std::uint64_t max_outer_iterations = 0;
  /// Stall detection around the outer and Phase-2 fixpoint loops.
  WatchdogConfig watchdog = WatchdogConfig::defaults();
  /// Degradation behavior on watchdog trip / overflow / guard.
  StallPolicy stall_policy = StallPolicy::kSerialFallback;
  /// Checkpointed resume (DESIGN.md §12): snapshot cadence and the bounded
  /// replay count attempted before a trip escalates to stall_policy.
  CheckpointConfig checkpoint;

  /// Fixpoint round hook (DESIGN.md §13): invoked on the control thread at
  /// every Phase-2 grid barrier, after the sweep's movement flag is read
  /// and before the loop decides whether to run another sweep.
  /// `local_changed` is this solver's own movement; the return value
  /// REPLACES it as the continue condition. An external coordinator can
  /// merge boundary signatures into the store here (the grid barrier makes
  /// it race-free) and keep the sweep loop alive until GLOBAL — not merely
  /// local — quiescence: max-merges commute with the in-kernel monotone
  /// stores, so a merge at this barrier is equivalent to the merged edges
  /// having been processed by the sweep itself. `round` is the global
  /// round clock; a hook that raises a signature under frontier_gating
  /// must stamp the vertex's epoch with it. Null = local movement decides
  /// (single-device behavior).
  std::function<bool(bool local_changed, std::uint32_t round)> phase2_hook;
};

/// All-off configuration (the "disable all 4" bar of Fig. 14). The hot-path
/// levers are left at their defaults: they postdate the paper's ablation.
EclOptions ecl_all_optimizations_off();

/// Default configuration with all six post-paper levers disabled — the
/// three §10 hot-path levers (chunked_worklist, frontier_gating,
/// padded_signatures) AND the three §11 load-balance levers
/// (work_stealing, edge_balanced, hub_reorder). This is the seed
/// implementation's behavior, registered as `ecl-classic`.
EclOptions ecl_hotpath_levers_off();

/// Default configuration with only the three §11 load-balance levers
/// disabled (hot-path levers stay on) — the PR-4 hot path, registered as
/// `ecl-hotpath`, and the baseline bench_loadbalance measures against.
EclOptions ecl_loadbalance_levers_off();

/// Default configuration with the §15 high-diameter lever disabled
/// (local_search; fb_trim's multi_pivot/trim_chase are the FbOptions
/// analogues) — the §10 + §11 all-on configuration, registered as
/// `ecl-loadbalance`, and the baseline bench_highdiameter measures against.
EclOptions ecl_highdiameter_levers_off();

/// Runs ECL-SCC on the given virtual device. Labels are the maximum vertex
/// ID of each component (§3.2.1).
SccResult ecl_scc(const Digraph& g, device::Device& dev, const EclOptions& opts = {});

/// Convenience overload using a process-wide shared device (A100 profile).
SccResult ecl_scc(const Digraph& g, const EclOptions& opts = {});

/// The process-wide device used by the convenience overload.
device::Device& shared_device();

}  // namespace ecl::scc

#endif  // ECL_CORE_ECL_SCC_HPP

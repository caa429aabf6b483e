#ifndef ECL_CORE_PROPAGATE_HPP
#define ECL_CORE_PROPAGATE_HPP

// Per-edge Phase-2 propagation primitives, shared between the single-device
// solver (ecl_scc.cpp) and the fleet's sharded engine (src/fleet/).
//
// The sharded fixpoint (DESIGN.md §13) is only bit-identical to a
// single-device run because every shard executes the SAME monotone store and
// the SAME per-edge update rule — including path compression's lift writes
// and the chaos device's store-fault semantics. Extracting the primitives
// here keeps that "same rule" property a fact of the build rather than a
// convention between two copies of the code.
//
// Everything operates on a SigView: the slice of solver state the per-edge
// update needs (the signature arrays plus the device's fault hook). The
// single-device EclState and a fleet shard replica both provide exactly
// this slice.

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/ecl_scc.hpp"
#include "device/atomics.hpp"
#include "device/edge_partition.hpp"
#include "device/fault.hpp"
#include "device/signature_store.hpp"
#include "graph/digraph.hpp"

namespace ecl::scc::detail {

/// Grid size for an edge/vertex kernel under the selected threading mode.
inline unsigned grid_size(device::Device& dev, std::uint64_t items, bool persistent) {
  if (persistent)
    return std::min<std::uint64_t>(dev.profile().resident_blocks(),
                                   std::max<std::uint64_t>(1, dev.blocks_for(items)));
  return dev.blocks_for(items);
}

/// Work distribution for the edge phases: equal contiguous edge spans
/// (degenerate merge-path on the flat worklist, DESIGN.md §11) or the
/// classic block-cyclic chunks. Either way the body sees half-open
/// [lo, hi) index ranges covering exactly the block's edges.
template <typename Body>
void for_each_owned(const device::BlockContext& ctx, std::uint64_t total, bool edge_balanced,
                    Body&& body) {
  if (edge_balanced) {
    const device::EdgeSpan span = device::equal_edge_span(ctx.block_id, ctx.num_blocks, total);
    if (!span.empty()) body(span.begin, span.end);
  } else {
    ctx.for_each_chunk(total, body);
  }
}

/// The propagation-visible slice of a solver's state.
struct SigView {
  device::SignatureStore& sigs;
  /// Delayed-visibility / lost-update fault hook; null unless the device
  /// injects it for the current launch.
  device::FaultInjector* fault = nullptr;
};

/// Signature store dispatch: the paper's atomic-free monotonic store or a
/// CAS atomic max (§3.4). Under the delayed-visibility fault a store may be
/// deferred: dropped this round but reported as movement when it would have
/// changed the slot, so the propagation loop retries until it lands —
/// exactly the lost-update tolerance the monotonic store relies on.
/// Under the lost-update fault the store is dropped AND reported as no
/// movement: the fixpoint silently converges short of the true one, which
/// only the online certifier (core/verify.hpp) can detect downstream.
///
/// `owner` is the vertex whose signature the slot belongs to. Any reported
/// movement — including a deferred store's, so the retry round still sees
/// the edge as active — stamps the owner's frontier epoch with the current
/// round, keeping its incident edges in the active frontier.
inline bool store_max(const SigView& st, device::AtomicU32& slot, vid owner,
                      std::uint32_t value, const EclOptions& opts,
                      std::uint32_t round) noexcept {
  bool moved;
  if (st.fault && st.fault->lose_store()) return false;
  if (st.fault && st.fault->defer_store())
    moved = value > slot.load(std::memory_order_relaxed);
  else
    moved = opts.use_atomic_max ? device::atomic_fetch_max(slot, value)
                                : device::racy_store_max(slot, value);
  if (moved && opts.frontier_gating)
    st.sigs.epoch(owner).store(round, std::memory_order_relaxed);
  return moved;
}

inline bool store_min(const SigView& st, device::AtomicU32& slot, vid owner,
                      std::uint32_t value, const EclOptions& opts,
                      std::uint32_t round) noexcept {
  bool moved;
  if (st.fault && st.fault->lose_store()) return false;
  if (st.fault && st.fault->defer_store())
    moved = value < slot.load(std::memory_order_relaxed);
  else
    moved = opts.use_atomic_max ? device::atomic_fetch_min(slot, value)
                                : device::racy_store_min(slot, value);
  if (moved && opts.frontier_gating)
    st.sigs.epoch(owner).store(round, std::memory_order_relaxed);
  return moved;
}

/// Phase-2 body for one edge (u -> v). Returns true if any signature moved.
inline bool propagate_edge(const SigView& st, graph::Edge e, const EclOptions& opts,
                           std::uint32_t round) noexcept {
  const vid u = e.src;
  const vid v = e.dst;
  bool any = false;

  // out[u] <- max(out[u], out[v])   (compressed: out[out[v]], §3.3)
  std::uint32_t ov = st.sigs.vout(v).load(std::memory_order_relaxed);
  if (opts.path_compression) ov = st.sigs.vout(ov).load(std::memory_order_relaxed);
  const std::uint32_t ou = st.sigs.vout(u).load(std::memory_order_relaxed);
  if (ov > ou) {
    if (opts.path_compression && ou != u) {
      // Lift: ou is a descendant of u, so u's ancestors are ou's ancestors.
      const std::uint32_t iu = st.sigs.vin(u).load(std::memory_order_relaxed);
      any |= store_max(st, st.sigs.vin(ou), ou, iu, opts, round);
    }
    any |= store_max(st, st.sigs.vout(u), u, ov, opts, round);
  }

  // in[v] <- max(in[v], in[u])   (compressed: in[in[u]])
  std::uint32_t iu = st.sigs.vin(u).load(std::memory_order_relaxed);
  if (opts.path_compression) iu = st.sigs.vin(iu).load(std::memory_order_relaxed);
  const std::uint32_t iv = st.sigs.vin(v).load(std::memory_order_relaxed);
  if (iu > iv) {
    if (opts.path_compression && iv != v) {
      // Lift: iv is an ancestor of v, so v's descendants are iv's descendants.
      const std::uint32_t ovv = st.sigs.vout(v).load(std::memory_order_relaxed);
      any |= store_max(st, st.sigs.vout(iv), iv, ovv, opts, round);
    }
    any |= store_max(st, st.sigs.vin(v), v, iu, opts, round);
  }
  return any;
}

/// Minimum-ID propagation for one edge (the 4-signature variant): the
/// exact mirror of the maximum propagation, including path compression
/// (min_in[min_in[u]] <= min_in[u] stays an ancestor-or-self of v).
inline bool propagate_edge_min(const SigView& st, graph::Edge e, const EclOptions& opts,
                               std::uint32_t round) noexcept {
  const vid u = e.src;
  const vid v = e.dst;
  bool any = false;

  std::uint32_t ov = st.sigs.min_out(v).load(std::memory_order_relaxed);
  if (opts.path_compression) ov = st.sigs.min_out(ov).load(std::memory_order_relaxed);
  const std::uint32_t ou = st.sigs.min_out(u).load(std::memory_order_relaxed);
  if (ov < ou) {
    if (opts.path_compression && ou != u) {
      const std::uint32_t iu = st.sigs.min_in(u).load(std::memory_order_relaxed);
      any |= store_min(st, st.sigs.min_in(ou), ou, iu, opts, round);
    }
    any |= store_min(st, st.sigs.min_out(u), u, ov, opts, round);
  }

  std::uint32_t iu = st.sigs.min_in(u).load(std::memory_order_relaxed);
  if (opts.path_compression) iu = st.sigs.min_in(iu).load(std::memory_order_relaxed);
  const std::uint32_t iv = st.sigs.min_in(v).load(std::memory_order_relaxed);
  if (iu < iv) {
    if (opts.path_compression && iv != v) {
      const std::uint32_t ovv = st.sigs.min_out(v).load(std::memory_order_relaxed);
      any |= store_min(st, st.sigs.min_out(iv), iv, ovv, opts, round);
    }
    any |= store_min(st, st.sigs.min_in(v), v, iu, opts, round);
  }
  return any;
}

// ---------------------------------------------------------------------------
// Vertical granularity control: bounded local search (DESIGN.md §15).
//
// On a deep SCC-DAG (meshes: degree 2–3), max-ID propagation advances one
// edge per round: a signature must land at a grid barrier before the next
// sweep can read it. Following Wang et al.'s vertical granularity control
// (PAPERS.md), a worker whose edge just moved a signature keeps going
// locally: it walks the worklist edges around that edge depth-first,
// applying the same per-edge rule, until a fixed budget of edge visits is
// spent, and only then returns to the round-scheduled sweep.
//
// Soundness: every visit applies propagate_edge to an edge of the CURRENT
// worklist, with the same monotone stores, lift writes, fault semantics
// and epoch stamps as a round-scheduled visit. The fixpoint is a function
// of the edge set alone, so applying some updates early cannot change it,
// and no Phase-3-removed edge is ever traversed.
// ---------------------------------------------------------------------------

/// Edge visits one local search may spend (τ).
inline constexpr std::uint32_t kSearchBudget = 1024;
/// Capacity of a search's vertex stack; pushes beyond it are dropped (the
/// dropped vertex's edges are still swept by the next round).
inline constexpr std::size_t kSearchStack = 64;

/// Incidence CSR over a frozen worklist: for vertex v, the indices of the
/// worklist edges with v as source or target are entries offset[v] ..
/// offset[v + 1]. The 2m 32-bit entries are packed two to a graph::Edge
/// slot of caller-provided storage — the worklist's spare buffer, idle for
/// the whole of Phase 2 and already m slots long — so the index costs no
/// memory per edge; the offsets keep their capacity across rebuilds. The
/// index is valid until Phase 3 next appends into that storage: rebuild it
/// at each Phase 2. build() declines, leaving the index empty, when 2m does
/// not fit 32 bits.
class WorklistIncidence {
 public:
  bool empty() const noexcept { return offset_.empty(); }

  /// Indexes `edges` in `slots` (at least edges.size() long, disjoint from
  /// `edges`).
  void build(std::size_t n, std::span<const graph::Edge> edges, std::span<graph::Edge> slots) {
    offset_.clear();
    if (edges.empty() || 2 * edges.size() > std::numeric_limits<std::uint32_t>::max()) return;
    assert(slots.size() >= edges.size() && "WorklistIncidence: 2m entries need m slots");
    slots_ = slots;
    offset_.assign(n + 1, 0);
    for (const graph::Edge& e : edges) {
      ++offset_[static_cast<std::size_t>(e.src) + 1];
      ++offset_[static_cast<std::size_t>(e.dst) + 1];
    }
    for (std::size_t v = 0; v < n; ++v) offset_[v + 1] += offset_[v];
    for (std::size_t i = 0; i < edges.size(); ++i) {
      set(offset_[edges[i].src]++, static_cast<std::uint32_t>(i));
      set(offset_[edges[i].dst]++, static_cast<std::uint32_t>(i));
    }
    // The fill advanced each offset to its successor's start; shift back.
    for (std::size_t v = n; v > 0; --v) offset_[v] = offset_[v - 1];
    offset_[0] = 0;
  }

  std::uint32_t begin(vid v) const noexcept { return offset_[v]; }
  std::uint32_t end(vid v) const noexcept { return offset_[static_cast<std::size_t>(v) + 1]; }
  /// The worklist index stored at entry k.
  std::uint32_t edge(std::uint32_t k) const noexcept {
    const graph::Edge& slot = slots_[k >> 1];
    return (k & 1) != 0 ? slot.dst : slot.src;
  }

 private:
  void set(std::uint32_t k, std::uint32_t edge_index) noexcept {
    graph::Edge& slot = slots_[k >> 1];
    ((k & 1) != 0 ? slot.dst : slot.src) = edge_index;
  }

  std::vector<std::uint32_t> offset_;
  std::span<graph::Edge> slots_;
};

/// Outcome of one local search: edge visits made, and whether any of them
/// moved a signature.
struct SearchResult {
  std::uint32_t visits = 0;
  bool moved = false;
};

/// Runs one bounded local search from an edge `e` whose update just moved a
/// signature. Both endpoints seed a small stack; each popped vertex has the
/// per-edge rule applied to every incident worklist edge, and the far
/// endpoint of each edge that moved anything is pushed. Stops when the stack
/// empties or kSearchBudget visits are spent.
///
/// Under a store fault (SigView::fault set) the search does nothing: a
/// deferred store still reports movement, so a walk would keep re-pushing
/// the same vertices, spending the whole budget on every mover and
/// stretching a stalled sweep far past its watchdog budget.
///
/// Thread-safe: only the monotone stores touch shared state.
inline SearchResult local_search(const SigView& st, const WorklistIncidence& inc,
                                 std::span<const graph::Edge> edges, graph::Edge e,
                                 const EclOptions& opts, std::uint32_t round) noexcept {
  SearchResult r;
  if (st.fault || inc.empty()) return r;
  std::array<vid, kSearchStack> stack;
  std::size_t top = 0;
  stack[top++] = e.src;
  stack[top++] = e.dst;
  while (top != 0) {
    const vid v = stack[--top];
    for (std::uint32_t k = inc.begin(v); k < inc.end(v); ++k) {
      if (r.visits == kSearchBudget) return r;
      ++r.visits;
      const graph::Edge f = edges[inc.edge(k)];
      bool moved = propagate_edge(st, f, opts, round);
      if (opts.min_max_signatures) moved |= propagate_edge_min(st, f, opts, round);
      if (!moved) continue;
      r.moved = true;
      if (top < kSearchStack) stack[top++] = f.src == v ? f.dst : f.src;
    }
  }
  return r;
}

}  // namespace ecl::scc::detail

#endif  // ECL_CORE_PROPAGATE_HPP

#include "core/fb_trim.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "core/ecl_scc.hpp"
#include "core/trim.hpp"
#include "device/atomics.hpp"
#include "device/edge_partition.hpp"
#include "graph/condensation.hpp"
#include "support/rng.hpp"

namespace ecl::scc {
namespace {

using device::BlockContext;

/// Level-synchronous, color-confined parallel BFS from all pivots at once.
/// Visiting is recorded by stamping `tag[v] = (round << 8) | enc` (tags
/// survive across rounds, so no per-round clearing of the whole array is
/// needed; the round in the high bits makes every new round's tag beat any
/// stale one). `enc` ranks the pivot WITHIN its color's pivot set —
/// kEncBase(k) - index, so index 0 carries the largest enc — and the
/// expansion claims vertices with a tag CAS-max: the deterministic
/// min-pivot-index-wins rule of the §15 multi-pivot rounds. A claim that
/// IMPROVES an already-visited vertex re-enqueues it (label-correcting),
/// so the fixpoint tag is a pure function of reachability — constant on
/// every SCC — no matter how the level schedule interleaves. With one
/// pivot per color this degenerates to the classic visited-bit BFS.
struct Bfs {
  explicit Bfs(vid n)
      : tag(std::make_unique<std::atomic<std::uint64_t>[]>(n)),
        frontier(n),
        next(n) {}

  std::unique_ptr<std::atomic<std::uint64_t>[]> tag;
  std::vector<vid> frontier;
  std::vector<vid> next;
  std::vector<graph::eid> prefix;  ///< frontier degree prefix sums (merge-path mode)

  static std::uint64_t visited_round(std::uint64_t tag_value) noexcept { return tag_value >> 8; }
  static unsigned tag_enc(std::uint64_t tag_value) noexcept {
    return static_cast<unsigned>(tag_value & 0xff);
  }

  /// Returns the number of BFS levels executed. `enc[i]` is the rank code
  /// of `sources[i]` (same length; all non-zero).
  std::uint64_t run(const Digraph& dir, device::Device& dev, std::uint64_t round,
                    std::span<const vid> sources, std::span<const std::uint8_t> enc,
                    std::span<const std::uint8_t> active, std::span<const std::uint64_t> color,
                    bool edge_balanced, std::atomic<std::uint64_t>& edges_processed) {
    std::size_t frontier_size = 0;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      // A pivot may be claimed by a better pivot's BFS later; its own seed
      // tag still starts it off. Plain store: round's tags beat all others.
      tag[sources[i]].store((round << 8) | enc[i], std::memory_order_relaxed);
      frontier[frontier_size++] = sources[i];
    }
    std::uint64_t levels = 0;
    while (frontier_size > 0) {
      ++levels;
      std::uint64_t frontier_edges = 0;
      if (edge_balanced) {
        // Merge-path split (DESIGN.md §11): the frontier's degree prefix
        // sums form a frontier sub-CSR; blocks then own equal EDGE spans of
        // it, found with one upper_bound each — a hub's adjacency is split
        // across blocks instead of serializing one block.
        prefix.resize(frontier_size + 1);
        prefix[0] = 0;
        for (std::size_t i = 0; i < frontier_size; ++i)
          prefix[i + 1] = prefix[i] + dir.out_degree(frontier[i]);
        frontier_edges = prefix[frontier_size];
        if (frontier_edges == 0) break;  // frontier has no out-edges: done
      }
      std::atomic<std::size_t> next_size{0};
      // Idempotent: the tag CAS-max admits each (vertex, enc) improvement to
      // `next` exactly once, so a spurious replay of a block finds every
      // neighbor already at its value and its staged flush commits nothing.
      dev.launch(
          edge_balanced ? dev.blocks_for(frontier_edges) : dev.blocks_for(frontier_size),
          [&](const BlockContext& ctx) {
            std::uint64_t local_edges = 0;
            // Chunked reservation (DESIGN.md §10): newly tagged vertices are
            // staged per block and committed to `next` with one cursor
            // fetch_add per chunk instead of one per vertex.
            constexpr std::size_t kChunk = 1024;
            std::vector<vid> staged;
            staged.reserve(kChunk);
            auto flush = [&] {
              if (staged.empty()) return;
              const std::size_t at =
                  next_size.fetch_add(staged.size(), std::memory_order_relaxed);
              std::copy(staged.begin(), staged.end(), next.begin() + at);
              staged.clear();
            };
            auto expand = [&](vid u, std::span<const vid> targets) {
              // Re-read u's enc at expansion: if a better pivot claimed u
              // after it was enqueued, propagate the better claim (the
              // earlier enqueue's expansion becomes a harmless subset).
              const std::uint64_t val =
                  (round << 8) | tag_enc(tag[u].load(std::memory_order_relaxed));
              for (vid w : targets) {
                ++local_edges;
                if (!active[w] || color[w] != color[u]) continue;
                std::uint64_t expected = tag[w].load(std::memory_order_relaxed);
                while (val > expected) {
                  if (tag[w].compare_exchange_weak(expected, val,
                                                   std::memory_order_relaxed)) {
                    staged.push_back(w);
                    if (staged.size() >= kChunk) flush();
                    break;
                  }
                }
              }
            };
            if (edge_balanced) {
              const device::EdgeSpan span =
                  device::equal_edge_span(ctx.block_id, ctx.num_blocks, frontier_edges);
              device::for_each_item_span(
                  std::span<const graph::eid>(prefix.data(), frontier_size + 1), span,
                  [&](std::size_t item, std::uint64_t lo, std::uint64_t hi) {
                    const vid u = frontier[item];
                    const auto nbrs = dir.out_neighbors(u);
                    expand(u, nbrs.subspan(lo - prefix[item], hi - lo));
                  });
            } else {
              ctx.for_each_chunk(frontier_size, [&](std::uint64_t lo, std::uint64_t hi) {
                for (std::uint64_t i = lo; i < hi; ++i)
                  expand(frontier[i], dir.out_neighbors(frontier[i]));
              });
            }
            flush();
            edges_processed.fetch_add(local_edges, std::memory_order_relaxed);
            dev.record_block_work(ctx.block_id, local_edges);
          },
          {.idempotent = true});
      frontier.swap(next);
      frontier_size = next_size.load(std::memory_order_relaxed);
    }
    return levels;
  }
};

/// Device-resident trimming, as GPU-SCC runs it: every Trim-1 sweep is a
/// mark kernel plus an apply kernel (snapshot semantics), iterated until no
/// trivial SCC remains — the launch-latency-bound loop that makes deep
/// trivial-SCC DAGs (beam-hex, star) expensive for FB-style codes (§5.1.1).
/// Trim-2/3 run as single-block kernels (one sweep per round).
vid device_trim(TrimView view, device::Device& dev, const FbOptions& opts,
                std::vector<std::uint8_t>& mark, SccMetrics& metrics) {
  using device::BlockContext;
  const vid n = view.g.num_vertices();
  vid total = 0;

  // Trim-chase (§15): every byte the apply kernel and the chasers share is
  // accessed through atomic_ref — the chase deliberately crosses chunk
  // boundaries, so the chunk-disjointness that made plain writes safe in
  // the unfused kernel no longer holds.
  auto load_u8 = [](std::uint8_t& b) {
    return std::atomic_ref<std::uint8_t>(b).load(std::memory_order_relaxed);
  };
  auto store_u8 = [](std::uint8_t& b, std::uint8_t v) {
    std::atomic_ref<std::uint8_t>(b).store(v, std::memory_order_relaxed);
  };
  // Removability probe mirroring trim1_removable, but with atomic reads so
  // it can run while other workers deactivate vertices. A stale read is
  // conservative in both directions: seeing a dying neighbor as active just
  // misses a trim (the next mark sweep catches it), and a vertex can only
  // LOSE active neighbors, so a "removable" verdict never becomes wrong.
  auto chase_removable = [&](vid w) {
    const bool colored = !view.color.empty();
    bool has_in = false;
    for (vid x : view.rev.out_neighbors(w)) {
      if (x != w && load_u8(view.active[x]) && (!colored || view.color[x] == view.color[w])) {
        has_in = true;
        break;
      }
    }
    if (!has_in) return true;
    for (vid x : view.g.out_neighbors(w)) {
      if (x != w && load_u8(view.active[x]) && (!colored || view.color[x] == view.color[w]))
        return false;
    }
    return true;
  };

  auto trim1_to_fixpoint = [&] {
    vid removed_total = 0;
    for (;;) {
      std::atomic<std::uint64_t> marked{0};
      dev.launch(dev.blocks_for(n), [&](const BlockContext& ctx) {
        std::uint64_t local = 0;
        ctx.for_each_chunk(n, [&](std::uint64_t lo, std::uint64_t hi) {
          local += trim1_mark_range(view, static_cast<vid>(lo), static_cast<vid>(hi),
                                    mark.data());
        });
        marked.fetch_add(local, std::memory_order_relaxed);
      });
      ++metrics.propagation_rounds;
      const auto count = marked.load(std::memory_order_relaxed);
      if (count == 0) break;
      std::atomic<std::uint64_t> chased{0};
      std::atomic<std::uint64_t> chase_seeds{0};
      dev.launch(dev.blocks_for(n), [&](const BlockContext& ctx) {
        std::uint64_t local_chased = 0, local_seeds = 0;
        std::vector<vid> stack;
        ctx.for_each_chunk(n, [&](std::uint64_t lo, std::uint64_t hi) {
          for (std::uint64_t v = lo; v < hi; ++v) {
            if (!load_u8(mark[v])) continue;
            std::atomic_ref<vid>(view.labels[v]).store(static_cast<vid>(v),
                                                       std::memory_order_relaxed);
            store_u8(view.active[v], 0);
            store_u8(mark[v], 0);
            if (!opts.trim_chase) continue;
            // Chase the trims this removal exposed, up to trim_chain_cap,
            // instead of waiting one mark/apply kernel pair per generation.
            // A candidate is claimed exactly once by the active-flag CAS;
            // marked vertices are left to their own apply iteration (they
            // are already counted in `marked`).
            std::uint64_t budget = opts.trim_chain_cap;
            std::uint64_t len = 0;
            stack.clear();
            stack.push_back(static_cast<vid>(v));
            while (!stack.empty() && budget != 0) {
              const vid dead = stack.back();
              stack.pop_back();
              auto probe = [&](std::span<const vid> candidates) {
                for (vid w : candidates) {
                  if (budget == 0) break;
                  if (w == dead || !load_u8(view.active[w]) || load_u8(mark[w])) continue;
                  if (!view.color.empty() && view.color[w] != view.color[dead]) continue;
                  if (!chase_removable(w)) continue;
                  std::uint8_t expected = 1;
                  if (!std::atomic_ref<std::uint8_t>(view.active[w])
                           .compare_exchange_strong(expected, 0, std::memory_order_relaxed))
                    continue;  // another chaser claimed w first
                  std::atomic_ref<vid>(view.labels[w]).store(w, std::memory_order_relaxed);
                  --budget;
                  ++len;
                  stack.push_back(w);
                }
              };
              probe(view.g.out_neighbors(dead));
              probe(view.rev.out_neighbors(dead));
            }
            if (len != 0) {
              ++local_seeds;
              local_chased += len;
            }
          }
        });
        chased.fetch_add(local_chased, std::memory_order_relaxed);
        chase_seeds.fetch_add(local_seeds, std::memory_order_relaxed);
      });
      metrics.chains_collapsed += chase_seeds.load(std::memory_order_relaxed);
      removed_total +=
          static_cast<vid>(count + chased.load(std::memory_order_relaxed));
    }
    return removed_total;
  };

  if (opts.trim1) total += trim1_to_fixpoint();
  vid pair_triple = 0;
  if (opts.trim2) {
    dev.launch(1, [&](const BlockContext&) { pair_triple += trim2_pass(view); });
  }
  if (opts.trim3) {
    dev.launch(1, [&](const BlockContext&) { pair_triple += trim3_pass(view); });
  }
  total += pair_triple;
  if (pair_triple > 0 && opts.trim1) total += trim1_to_fixpoint();
  return total;
}

}  // namespace

SccResult fb_trim(const Digraph& g, device::Device& dev, const FbOptions& opts) {
  const vid n = g.num_vertices();
  SccResult result;
  result.labels.assign(n, graph::kInvalidVid);
  if (n == 0) return result;

  const Digraph rev = g.reverse();
  const std::uint64_t launches_before = dev.stats().kernel_launches;

  std::vector<std::uint8_t> active(n, 1);
  std::vector<std::uint8_t> trim_mark(n, 0);
  std::vector<std::uint64_t> color(n, 0);
  Bfs fwd(n);
  Bfs bwd(n);
  std::atomic<std::uint64_t> edges_processed{0};
  std::vector<vid> pivots;

  const std::uint64_t guard =
      opts.max_rounds ? opts.max_rounds : static_cast<std::uint64_t>(n) + 2;
  vid remaining = n;
  std::uint64_t round = 0;

  // Pivots-per-color this round (§15): clamped by the 8-bit tag rank field.
  const unsigned k = opts.multi_pivot ? std::min(opts.max_pivots, 64u) : 1u;
  std::vector<std::uint8_t> enc;
  std::uint64_t pivot_rounds = 0;

  while (remaining > 0) {
    if (++round > guard)
      throw std::logic_error("fb_trim: round guard exceeded (internal bug)");
    ++result.metrics.outer_iterations;

    // --- Trim phase (iterated Trim-1, optional Trim-2/3, §2). -------------
    TrimView view{g, rev, color, active, result.labels};
    remaining -= device_trim(view, dev, opts, trim_mark, result.metrics);
    if (remaining == 0) break;

    // --- Pivot selection. Classic: max active vertex ID per color [4].
    // Multi-pivot (§15): up to k pivots per color by Efraimidis–Spirakis
    // degree-weighted sampling without replacement — key = ln(u) / w with
    // u drawn per-vertex from the fixed seed and w = (out+1)*(in+1), the
    // k largest keys win. High-degree pivots make each BFS sweep cover
    // more of the class, and the fixed seed keeps runs reproducible. ------
    // slot_pivots is slot-major: pivot i of a color sits at slot * k + i,
    // index order = descending sampling key = detection priority.
    std::unordered_map<std::uint64_t, std::uint32_t> color_slot;
    color_slot.reserve(64);
    std::vector<std::pair<double, vid>> keys;  // slot-major, same layout
    std::vector<vid> slot_pivots;
    std::vector<std::uint8_t> slot_count;
    for (vid v = 0; v < n; ++v) {
      if (!active[v]) continue;
      const auto [it, inserted] =
          color_slot.try_emplace(color[v], static_cast<std::uint32_t>(slot_count.size()));
      const std::uint32_t slot = it->second;
      if (inserted) {
        slot_count.push_back(0);
        keys.resize(keys.size() + k, {0.0, 0});
        slot_pivots.resize(slot_pivots.size() + k, graph::kInvalidVid);
      }
      double key;
      if (opts.multi_pivot) {
        std::uint64_t state =
            opts.pivot_seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(v) + 1));
        const std::uint64_t h = splitmix64(state);
        // u in (0, 1]: the +1 keeps ln defined; w >= 1 always.
        const double u =
            (static_cast<double>(h >> 11) + 1.0) / 9007199254740993.0;  // 2^53 + 1
        const double w = (static_cast<double>(g.out_degree(v)) + 1.0) *
                         (static_cast<double>(rev.out_degree(v)) + 1.0);
        key = std::log(u) / w;
      } else {
        key = static_cast<double>(v);  // classic: highest vertex ID wins
      }
      // Insertion into the slot's top-k, kept sorted descending by
      // (key, vid) — ties broken by vid for full determinism.
      const std::size_t base = static_cast<std::size_t>(slot) * k;
      std::uint8_t count = slot_count[slot];
      const std::pair<double, vid> cand{key, v};
      if (count < k) {
        std::size_t i = base + count;
        while (i > base && keys[i - 1] < cand) {
          keys[i] = keys[i - 1];
          slot_pivots[i] = slot_pivots[i - 1];
          --i;
        }
        keys[i] = cand;
        slot_pivots[i] = v;
        slot_count[slot] = static_cast<std::uint8_t>(count + 1);
      } else if (cand > keys[base + k - 1]) {
        std::size_t i = base + k - 1;
        while (i > base && keys[i - 1] < cand) {
          keys[i] = keys[i - 1];
          slot_pivots[i] = slot_pivots[i - 1];
          --i;
        }
        keys[i] = cand;
        slot_pivots[i] = v;
      }
    }
    pivots.clear();
    enc.clear();
    for (std::size_t slot = 0; slot < slot_count.size(); ++slot) {
      for (std::uint8_t i = 0; i < slot_count[slot]; ++i) {
        pivots.push_back(slot_pivots[slot * k + i]);
        enc.push_back(static_cast<std::uint8_t>(k - i));  // index 0 = largest rank
      }
    }
    ++pivot_rounds;
    result.metrics.pivots_selected += pivots.size();
    if (pivots.size() > color_slot.size()) ++result.metrics.multi_pivot_rounds;

    // --- Forward and backward color-confined BFS (the FB core, [8]). ------
    result.metrics.propagation_rounds += fwd.run(g, dev, round, pivots, enc, active, color,
                                                 opts.edge_balanced, edges_processed);
    result.metrics.propagation_rounds += bwd.run(rev, dev, round, pivots, enc, active, color,
                                                 opts.edge_balanced, edges_processed);

    // --- Intersection = SCC; recolor the remainder subgraphs. -------------
    // A vertex claimed forward and backward by the SAME pivot index is in
    // that pivot's SCC (the claim tags are reachability fixpoints, constant
    // on every SCC). Distinct indices, or a missing side, put the vertex in
    // the (fi, bi) remainder class — the k=1 specialization is exactly the
    // classic 3-way split.
    std::atomic<std::uint64_t> found{0};
    dev.launch(dev.blocks_for(n), [&](const BlockContext& ctx) {
      std::uint64_t local_found = 0;
      ctx.for_each_chunk(n, [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t v = lo; v < hi; ++v) {
          if (!active[v]) continue;
          const std::uint64_t ft = fwd.tag[v].load(std::memory_order_relaxed);
          const std::uint64_t bt = bwd.tag[v].load(std::memory_order_relaxed);
          // Pivot index from the rank code; k = "not reached this round".
          const unsigned fi = Bfs::visited_round(ft) == round ? k - Bfs::tag_enc(ft) : k;
          const unsigned bi = Bfs::visited_round(bt) == round ? k - Bfs::tag_enc(bt) : k;
          if (fi < k && fi == bi) {
            result.labels[v] =
                slot_pivots[static_cast<std::size_t>(color_slot.at(color[v])) * k + fi];
            active[v] = 0;
            ++local_found;
          } else {
            // New subgraph ID: hash(old color, branch). A hash collision
            // merely merges two classes, which FB tolerates (every SCC is
            // still contained in one class).
            const std::uint64_t branch =
                static_cast<std::uint64_t>(fi) * (k + 1) + bi + 1;
            const std::uint64_t mix = static_cast<std::uint64_t>(k + 1) * (k + 1) + 1;
            std::uint64_t seed = color[v] * mix + branch;
            color[v] = splitmix64(seed);
          }
        }
      });
      found.fetch_add(local_found, std::memory_order_relaxed);
    });
    const std::uint64_t found_total = found.load(std::memory_order_relaxed);
    if (found_total == 0)
      throw std::logic_error("fb_trim: round found no SCC (internal bug)");
    remaining -= static_cast<vid>(found_total);
  }

  result.metrics.edges_processed = edges_processed.load(std::memory_order_relaxed);
  result.metrics.kernel_launches = dev.stats().kernel_launches - launches_before;
  if (pivot_rounds > 0)
    result.metrics.pivots_per_round =
        static_cast<double>(result.metrics.pivots_selected) / static_cast<double>(pivot_rounds);

  std::vector<vid> dense(result.labels.begin(), result.labels.end());
  result.num_components = graph::normalize_labels(dense);
  return result;
}

SccResult fb_trim(const Digraph& g, const FbOptions& opts) {
  return fb_trim(g, shared_device(), opts);
}

}  // namespace ecl::scc

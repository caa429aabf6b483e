#ifndef ECL_CORE_ECL_OMP_HPP
#define ECL_CORE_ECL_OMP_HPP

// Multicore CPU implementation of ECL-SCC (extension, not in the paper).
//
// The max-ID-propagation algorithm is not GPU-specific: this is an
// independent OpenMP translation of Algorithm 1 with the worklist and
// path-compression optimizations, using relaxed atomic_ref stores for the
// benign signature races. Besides demonstrating portability, it serves the
// test suite as a second, independently coded implementation of the
// paper's contribution.

#include "core/result.hpp"

namespace ecl::scc {

struct EclOmpOptions {
  unsigned num_threads = 0;  ///< OpenMP threads; 0 keeps the runtime default
  bool path_compression = true;
  bool remove_scc_edges = true;
  /// Per-vertex epoch stamps skip edges whose endpoints are both quiescent
  /// (the CPU translation of the device hot path's gate, DESIGN.md §10).
  bool frontier_gating = true;
  /// Equal contiguous edge spans per thread in the edge phases (the CPU
  /// translation of the device edge-balance lever, DESIGN.md §11): plain
  /// schedule(static). Off mirrors the classic device distribution with
  /// block-cyclic 512-edge chunks (schedule(static, 512)).
  bool edge_balanced = true;
};

/// Runs ECL-SCC on the CPU. Labels are the max vertex ID per component.
SccResult ecl_omp(const Digraph& g, const EclOmpOptions& opts = {});

}  // namespace ecl::scc

#endif  // ECL_CORE_ECL_OMP_HPP

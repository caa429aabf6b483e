#ifndef E2EBENCH_REFERENCE_HPP
#define E2EBENCH_REFERENCE_HPP
// The benchmark's own SCC reference and output checks. Nothing here calls
// into src/core: the reference is an independent, iterative (recursion-free)
// Tarjan over the graph's CSR, so a defect in the program cannot hide in
// the oracle it is checked against.
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace e2e {

using ecl::graph::Digraph;
using ecl::graph::vid;

/// SCC labels of g with every class named by its maximum member — the
/// naming ECL-SCC guarantees (paper §3.2.1), so a correct ECL labeling is
/// bit-identical to this one.
std::vector<vid> reference_scc(const Digraph& g);

/// Number of classes in a max-member-named labeling (vertices v with
/// labels[v] == v).
vid count_classes(std::span<const vid> max_named);

/// Checks `labels` against the max-member-named reference. Empty string
/// when bit-identical; otherwise says whether the partition differs or
/// only the class naming does.
std::string check_labels(std::span<const vid> labels, std::span<const vid> reference);

/// True when every class is named by its maximum member.
bool max_member_named(std::span<const vid> labels);

/// 64-bit digest of the partition `labels` induce, independent of the
/// label values chosen (classes are renumbered in first-seen order before
/// hashing). Equal partitions give equal digests.
std::uint64_t partition_digest(std::span<const vid> labels);

/// 64-bit digest of the label values themselves: equal labelings give
/// equal digests. Lets a check keep a digest of the reference instead of
/// the reference labels.
std::uint64_t label_digest(std::span<const vid> labels);

/// 64-bit digest of the condensation of g under `labels`: its component
/// count and its distinct component edges, with components numbered in
/// first-appearance order of the labels (the numbering
/// DynamicScc::condensation_graph documents).
std::uint64_t condensation_digest(const Digraph& g, std::span<const vid> labels);

/// The same digest of a condensation given as a graph on its components.
std::uint64_t condensation_digest(const Digraph& condensation);

}  // namespace e2e

#endif  // E2EBENCH_REFERENCE_HPP

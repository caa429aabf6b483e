#include "reference.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace e2e {
namespace {

constexpr vid kUnvisited = std::numeric_limits<vid>::max();

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  return h * 0xbf58476d1ce4e5b9ULL;
}

/// Digest of a graph's distinct edges over `num_vertices` vertices.
std::uint64_t edge_set_digest(std::vector<std::pair<vid, vid>> edges, vid num_vertices) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::uint64_t h = mix(num_vertices, edges.size());
  for (const auto& [u, v] : edges) h = mix(mix(h, u), v);
  return h;
}

}  // namespace

std::vector<vid> reference_scc(const Digraph& g) {
  const vid n = g.num_vertices();
  const auto offsets = g.offsets();
  const auto targets = g.targets();
  std::vector<vid> index(n, kUnvisited), low(n, 0), labels(n, kUnvisited);
  std::vector<vid> stack;     // Tarjan's component stack
  std::vector<vid> call;      // explicit DFS call stack (vertices)
  std::vector<std::uint64_t> next_edge(n, 0);
  std::vector<bool> on_stack(n, false);
  vid counter = 0;
  for (vid root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call.push_back(root);
    index[root] = low[root] = counter++;
    next_edge[root] = offsets[root];
    stack.push_back(root);
    on_stack[root] = true;
    while (!call.empty()) {
      const vid v = call.back();
      if (next_edge[v] < offsets[v + 1]) {
        const vid w = targets[next_edge[v]++];
        if (index[w] == kUnvisited) {
          index[w] = low[w] = counter++;
          next_edge[w] = offsets[w];
          stack.push_back(w);
          on_stack[w] = true;
          call.push_back(w);
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      call.pop_back();
      if (!call.empty()) low[call.back()] = std::min(low[call.back()], low[v]);
      if (low[v] != index[v]) continue;
      // v roots a component: pop it, then name it by its maximum member.
      std::size_t first = stack.size();
      vid max_member = 0;
      do {
        --first;
        max_member = std::max(max_member, stack[first]);
      } while (stack[first] != v);
      for (std::size_t i = first; i < stack.size(); ++i) {
        labels[stack[i]] = max_member;
        on_stack[stack[i]] = false;
      }
      stack.resize(first);
    }
  }
  return labels;
}

vid count_classes(std::span<const vid> max_named) {
  vid classes = 0;
  for (std::size_t v = 0; v < max_named.size(); ++v) classes += max_named[v] == v ? 1 : 0;
  return classes;
}

bool max_member_named(std::span<const vid> labels) {
  const std::size_t n = labels.size();
  for (std::size_t v = 0; v < n; ++v) {
    const vid l = labels[v];
    if (l >= n || l < v || labels[l] != l) return false;
  }
  return true;
}

std::uint64_t partition_digest(std::span<const vid> labels) {
  // First-seen renumbering: class ids become 0, 1, 2, ... in vertex order.
  std::vector<vid> ordinal(labels.size(), kUnvisited);
  vid next = 0;
  std::uint64_t h = labels.size();
  for (const vid l : labels) {
    if (l >= labels.size()) return mix(h, kUnvisited);  // incomplete / invalid labeling
    if (ordinal[l] == kUnvisited) ordinal[l] = next++;
    h = mix(h, ordinal[l]);
  }
  return h;
}

std::uint64_t label_digest(std::span<const vid> labels) {
  std::uint64_t h = labels.size();
  for (const vid l : labels) h = mix(h, l);
  return h;
}

std::uint64_t condensation_digest(const Digraph& g, std::span<const vid> labels) {
  std::vector<vid> component(labels.size(), kUnvisited);
  vid next = 0;
  for (const vid l : labels)
    if (component[l] == kUnvisited) component[l] = next++;
  std::vector<std::pair<vid, vid>> edges;
  for (vid u = 0; u < g.num_vertices(); ++u)
    for (const vid v : g.out_neighbors(u))
      if (labels[u] != labels[v]) edges.emplace_back(component[labels[u]], component[labels[v]]);
  return edge_set_digest(std::move(edges), next);
}

std::uint64_t condensation_digest(const Digraph& condensation) {
  std::vector<std::pair<vid, vid>> edges;
  for (vid u = 0; u < condensation.num_vertices(); ++u)
    for (const vid v : condensation.out_neighbors(u)) edges.emplace_back(u, v);
  return edge_set_digest(std::move(edges), condensation.num_vertices());
}

std::string check_labels(std::span<const vid> labels, std::span<const vid> reference) {
  if (labels.size() != reference.size()) return "label count differs from vertex count";
  bool identical = true;
  for (std::size_t v = 0; v < labels.size() && identical; ++v) identical = labels[v] == reference[v];
  if (identical) return {};
  if (partition_digest(labels) != partition_digest(reference))
    return "partition differs from the reference SCCs";
  return "classes match but are not named by their maximum member";
}

}  // namespace e2e

#pragma once
// Directed graphs over deal parties: strong connectivity (Tarjan) decides
// well-formedness of a cross-chain deal [3]; BFS depths parameterize the
// timelock commit protocol's timeouts.

#include <cstdint>
#include <vector>

namespace xcp::deals {

class Digraph {
 public:
  explicit Digraph(int vertices);

  void add_edge(int from, int to);

  int vertex_count() const { return static_cast<int>(adj_.size()); }
  const std::vector<int>& out(int v) const {
    return adj_.at(static_cast<std::size_t>(v));
  }

  /// Tarjan strongly-connected components; returns the component id of each
  /// vertex (ids are arbitrary but equal iff same SCC).
  std::vector<int> scc_ids() const;
  int scc_count() const;

  /// A deal is well-formed iff its transfer graph is strongly connected [3].
  bool strongly_connected() const;

  /// BFS hop distance from `source` (-1 when unreachable).
  std::vector<int> bfs_depths(int source) const;

  /// Longest finite BFS distance from `source`.
  int eccentricity(int source) const;

 private:
  std::vector<std::vector<int>> adj_;
};

}  // namespace xcp::deals

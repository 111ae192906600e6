#include "deals/digraph.hpp"

#include <algorithm>
#include <deque>

#include "support/status.hpp"

namespace xcp::deals {

Digraph::Digraph(int vertices) {
  XCP_REQUIRE(vertices >= 0, "negative vertex count");
  adj_.resize(static_cast<std::size_t>(vertices));
}

void Digraph::add_edge(int from, int to) {
  XCP_REQUIRE(from >= 0 && from < vertex_count(), "edge from unknown vertex");
  XCP_REQUIRE(to >= 0 && to < vertex_count(), "edge to unknown vertex");
  adj_[static_cast<std::size_t>(from)].push_back(to);
}

std::vector<int> Digraph::scc_ids() const {
  // Iterative Tarjan (explicit stack) so deep graphs cannot overflow the
  // call stack.
  const int n = vertex_count();
  std::vector<int> index(static_cast<std::size_t>(n), -1);
  std::vector<int> lowlink(static_cast<std::size_t>(n), 0);
  std::vector<bool> on_stack(static_cast<std::size_t>(n), false);
  std::vector<int> scc(static_cast<std::size_t>(n), -1);
  std::vector<int> stack;
  int next_index = 0;
  int next_scc = 0;

  struct Frame {
    int v;
    std::size_t child;
  };

  for (int root = 0; root < n; ++root) {
    if (index[static_cast<std::size_t>(root)] != -1) continue;
    std::vector<Frame> frames{{root, 0}};
    index[static_cast<std::size_t>(root)] =
        lowlink[static_cast<std::size_t>(root)] = next_index++;
    stack.push_back(root);
    on_stack[static_cast<std::size_t>(root)] = true;

    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto& edges = adj_[static_cast<std::size_t>(f.v)];
      if (f.child < edges.size()) {
        const int w = edges[f.child++];
        if (index[static_cast<std::size_t>(w)] == -1) {
          index[static_cast<std::size_t>(w)] =
              lowlink[static_cast<std::size_t>(w)] = next_index++;
          stack.push_back(w);
          on_stack[static_cast<std::size_t>(w)] = true;
          frames.push_back({w, 0});
        } else if (on_stack[static_cast<std::size_t>(w)]) {
          lowlink[static_cast<std::size_t>(f.v)] =
              std::min(lowlink[static_cast<std::size_t>(f.v)],
                       index[static_cast<std::size_t>(w)]);
        }
      } else {
        if (lowlink[static_cast<std::size_t>(f.v)] ==
            index[static_cast<std::size_t>(f.v)]) {
          for (;;) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = false;
            scc[static_cast<std::size_t>(w)] = next_scc;
            if (w == f.v) break;
          }
          ++next_scc;
        }
        const int v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[static_cast<std::size_t>(frames.back().v)] =
              std::min(lowlink[static_cast<std::size_t>(frames.back().v)],
                       lowlink[static_cast<std::size_t>(v)]);
        }
      }
    }
  }
  return scc;
}

int Digraph::scc_count() const {
  const auto ids = scc_ids();
  return ids.empty() ? 0 : *std::max_element(ids.begin(), ids.end()) + 1;
}

bool Digraph::strongly_connected() const {
  return vertex_count() > 0 && scc_count() == 1;
}

std::vector<int> Digraph::bfs_depths(int source) const {
  std::vector<int> depth(static_cast<std::size_t>(vertex_count()), -1);
  std::deque<int> q{source};
  depth[static_cast<std::size_t>(source)] = 0;
  while (!q.empty()) {
    const int v = q.front();
    q.pop_front();
    for (int w : adj_[static_cast<std::size_t>(v)]) {
      if (depth[static_cast<std::size_t>(w)] == -1) {
        depth[static_cast<std::size_t>(w)] = depth[static_cast<std::size_t>(v)] + 1;
        q.push_back(w);
      }
    }
  }
  return depth;
}

int Digraph::eccentricity(int source) const {
  const auto depths = bfs_depths(source);
  int ecc = 0;
  for (int d : depths) ecc = std::max(ecc, d);
  return ecc;
}

}  // namespace xcp::deals

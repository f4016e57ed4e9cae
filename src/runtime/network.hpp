// Topology capture: a plan's process network as a graph, for inspection
// and Graphviz export — the picture of the array the paper draws by hand
// (hex arrays, linear pipelines with buffers).
#pragma once

#include <string>
#include <vector>

#include "numeric/int_vec.hpp"

namespace systolize {

struct NetworkPlan;  // runtime/plan_cache.hpp

struct NetworkGraph {
  enum class NodeKind { Computation, Input, Output, Buffer };

  struct Node {
    std::string name;
    NodeKind kind = NodeKind::Computation;
  };

  struct Edge {
    std::string from;
    std::string to;
    std::string channel;
    std::string stream;
  };

  std::vector<Node> nodes;
  std::vector<Edge> edges;

  [[nodiscard]] std::size_t count(NodeKind kind) const;
};

/// The plan's topology: one edge per channel, in channel order, from its
/// sender to its receiver; each process is a node from the first channel
/// that names it (its sender before its receiver).
[[nodiscard]] NetworkGraph network_graph(const NetworkPlan& plan);

/// Graphviz rendering: computation processes as boxes, i/o as houses,
/// buffers as small circles; one colour per stream's channels.
[[nodiscard]] std::string to_dot(const NetworkGraph& graph);

}  // namespace systolize

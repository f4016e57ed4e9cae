// Topology capture: the instantiated process network as a graph, for
// inspection and Graphviz export — the picture of the array the paper
// draws by hand (hex arrays, linear pipelines with buffers).
#pragma once

#include <string>
#include <vector>

#include "numeric/int_vec.hpp"

namespace systolize {

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

/// Graphviz rendering: computation processes as boxes, i/o as houses,
/// buffers as small circles; one colour per stream's channels.
[[nodiscard]] std::string to_dot(const NetworkGraph& graph);

}  // namespace systolize

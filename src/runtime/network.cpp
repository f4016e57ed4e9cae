#include "runtime/network.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "runtime/plan_cache.hpp"

namespace systolize {

std::size_t NetworkGraph::count(NodeKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(nodes.begin(), nodes.end(),
                    [kind](const Node& n) { return n.kind == kind; }));
}

NetworkGraph network_graph(const NetworkPlan& plan) {
  using Kind = NetworkGraph::NodeKind;
  // Indexed by NetworkPlan::ProcKind: Input, Output, Pass, Comp.
  constexpr Kind kKind[] = {Kind::Input, Kind::Output, Kind::Buffer,
                            Kind::Computation};
  NetworkGraph graph;
  std::vector<char> seen(plan.procs.size(), 0);
  for (std::size_t ci = 0; ci < plan.channels.size(); ++ci) {
    const NetworkPlan::ChannelSpec& c = plan.channels[ci];
    if (c.sender < 0 || c.receiver < 0) continue;
    const auto from = static_cast<std::size_t>(c.sender);
    const auto to = static_cast<std::size_t>(c.receiver);
    for (const std::size_t id : {from, to}) {
      if (seen[id] != 0) continue;
      seen[id] = 1;
      graph.nodes.push_back(
          {proc_name(plan, id), kKind[static_cast<int>(plan.procs[id].kind)]});
    }
    graph.edges.push_back({proc_name(plan, from), proc_name(plan, to),
                           channel_name(plan, ci), plan.streams[c.stream]});
  }
  return graph;
}

std::string to_dot(const NetworkGraph& graph) {
  // Stable colour per stream.
  static const char* kColors[] = {"#1f77b4", "#d62728", "#2ca02c",
                                  "#9467bd", "#ff7f0e", "#8c564b"};
  std::map<std::string, const char*> color;
  for (const NetworkGraph::Edge& e : graph.edges) {
    if (!color.contains(e.stream)) {
      color[e.stream] = kColors[color.size() % 6];
    }
  }

  std::ostringstream os;
  os << "digraph systolic {\n"
     << "  rankdir=LR;\n"
     << "  node [fontsize=9];\n";
  auto quoted = [](const std::string& s) { return '"' + s + '"'; };
  for (const NetworkGraph::Node& n : graph.nodes) {
    os << "  " << quoted(n.name);
    switch (n.kind) {
      case NetworkGraph::NodeKind::Computation:
        os << " [shape=box, style=filled, fillcolor=\"#e8f0fe\"]";
        break;
      case NetworkGraph::NodeKind::Input:
        os << " [shape=house]";
        break;
      case NetworkGraph::NodeKind::Output:
        os << " [shape=invhouse]";
        break;
      case NetworkGraph::NodeKind::Buffer:
        os << " [shape=circle, width=0.2, label=\"\"]";
        break;
    }
    os << ";\n";
  }
  for (const NetworkGraph::Edge& e : graph.edges) {
    os << "  " << quoted(e.from) << " -> " << quoted(e.to) << " [color=\""
       << color[e.stream] << "\", tooltip=\"" << e.channel << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace systolize

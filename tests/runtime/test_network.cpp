// Topology capture (network_graph of an expanded plan) and Graphviz
// export.
#include "runtime/network.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"

namespace systolize {
namespace {

NetworkGraph capture(const std::string& name, Int n) {
  Design d = design_by_name(name);
  CompiledProgram prog = compile(d.nest, d.spec);
  Env sizes{{"n", Rational(n)}, {"m", Rational(2)}};
  return network_graph(*build_plan(prog, d.nest, sizes, PlanShape{}));
}

TEST(Network, NodeCountsMatchMetrics) {
  Design d = polyprod_design1();
  CompiledProgram prog = compile(d.nest, d.spec);
  Env sizes{{"n", Rational(4)}};
  const NetworkGraph graph =
      network_graph(*build_plan(prog, d.nest, sizes, PlanShape{}));
  IndexedStore store = make_initial_store(
      d.nest, sizes, [](const std::string&, const IntVec&) { return 1; });
  RunMetrics metrics = execute(prog, d.nest, sizes, store);

  EXPECT_EQ(graph.count(NetworkGraph::NodeKind::Computation),
            metrics.computation_processes);
  EXPECT_EQ(graph.count(NetworkGraph::NodeKind::Input) +
                graph.count(NetworkGraph::NodeKind::Output),
            metrics.io_processes);
  EXPECT_EQ(graph.count(NetworkGraph::NodeKind::Buffer),
            metrics.buffer_processes);
  EXPECT_EQ(graph.nodes.size(), metrics.process_count);
  // Every channel that exists appears as exactly one edge.
  EXPECT_EQ(graph.edges.size(), metrics.channel_count);
}

TEST(Network, EveryEdgeEndpointIsANode) {
  NetworkGraph graph = capture("matmul2", 2);
  std::set<std::string> names;
  for (const auto& n : graph.nodes) names.insert(n.name);
  for (const auto& e : graph.edges) {
    EXPECT_TRUE(names.contains(e.from)) << e.from;
    EXPECT_TRUE(names.contains(e.to)) << e.to;
  }
}

TEST(Network, ComputationNodesAreSharedAcrossStreams) {
  // A computation process appears once even though three streams pass
  // through it.
  NetworkGraph graph = capture("matmul1", 2);
  std::size_t comp = graph.count(NetworkGraph::NodeKind::Computation);
  EXPECT_EQ(comp, 9u);  // (n+1)^2
  // ... but it has one incoming edge per stream.
  std::map<std::string, int> incoming;
  for (const auto& e : graph.edges) incoming[e.to]++;
  EXPECT_EQ(incoming.at("comp:(0,0)"), 3);
}

TEST(Network, DotOutputIsWellFormed) {
  NetworkGraph graph = capture("polyprod1", 3);
  std::string dot = to_dot(graph);
  EXPECT_NE(dot.find("digraph systolic {"), std::string::npos);
  EXPECT_NE(dot.find("\"comp:(0)\""), std::string::npos);
  EXPECT_NE(dot.find("shape=house"), std::string::npos);    // inputs
  EXPECT_NE(dot.find("shape=invhouse"), std::string::npos); // outputs
  EXPECT_NE(dot.find("shape=circle"), std::string::npos);   // b's buffers
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST(Network, LinearPipelineIsAChain) {
  // polyprod1 stream c: in -> comp(0) -> ... -> comp(n) -> out.
  NetworkGraph graph = capture("polyprod1", 2);
  std::map<std::string, std::string> next;  // c-edges only
  for (const auto& e : graph.edges) {
    if (e.stream == "c") next[e.from] = e.to;
  }
  std::string node = "in:c:(0)";
  std::vector<std::string> walk;
  while (next.contains(node)) {
    node = next[node];
    walk.push_back(node);
  }
  ASSERT_EQ(walk.size(), 4u);  // comp 0..2 then out
  EXPECT_EQ(walk.front(), "comp:(0)");
  EXPECT_EQ(walk.back(), "out:c:(2)");
}

}  // namespace
}  // namespace systolize

// Cross-size differential suite for the plan-template pipeline: for every
// catalog design and a sweep of problem sizes, the two-stage path
// (compile_template once, expand_template per size — pure integer
// arithmetic) must reproduce the single-stage symbolic build_plan() output
// bit for bit: spawn order, channel order, element slices, names, graph,
// everything. Also pins that interpreter (hooks off and on) and VM runs
// on an expanded plan match the sequential ground truth, and that the
// static verifier gate accepts plans served through the template path.
#include <gtest/gtest.h>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "runtime/instantiate.hpp"
#include "runtime/plan_template.hpp"
#include "scheme/compiler.hpp"

namespace systolize {
namespace {

const std::string kCatalog[] = {"polyprod1",   "polyprod2", "polyprod3",
                                "matmul1",     "matmul2",   "matmul3",
                                "matmul4",     "convolution",
                                "correlation", "fir_bank",  "closure"};

Env sizes_for(const Design& design, Int n) {
  Env env{{"n", Rational(n)}};
  for (const Symbol& s : design.nest.sizes()) {
    // Secondary sizes ("m") get a derived extent, as in bench_util.
    if (!env.contains(s.name())) {
      env[s.name()] = Rational(std::max<Int>(1, n / 2));
    }
  }
  return env;
}

IndexedStore seeded(const Design& design, const Env& sizes) {
  return make_initial_store(
      design.nest, sizes, [](const std::string& var, const IntVec& p) {
        Value h = 1099511628211LL * (var.empty() ? 7 : var[0]);
        for (std::size_t i = 0; i < p.dim(); ++i) h = h * 31 + p[i];
        return h % 17 - 8;
      });
}

void expect_same_graph(const NetworkGraph& a, const NetworkGraph& b,
                       const std::string& what) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << what;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].name, b.nodes[i].name) << what << " node " << i;
    EXPECT_EQ(a.nodes[i].kind, b.nodes[i].kind) << what << " node " << i;
  }
  ASSERT_EQ(a.edges.size(), b.edges.size()) << what;
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].from, b.edges[i].from) << what << " edge " << i;
    EXPECT_EQ(a.edges[i].to, b.edges[i].to) << what << " edge " << i;
    EXPECT_EQ(a.edges[i].channel, b.edges[i].channel) << what << " edge " << i;
    EXPECT_EQ(a.edges[i].stream, b.edges[i].stream) << what << " edge " << i;
  }
}

/// Field-by-field structural identity of two NetworkPlans. Every field
/// that influences execution, diagnostics, sharding or fault replay is
/// compared — "bit-identical" in the sense that no observable differs.
void expect_same_plan(const NetworkPlan& a, const NetworkPlan& b,
                      const std::string& what) {
  EXPECT_EQ(a.streams, b.streams) << what;
  ASSERT_EQ(a.channels.size(), b.channels.size()) << what;
  for (std::size_t i = 0; i < a.channels.size(); ++i) {
    const auto& ca = a.channels[i];
    const auto& cb = b.channels[i];
    EXPECT_EQ(ca.name, cb.name) << what << " channel " << i;
    EXPECT_EQ(ca.stream, cb.stream) << what << " channel " << i;
    EXPECT_EQ(ca.capacity, cb.capacity) << what << " channel " << i;
    EXPECT_EQ(ca.sender, cb.sender) << what << " channel " << i;
    EXPECT_EQ(ca.receiver, cb.receiver) << what << " channel " << i;
  }
  ASSERT_EQ(a.procs.size(), b.procs.size()) << what;
  for (std::size_t i = 0; i < a.procs.size(); ++i) {
    const auto& pa = a.procs[i];
    const auto& pb = b.procs[i];
    EXPECT_EQ(pa.name, pb.name) << what << " proc " << i;
    EXPECT_EQ(pa.kind, pb.kind) << what << " proc " << i;
    EXPECT_EQ(pa.clock, pb.clock) << what << " proc " << i;
    EXPECT_EQ(pa.stream, pb.stream) << what << " proc " << i;
    EXPECT_EQ(pa.chan_in, pb.chan_in) << what << " proc " << i;
    EXPECT_EQ(pa.chan_out, pb.chan_out) << what << " proc " << i;
    EXPECT_EQ(pa.count, pb.count) << what << " proc " << i;
    EXPECT_EQ(pa.elem_begin, pb.elem_begin) << what << " proc " << i;
    EXPECT_EQ(pa.elem_end, pb.elem_end) << what << " proc " << i;
    EXPECT_EQ(pa.role_begin, pb.role_begin) << what << " proc " << i;
    EXPECT_EQ(pa.role_end, pb.role_end) << what << " proc " << i;
    EXPECT_EQ(pa.first_x, pb.first_x) << what << " proc " << i;
    EXPECT_EQ(pa.coords, pb.coords) << what << " proc " << i;
    EXPECT_EQ(pa.place, pb.place) << what << " proc " << i;
  }
  ASSERT_EQ(a.roles.size(), b.roles.size()) << what;
  for (std::size_t i = 0; i < a.roles.size(); ++i) {
    const auto& ra = a.roles[i];
    const auto& rb = b.roles[i];
    EXPECT_EQ(ra.stream, rb.stream) << what << " role " << i;
    EXPECT_EQ(ra.stationary, rb.stationary) << what << " role " << i;
    EXPECT_EQ(ra.soak, rb.soak) << what << " role " << i;
    EXPECT_EQ(ra.drain, rb.drain) << what << " role " << i;
    EXPECT_EQ(ra.chan_in, rb.chan_in) << what << " role " << i;
    EXPECT_EQ(ra.chan_out, rb.chan_out) << what << " role " << i;
  }
  EXPECT_EQ(a.elems, b.elems) << what;
  EXPECT_EQ(a.increment, b.increment) << what;
  EXPECT_EQ(a.clock_count, b.clock_count) << what;
  EXPECT_EQ(a.comp_count, b.comp_count) << what;
  EXPECT_EQ(a.io_count, b.io_count) << what;
  EXPECT_EQ(a.buffer_count, b.buffer_count) << what;
  EXPECT_EQ(a.ps_min, b.ps_min) << what;
  EXPECT_EQ(a.ps_max, b.ps_max) << what;
  expect_same_graph(a.graph, b.graph, what);
}

class CrossSizeDifferential : public ::testing::TestWithParam<std::string> {};

// One template, many sizes: expansion must agree with a fresh symbolic
// build at every size in the sweep.
TEST_P(CrossSizeDifferential, ExpandMatchesBuildPlanAcrossSizes) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  const PlanShape shape;
  auto tmpl = compile_template(prog, design.nest, shape);
  for (Int n : {2, 3, 4, 5, 7, 9}) {
    Env sizes = sizes_for(design, n);
    auto expanded = expand_template(*tmpl, sizes);
    auto reference = build_plan(prog, design.nest, sizes, shape);
    expect_same_plan(*expanded, *reference,
                     GetParam() + " n=" + std::to_string(n));
  }
}

// Non-default shapes flow through the template too: extra channel slack,
// merged internal buffers, and partition grids (shared clock ids).
TEST_P(CrossSizeDifferential, ExpandMatchesBuildPlanAcrossShapes) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  std::vector<PlanShape> shapes;
  shapes.push_back(PlanShape{2, false, {}});
  shapes.push_back(PlanShape{0, true, {}});
  {
    PlanShape partitioned;
    partitioned.partition_grid =
        IntVec(std::vector<Int>(design.nest.depth() - 1, 2));
    shapes.push_back(partitioned);
  }
  for (const PlanShape& shape : shapes) {
    auto tmpl = compile_template(prog, design.nest, shape);
    for (Int n : {3, 5}) {
      Env sizes = sizes_for(design, n);
      auto expanded = expand_template(*tmpl, sizes);
      auto reference = build_plan(prog, design.nest, sizes, shape);
      expect_same_plan(*expanded, *reference,
                       GetParam() + " shaped n=" + std::to_string(n));
    }
  }
}

// Executing an expanded plan (served via the cache's template path) must
// match the sequential ground truth on the interpreter, with and without
// its watchdog hooks, and on the VM alike.
TEST_P(CrossSizeDifferential, ExpandedPlanRunsMatchSequential) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  PlanCache cache;
  for (Int n : {3, 5}) {
    Env sizes = sizes_for(design, n);
    IndexedStore expected = seeded(design, sizes);
    IndexedStore fast_store = expected;
    IndexedStore inst_store = expected;
    IndexedStore vm_store = expected;
    run_sequential(design.nest, sizes, expected);

    InstantiateOptions fast;
    fast.plan_cache = &cache;
    fast.backend = Backend::Interp;
    (void)execute(prog, design.nest, sizes, fast_store, fast);

    InstantiateOptions inst = fast;
    inst.watchdog.max_rounds = Int{1} << 40;  // live hooks, never firing
    (void)execute(prog, design.nest, sizes, inst_store, inst);

    InstantiateOptions vm;
    vm.plan_cache = &cache;
    (void)execute(prog, design.nest, sizes, vm_store, vm);

    for (const Stream& s : design.nest.streams()) {
      EXPECT_EQ(fast_store.elements(s.name()), expected.elements(s.name()))
          << GetParam() << " interp n=" << n << " stream " << s.name();
      EXPECT_EQ(inst_store.elements(s.name()), expected.elements(s.name()))
          << GetParam() << " watchdog n=" << n << " stream " << s.name();
      EXPECT_EQ(vm_store.elements(s.name()), expected.elements(s.name()))
          << GetParam() << " vm n=" << n << " stream " << s.name();
    }
  }
  // One template per design/shape; each size expanded exactly once and
  // then shared by all three engines.
  EXPECT_EQ(cache.template_compiles(), 1u) << GetParam();
  EXPECT_EQ(cache.misses(), 2u) << GetParam();
  EXPECT_EQ(cache.hits(), 4u) << GetParam();
}

// The static verification gate (InstantiateOptions::verify_plan) must
// accept every catalog design when the plan arrives via the template
// path — same proofs, zero scheduler rounds, no false findings.
TEST_P(CrossSizeDifferential, VerifyPlanGatePassesOnTemplatePath) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  PlanCache cache;
  Env sizes = sizes_for(design, 4);
  IndexedStore store = seeded(design, sizes);
  InstantiateOptions opt;
  opt.plan_cache = &cache;
  opt.verify_plan = true;
  RunMetrics metrics = execute(prog, design.nest, sizes, store, opt);
  EXPECT_FALSE(metrics.plan_reused);
  EXPECT_GT(metrics.process_count, 0u);
}

INSTANTIATE_TEST_SUITE_P(Catalog, CrossSizeDifferential,
                         ::testing::ValuesIn(kCatalog),
                         [](const auto& info) { return info.param; });

// Template expansion reports unbound sizes the way the symbolic
// evaluator does — by naming the missing symbol.
TEST(PlanTemplate, UnboundSizeSymbolRaisesValidation) {
  Design design = design_by_name("polyprod1");
  CompiledProgram prog = compile(design.nest, design.spec);
  auto tmpl = compile_template(prog, design.nest, PlanShape{});
  try {
    (void)expand_template(*tmpl, Env{});
    FAIL() << "expected Error(Validation)";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Validation);
    EXPECT_NE(std::string(e.what()).find("unbound symbol"), std::string::npos)
        << e.what();
  }
}

TEST(PlanTemplate, NonIntegerSizeRaisesValidation) {
  Design design = design_by_name("polyprod1");
  CompiledProgram prog = compile(design.nest, design.spec);
  auto tmpl = compile_template(prog, design.nest, PlanShape{});
  Env sizes{{"n", Rational(7, 2)}};
  try {
    (void)expand_template(*tmpl, sizes);
    FAIL() << "expected Error(Validation)";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Validation);
  }
}

// The template is self-contained: expansion works after the compiled
// program it was lowered from is gone.
TEST(PlanTemplate, TemplateOutlivesProgram) {
  Design design = design_by_name("matmul2");
  std::shared_ptr<const PlanTemplate> tmpl;
  std::unique_ptr<NetworkPlan> reference;
  Env sizes = sizes_for(design, 4);
  {
    CompiledProgram prog = compile(design.nest, design.spec);
    tmpl = compile_template(prog, design.nest, PlanShape{});
    reference = build_plan(prog, design.nest, sizes, PlanShape{});
  }
  auto expanded = expand_template(*tmpl, sizes);
  expect_same_plan(*expanded, *reference, "matmul2 after program death");
}

}  // namespace
}  // namespace systolize

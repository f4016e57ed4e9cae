// Cross-size suite for the plan-template pipeline. For every shipped
// design (designs/*.sa: the catalog plus the guarded masked_polyprod and
// banded_matmul) and a sweep of problem sizes and shapes, a plan expanded
// from one template must have the process structure the brute-force
// EnumerationOracle derives by scanning the index space: the PS box,
// chords, pipes and their element order, soak/drain counts, buffers,
// channel capacities and shared clocks. The oracle never evaluates the
// compiled formulas the template lowers, so it is an independent
// reference. Also pins that interpreter (hooks off and on) and VM runs on
// an expanded plan match the sequential ground truth, and that the static
// verifier gate accepts plans served through the template path.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "baseline/runtime_generation.hpp"
#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "frontend/parser.hpp"
#include "runtime/instantiate.hpp"
#include "runtime/network.hpp"
#include "runtime/plan_template.hpp"
#include "scheme/compiler.hpp"

#ifndef SYSTOLIZE_DESIGN_DIR
#define SYSTOLIZE_DESIGN_DIR "designs"
#endif

namespace systolize {
namespace {

/// The shipped designs outside the catalog: their guards mask only the
/// statement, so the oracle's process structure applies to them as is.
const std::string kGuarded[] = {"masked_polyprod", "banded_matmul"};

/// A catalog design by name, else designs/<name>.sa.
Design shipped_design(const std::string& name) {
  for (const std::string& catalog_name : catalog_names()) {
    if (catalog_name == name) return design_by_name(name);
  }
  std::ifstream in(std::string(SYSTOLIZE_DESIGN_DIR) + "/" + name + ".sa");
  std::stringstream text;
  text << in.rdbuf();
  return frontend::parse_design(text.str());
}

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
    EXPECT_EQ(channel_name(a, i), channel_name(b, i))
        << what << " channel " << i;
    EXPECT_EQ(ca.stream, cb.stream) << what << " channel " << i;
    EXPECT_EQ(ca.pipe, cb.pipe) << what << " channel " << i;
    EXPECT_EQ(ca.link, cb.link) << what << " channel " << i;
    EXPECT_EQ(ca.capacity, cb.capacity) << what << " channel " << i;
    EXPECT_EQ(ca.sender, cb.sender) << what << " channel " << i;
    EXPECT_EQ(ca.receiver, cb.receiver) << what << " channel " << i;
  }
  ASSERT_EQ(a.procs.size(), b.procs.size()) << what;
  for (std::size_t i = 0; i < a.procs.size(); ++i) {
    const auto& pa = a.procs[i];
    const auto& pb = b.procs[i];
    EXPECT_EQ(proc_name(a, i), proc_name(b, i)) << what << " proc " << i;
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
    EXPECT_EQ(pa.point, pb.point) << what << " proc " << i;
    EXPECT_EQ(pa.buffer, pb.buffer) << what << " proc " << i;
    EXPECT_EQ(proc_place(a, i), proc_place(b, i)) << what << " proc " << i;
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
  expect_same_graph(network_graph(a), network_graph(b), what);
}

bool in_box(const IntVec& y, const IntVec& lo, const IntVec& hi) {
  for (std::size_t i = 0; i < y.dim(); ++i) {
    if (y[i] < lo[i] || y[i] > hi[i]) return false;
  }
  return true;
}

/// Check `plan`, expanded at `sizes` under `shape`, against the
/// enumeration oracle. Each pipe is walked along its channel chain from
/// its input process: the chain must visit the box points of one line
/// along the stream's direction, from its anchor (the most upstream box
/// point) downstream, with q-1 internal buffers in front of each point
/// unless buffers are merged, a Comp process at each computation-space
/// point and an external buffer everywhere else, and carry exactly the
/// oracle's pipe elements, in order. Each process's derived place is the
/// oracle's point and its derived name is rendered from it; the channels
/// of a stream's p-th pipe are named "<stream>[p].<link>", links counting
/// from the input process.
void expect_plan_matches_oracle(const NetworkPlan& plan, const Design& design,
                                const Env& sizes, const PlanShape& shape,
                                const std::string& what) {
  const EnumerationOracle oracle(design.nest, design.spec, sizes);
  ASSERT_EQ(plan.ps_min, oracle.ps_min()) << what;
  ASSERT_EQ(plan.ps_max, oracle.ps_max()) << what;
  EXPECT_EQ(plan.increment, oracle.increment()) << what;
  const IntVec& lo = oracle.ps_min();
  const IntVec& hi = oracle.ps_max();
  const std::vector<IntVec> box = oracle.ps_points();
  const std::vector<Stream>& streams = design.nest.streams();
  ASSERT_EQ(plan.streams.size(), streams.size()) << what;

  // Computation processes: one per computation-space point, nowhere else,
  // with the oracle's chord and per-stream soak/drain.
  std::map<IntVec, std::size_t, IntVecLess> comp_at;
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    const NetworkPlan::ProcSpec& p = plan.procs[i];
    if (p.kind != NetworkPlan::ProcKind::Comp) continue;
    const IntVec y = proc_place(plan, i);
    EXPECT_TRUE(comp_at.emplace(y, i).second)
        << what << " two computation processes at " << y.to_string();
    EXPECT_EQ(proc_name(plan, i), "comp:" + y.to_string()) << what;
  }
  std::size_t cs_points = 0;
  for (const IntVec& y : box) {
    const std::string at = what + " at " + y.to_string();
    if (!oracle.in_computation_space(y)) {
      EXPECT_FALSE(comp_at.contains(y)) << at << ": comp outside CS";
      continue;
    }
    ++cs_points;
    auto it = comp_at.find(y);
    if (it == comp_at.end()) {
      ADD_FAILURE() << at << ": no computation process";
      continue;
    }
    const NetworkPlan::ProcSpec& comp = plan.procs[it->second];
    const EnumerationOracle::Chord& chord = oracle.chord_at(y);
    EXPECT_EQ(comp.first_x, chord.first) << at;
    EXPECT_EQ(comp.count, chord.count) << at;
    ASSERT_EQ(comp.role_end - comp.role_begin, streams.size()) << at;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const NetworkPlan::RoleSpec& role = plan.roles[comp.role_begin + s];
      const std::string& name = streams[s].name();
      EXPECT_EQ(role.stream, s) << at;
      EXPECT_EQ(role.stationary, design.spec.motion_of(streams[s]).stationary)
          << at << " " << name;
      EXPECT_EQ(role.soak, oracle.soak_at(name, y)) << at << " soak " << name;
      EXPECT_EQ(role.drain, oracle.drain_at(name, y))
          << at << " drain " << name;
    }
  }
  EXPECT_EQ(comp_at.size(), cs_points) << what;
  EXPECT_EQ(plan.comp_count, cs_points) << what;

  // Pipes, walked channel by channel from their input processes.
  std::vector<std::size_t> visits(plan.procs.size(), 0);
  std::size_t pipes = 0;
  auto receiver = [&](std::int32_t chan) -> std::size_t {
    const std::int32_t r = plan.channels[chan].receiver;
    EXPECT_GE(r, 0) << what << " channel " << channel_name(plan, chan);
    return r < 0 ? 0 : static_cast<std::size_t>(r);
  };
  std::vector<std::uint32_t> pipes_of_stream(plan.streams.size(), 0);
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    const NetworkPlan::ProcSpec& in = plan.procs[i];
    if (in.kind != NetworkPlan::ProcKind::Input) continue;
    ++pipes;
    ++visits[i];
    const std::uint32_t s = in.stream;
    const std::uint32_t pipe_no = pipes_of_stream[s]++;
    const std::string& name = plan.streams[s];
    const StreamMotion motion = design.spec.motion_of(streams[s]);
    const IntVec& dir = motion.direction;
    const Int q = motion.denominator;
    const Int inner = shape.merge_internal_buffers ? 0 : q - 1;
    const Int hop_capacity =
        shape.channel_capacity + (shape.merge_internal_buffers ? q - 1 : 0);
    const IntVec a = proc_place(plan, i);
    const std::string pipe = what + " pipe " + name + " from " + a.to_string();
    EXPECT_EQ(name, streams[s].name()) << pipe;
    EXPECT_EQ(proc_name(plan, i), "in:" + name + ":" + a.to_string()) << pipe;
    EXPECT_TRUE(in_box(a, lo, hi)) << pipe;
    EXPECT_FALSE(in_box(a - dir, lo, hi)) << pipe << ": not an anchor";

    const auto oracle_pipe = oracle.pipe_at(name, a);
    const std::vector<IntVec> elems =
        oracle_pipe.has_value() ? oracle_pipe->elems : std::vector<IntVec>{};
    const std::vector<IntVec> slice(plan.elems.begin() + in.elem_begin,
                                    plan.elems.begin() + in.elem_end);
    EXPECT_EQ(slice, elems) << pipe;
    EXPECT_EQ(in.count, static_cast<Int>(elems.size())) << pipe;

    // A channel's capacity depends on its sender: the hop leaving a
    // process on the pipe absorbs the merged buffers, the rest hold
    // `channel_capacity`.
    std::int32_t chan = in.chan_out;
    std::uint32_t link = 0;
    auto advance = [&](std::int32_t out, Int capacity) {
      const NetworkPlan::ChannelSpec& c = plan.channels[out];
      const std::string cname = channel_name(plan, out);
      EXPECT_EQ(cname, name + "[" + std::to_string(pipe_no) + "]." +
                           std::to_string(link++))
          << pipe;
      EXPECT_EQ(c.stream, s) << pipe << " channel " << cname;
      EXPECT_EQ(c.capacity, capacity) << pipe << " channel " << cname;
      chan = out;
    };
    advance(chan, shape.channel_capacity);
    IntVec tail = a;
    for (IntVec y = a; in_box(y, lo, hi); y += dir) {
      const std::string at = pipe + " at " + y.to_string();
      for (Int b = 0; b < inner; ++b) {
        const std::size_t k = receiver(chan);
        const NetworkPlan::ProcSpec& buf = plan.procs[k];
        ASSERT_EQ(buf.kind, NetworkPlan::ProcKind::Pass) << at << " buffer";
        EXPECT_EQ(proc_place(plan, k), y) << at << " buffer";
        EXPECT_EQ(proc_name(plan, k), "buf:" + name + ":" + y.to_string() +
                                          "#" + std::to_string(b))
            << at;
        EXPECT_EQ(buf.stream, s) << at << " buffer";
        EXPECT_EQ(buf.count, in.count) << at << " buffer";
        ++visits[k];
        advance(buf.chan_out, shape.channel_capacity);
      }
      const std::size_t k = receiver(chan);
      const NetworkPlan::ProcSpec& proc = plan.procs[k];
      ++visits[k];
      if (oracle.in_computation_space(y)) {
        ASSERT_EQ(proc.kind, NetworkPlan::ProcKind::Comp) << at;
        EXPECT_EQ(proc_place(plan, k), y) << at;
        const NetworkPlan::RoleSpec& role = plan.roles[proc.role_begin + s];
        EXPECT_EQ(role.chan_in, chan) << at;
        advance(role.chan_out, hop_capacity);
      } else {
        ASSERT_EQ(proc.kind, NetworkPlan::ProcKind::Pass) << at << " xbuf";
        EXPECT_EQ(proc_place(plan, k), y) << at << " xbuf";
        EXPECT_EQ(proc_name(plan, k), "xbuf:" + name + ":" + y.to_string())
            << at;
        EXPECT_EQ(proc.stream, s) << at << " xbuf";
        EXPECT_EQ(proc.count, in.count) << at << " xbuf";
        advance(proc.chan_out, hop_capacity);
      }
      tail = y;
    }
    const std::size_t k = receiver(chan);
    const NetworkPlan::ProcSpec& out = plan.procs[k];
    ++visits[k];
    ASSERT_EQ(out.kind, NetworkPlan::ProcKind::Output) << pipe;
    EXPECT_EQ(proc_place(plan, k), tail) << pipe;
    EXPECT_EQ(proc_name(plan, k), "out:" + name + ":" + tail.to_string())
        << pipe;
    EXPECT_EQ(out.stream, s) << pipe;
    EXPECT_EQ(out.elem_begin, in.elem_begin) << pipe;
    EXPECT_EQ(out.elem_end, in.elem_end) << pipe;
  }
  // Every process lies on the pipes: a Comp once per stream, every other
  // process exactly once, so the pipes of each stream tile the box.
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    const bool comp = plan.procs[i].kind == NetworkPlan::ProcKind::Comp;
    EXPECT_EQ(visits[i], comp ? streams.size() : 1)
        << what << " " << proc_name(plan, i);
  }
  EXPECT_EQ(plan.io_count, 2 * pipes) << what;

  // Shared clocks: one per partition block (all blocks hold processes),
  // and the processes of one block share its clock.
  if (shape.partition_grid.dim() == 0) {
    EXPECT_EQ(plan.clock_count, 0u) << what;
    for (std::size_t i = 0; i < plan.procs.size(); ++i) {
      EXPECT_EQ(plan.procs[i].clock, -1) << what << " " << proc_name(plan, i);
    }
    return;
  }
  std::size_t blocks = 1;
  auto block_of = [&](const IntVec& y) {
    IntVec block(y.dim());
    for (std::size_t i = 0; i < y.dim(); ++i) {
      const Int extent = hi[i] - lo[i] + 1;
      const Int g = std::max<Int>(
          1, std::min<Int>(shape.partition_grid[i], extent));
      block[i] = (y[i] - lo[i]) * g / extent;
    }
    return block;
  };
  for (std::size_t i = 0; i < lo.dim(); ++i) {
    const Int extent = hi[i] - lo[i] + 1;
    blocks *= static_cast<std::size_t>(
        std::max<Int>(1, std::min<Int>(shape.partition_grid[i], extent)));
  }
  EXPECT_EQ(plan.clock_count, blocks) << what;
  std::map<IntVec, std::int32_t, IntVecLess> clock_of_block;
  std::map<std::int32_t, IntVec> block_of_clock;
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    const std::int32_t clock = plan.procs[i].clock;
    const IntVec block = block_of(proc_place(plan, i));
    EXPECT_EQ(clock_of_block.emplace(block, clock).first->second, clock)
        << what << " " << proc_name(plan, i);
    EXPECT_EQ(block_of_clock.emplace(clock, block).first->second, block)
        << what << " " << proc_name(plan, i);
  }
  EXPECT_EQ(clock_of_block.size(), blocks) << what;
}

class CrossSizeDifferential : public ::testing::TestWithParam<std::string> {};

// One template, many sizes: every expansion must match the oracle.
TEST_P(CrossSizeDifferential, ExpandMatchesOracleAcrossSizes) {
  Design design = shipped_design(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  const PlanShape shape;
  auto tmpl = compile_template(prog, design.nest, shape);
  for (Int n : {2, 3, 4, 5, 7, 9}) {
    Env sizes = sizes_for(design, n);
    auto plan = expand_template(*tmpl, sizes);
    expect_plan_matches_oracle(*plan, design, sizes, shape,
                               GetParam() + " n=" + std::to_string(n));
  }
}

// Non-default shapes flow through the template too: extra channel slack,
// merged internal buffers, and partition grids (shared clock ids).
TEST_P(CrossSizeDifferential, ExpandMatchesOracleAcrossShapes) {
  Design design = shipped_design(GetParam());
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
      auto plan = expand_template(*tmpl, sizes);
      expect_plan_matches_oracle(*plan, design, sizes, shape,
                                 GetParam() + " shaped n=" +
                                     std::to_string(n));
    }
  }
}

// Executing an expanded plan (served via the cache's template path) must
// match the sequential ground truth on the interpreter, with and without
// its watchdog hooks, and on the VM alike.
TEST_P(CrossSizeDifferential, ExpandedPlanRunsMatchSequential) {
  Design design = shipped_design(GetParam());
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
  Design design = shipped_design(GetParam());
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
                         ::testing::ValuesIn(catalog_names()),
                         [](const auto& info) { return info.param; });
INSTANTIATE_TEST_SUITE_P(Guarded, CrossSizeDifferential,
                         ::testing::ValuesIn(kGuarded),
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

// A form that is not an integer at some point names what it computes, the
// point and sizes, and the form itself. The design is the shrunk
// reproducer of default-seed fuzz sample #28, whose flow has denominator 2.
TEST(PlanTemplate, NonIntegerFormNamesQuantityPointAndForm) {
  Design design = frontend::parse_design(R"(design fuzz_28
sizes n >= 1
loop i = 0 .. n
loop j = 0 .. n
loop k = 0 .. n
stream u[i, -j] update dims [0 .. n, -n .. 0]
stream a[-i - j - 2*k, i - 2*j - k] read dims [-4*n .. 0, -3*n .. n]
body u := u + a
step i + j + k
place (i, k)
)");
  CompiledProgram prog = compile(design.nest, design.spec);
  auto tmpl = compile_template(prog, design.nest, PlanShape{});
  const std::pair<Int, std::string> cases[] = {
      {1, "plan template: count_s of stream 'a' at col=0, row=0, n=1: "
          "(3*col + 3*n + 3*row + 2)/2 evaluates to the non-integer 5/2"},
      {2, "plan template: first_s component 0 of stream 'a' at col=0, "
          "row=1, n=2: (-3*col + n - 3*row)/2 evaluates to the non-integer "
          "-1/2"},
  };
  for (const auto& [n, message] : cases) {
    try {
      (void)expand_template(*tmpl, Env{{"n", Rational(n)}});
      ADD_FAILURE() << "expected Error(NotRepresentable) at n=" << n;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::NotRepresentable);
      EXPECT_EQ(std::string(e.what()), message);
    }
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

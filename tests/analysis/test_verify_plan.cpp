// Plan-level rules on hand-built NetworkPlans: channel discipline
// violations, static deadlock detection, and schema identity of the
// static wait-for report with the runtime forensics (PR-1's
// DeadlockReport renderer is reused verbatim).
#include <gtest/gtest.h>

#include <set>

#include "analysis/verify.hpp"
#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "runtime/instantiate.hpp"
#include "runtime/metrics.hpp"
#include "scheme/compiler.hpp"

namespace systolize {
namespace {

/// Channel `link` of pipe `pipe` of stream "s": named "s[pipe].link".
NetworkPlan::ChannelSpec chan(std::uint32_t pipe, std::uint32_t link,
                              std::int32_t sender, std::int32_t receiver,
                              Int capacity = 0) {
  NetworkPlan::ChannelSpec c;
  c.stream = 0;
  c.pipe = pipe;
  c.link = link;
  c.capacity = capacity;
  c.sender = sender;
  c.receiver = receiver;
  return c;
}

/// A process at point `point` of a one-dimensional box from 0: a pass
/// process there is the external buffer "xbuf:s:(point)".
NetworkPlan::ProcSpec proc(NetworkPlan::ProcKind kind, std::uint32_t point) {
  NetworkPlan::ProcSpec p;
  p.kind = kind;
  p.point = point;
  return p;
}

NetworkPlan::ProcSpec pass(std::uint32_t point, std::int32_t in,
                           std::int32_t out, Int count) {
  NetworkPlan::ProcSpec p = proc(NetworkPlan::ProcKind::Pass, point);
  p.chan_in = in;
  p.chan_out = out;
  p.count = count;
  return p;
}

/// A plan of stream "s" over the box [0, last].
NetworkPlan line_plan(Int last) {
  NetworkPlan plan;
  plan.streams = {"s"};
  plan.ps_min = IntVec{0};
  plan.ps_max = IntVec{last};
  return plan;
}

/// Two pass processes in a ring, both receiving first: the canonical
/// static deadlock.
NetworkPlan ring_plan() {
  NetworkPlan plan = line_plan(1);
  plan.channels.push_back(chan(0, 0, 0, 1));
  plan.channels.push_back(chan(1, 0, 1, 0));
  plan.procs.push_back(pass(0, 1, 0, 1));
  plan.procs.push_back(pass(1, 0, 1, 1));
  return plan;
}

const Finding* find_rule(const VerifyReport& rep, const std::string& rule) {
  for (const Finding& f : rep.findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

TEST(VerifyPlan, CommunicationRingIsAStaticDeadlock) {
  VerifyReport rep = verify_plan(ring_plan());
  const Finding* f = find_rule(rep, "deadlock.cycle");
  ASSERT_NE(f, nullptr) << rep.to_string();
  EXPECT_EQ(f->severity, Severity::Error);
  // The detail payload is a DeadlockReport::to_json() — the runtime
  // forensics schema, cycle and carrying channels included.
  EXPECT_NE(f->detail.find("\"reason\":\"deadlock\""), std::string::npos);
  EXPECT_NE(f->detail.find("xbuf:s:(0)"), std::string::npos);
  EXPECT_NE(f->detail.find("xbuf:s:(1)"), std::string::npos);
  EXPECT_NE(f->detail.find("\"cycle\":["), std::string::npos);
  EXPECT_NE(f->detail.find("s[0].0"), std::string::npos);
  EXPECT_NE(f->detail.find("\"op\":\"recv\""), std::string::npos);
}

/// Every JSON object key of `json`, first-occurrence order, deduplicated.
std::vector<std::string> json_keys(const std::string& json) {
  std::vector<std::string> keys;
  std::set<std::string> seen;
  for (std::size_t i = 0; i + 1 < json.size(); ++i) {
    if (json[i] != '"') continue;
    std::size_t end = json.find('"', i + 1);
    if (end == std::string::npos || end + 1 >= json.size()) break;
    if (json[end + 1] == ':') {
      std::string key = json.substr(i + 1, end - i - 1);
      if (seen.insert(key).second) keys.push_back(key);
    }
    i = end;
  }
  return keys;
}

TEST(VerifyPlan, StaticCycleRendersTheRuntimeForensicsSchema) {
  VerifyReport rep = verify_plan(ring_plan());
  const Finding* f = find_rule(rep, "deadlock.cycle");
  ASSERT_NE(f, nullptr);
  // Render a runtime-style report through the PR-1 forensics renderer and
  // compare the key sets: the static detail must be schema-identical.
  DeadlockReport sample;
  sample.reason = "deadlock";
  sample.blocked.push_back(BlockedOpState{"p", "c", "recv", 0, 0});
  sample.cycle = {"p"};
  sample.cycle_channels = {"c"};
  EXPECT_EQ(json_keys(f->detail), json_keys(sample.to_json()));
}

TEST(VerifyPlan, BufferedRingStillDeadlocksWhenCapacityRunsOut) {
  NetworkPlan plan = ring_plan();
  // One slot of slack would let a send complete alone, but both
  // processes receive first — nobody ever produces the first value.
  plan.channels[0].capacity = 1;
  plan.channels[1].capacity = 1;
  plan.procs[0].count = 2;
  plan.procs[1].count = 2;
  VerifyReport rep = verify_plan(plan);
  EXPECT_NE(find_rule(rep, "deadlock.cycle"), nullptr) << rep.to_string();
}

TEST(VerifyPlan, InputPassOutputChainIsClean) {
  // A well-formed 3-process chain with buffered channels: every check
  // passes, including the abstract deadlock execution.
  NetworkPlan plan = line_plan(2);
  plan.channels.push_back(chan(0, 0, 0, 1, 1));
  plan.channels.push_back(chan(0, 1, 1, 0, 1));
  NetworkPlan::ProcSpec p0 = proc(NetworkPlan::ProcKind::Input, 0);
  p0.chan_out = 0;
  p0.count = 1;
  NetworkPlan::ProcSpec p1 = pass(1, 0, 1, 1);
  NetworkPlan::ProcSpec p2 = proc(NetworkPlan::ProcKind::Output, 2);
  p2.chan_in = 1;
  p2.count = 1;
  plan.procs = {p0, p1, p2};
  // Fix the recorded endpoints for the 3-process chain.
  plan.channels[1].sender = 1;
  plan.channels[1].receiver = 2;
  VerifyReport rep = verify_plan(plan);
  EXPECT_EQ(rep.findings.size(), 0u) << rep.to_string();
}

TEST(VerifyPlan, TwoWritersOnOneChannel) {
  NetworkPlan plan = ring_plan();
  plan.procs[1].chan_out = 0;  // both processes now send on channel 0
  VerifyReport rep = verify_plan(plan);
  EXPECT_NE(find_rule(rep, "channel.multi-writer"), nullptr)
      << rep.to_string();
  // Channel 1 lost its only writer.
  EXPECT_NE(find_rule(rep, "channel.dangling"), nullptr) << rep.to_string();
}

TEST(VerifyPlan, SendRecvCountImbalance) {
  NetworkPlan plan = line_plan(1);
  plan.channels.push_back(chan(0, 0, 0, 1));
  NetworkPlan::ProcSpec in = proc(NetworkPlan::ProcKind::Input, 0);
  in.chan_out = 0;
  in.count = 2;
  NetworkPlan::ProcSpec out = proc(NetworkPlan::ProcKind::Output, 1);
  out.chan_in = 0;
  out.count = 1;
  plan.procs = {in, out};
  VerifyReport rep = verify_plan(plan);
  const Finding* f = find_rule(rep, "channel.count-mismatch");
  ASSERT_NE(f, nullptr) << rep.to_string();
  EXPECT_NE(f->message.find("2 send(s)"), std::string::npos) << f->message;
}

TEST(VerifyPlan, RecordedEndpointMismatch) {
  NetworkPlan plan = ring_plan();
  plan.channels[0].sender = 1;  // actually written by process 0
  VerifyReport rep = verify_plan(plan);
  EXPECT_NE(find_rule(rep, "channel.endpoint-mismatch"), nullptr)
      << rep.to_string();
}

TEST(VerifyPlan, BadChannelReference) {
  NetworkPlan plan = ring_plan();
  plan.procs[0].chan_out = 99;
  VerifyReport rep = verify_plan(plan);
  EXPECT_NE(find_rule(rep, "channel.bad-ref"), nullptr) << rep.to_string();
}

/// A computation process whose two moving roles both receive on `s[0].0`
/// and both send on `s[0].1`, in a ring with a pass process: one par set
/// names each channel twice, so both of its receives park on one channel
/// side, in par-entry order.
NetworkPlan twice_named_ring() {
  NetworkPlan plan = line_plan(1);
  plan.channels.push_back(chan(0, 0, 1, 0));
  plan.channels.push_back(chan(0, 1, 0, 1));
  NetworkPlan::ProcSpec comp = proc(NetworkPlan::ProcKind::Comp, 0);
  comp.count = 1;
  comp.role_begin = 0;
  comp.role_end = 2;
  for (int i = 0; i < 2; ++i) {
    NetworkPlan::RoleSpec role;
    role.chan_in = 0;
    role.chan_out = 1;
    plan.roles.push_back(role);
  }
  plan.procs = {comp, pass(1, 1, 0, 2)};
  return plan;
}

TEST(VerifyPlan, ParSetNamingOneChannelTwice) {
  NetworkPlan plan = twice_named_ring();
  // Recorded before the verifier retired the lowered bytecode.
  EXPECT_EQ(verify_plan(plan).to_string(),
            "verify : 1 finding(s) \u2014 1 error(s), 0 warning(s), 0 info(s)\n"
            "  [error] deadlock.cycle (network): the communication structure "
            "cannot complete: 2 process(es) block forever\n"
            "    deadlock: 3 blocked op(s); blocking cycle: comp:(0) "
            "-[s[0].0]-> xbuf:s:(1) -[s[0].1]-> comp:(0)\n"
            "      comp:(0): recv s[0].0 (t=0, stmts=0)\n"
            "      comp:(0): recv s[0].0 (t=0, stmts=0)\n"
            "      xbuf:s:(1): recv s[0].1 (t=0, stmts=0)");

  // Fed by an input instead of the ring, the same par set completes.
  plan.channels[0].sender = 2;
  plan.procs[1] = pass(1, 1, 2, 2);
  plan.channels.push_back(chan(0, 2, 1, 3));
  NetworkPlan::ProcSpec in = proc(NetworkPlan::ProcKind::Input, 0);
  in.chan_out = 0;
  in.count = 2;
  NetworkPlan::ProcSpec out = proc(NetworkPlan::ProcKind::Output, 1);
  out.chan_in = 2;
  out.count = 2;
  plan.procs.push_back(in);
  plan.procs.push_back(out);
  EXPECT_EQ(verify_plan(plan).to_string(), "verify : clean");
}

TEST(VerifyPlan, InstantiateGateRejectsACorruptedProgram) {
  Design d = design_by_name("polyprod1");
  CompiledProgram prog = compile(d.nest, d.spec);
  prog.repeater.count.add(Guard::always(), AffineExpr(123456));
  Env sizes{{"n", Rational(4)}};
  IndexedStore store = make_initial_store(
      d.nest, sizes, [](const std::string&, const IntVec&) { return 1; });
  InstantiateOptions opt;
  opt.verify_plan = true;
  try {
    (void)execute(prog, d.nest, sizes, store, opt);
    FAIL() << "expected the verification gate to reject the program";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Validation);
    EXPECT_NE(std::string(e.what()).find("guard.overlap"),
              std::string::npos)
        << e.what();
    EXPECT_NE(e.diagnostic().find("\"rule\":\"guard.overlap\""),
              std::string::npos)
        << e.diagnostic();
  }
}

}  // namespace
}  // namespace systolize

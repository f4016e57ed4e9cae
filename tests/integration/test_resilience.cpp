// Differential resilience harness: instantiated networks under injected
// faults. Survivable faults (stalls, delays) perturb only the scheduling
// order — logical clocks are driven by the dataflow — so the run must
// still match the sequential ground truth AND the fault-free makespan.
// Fatal faults (kills, starving delays) must surface as a structured
// Error(Runtime) with forensics: never a hang, never a silent wrong
// answer. Every plan is seeded, so failures replay bit-identically.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "runtime/faults.hpp"
#include "runtime/instantiate.hpp"
#include "runtime/scheduler.hpp"
#include "scheme/compiler.hpp"
#include "support/error.hpp"

#include "pseudo_random.hpp"

namespace systolize {
namespace {

using testutil::pseudo_random;

Env sizes_for(const Design& design) {
  for (const Symbol& s : design.nest.sizes()) {
    if (s.name() == "m") return Env{{"n", Rational(3)}, {"m", Rational(2)}};
  }
  return Env{{"n", Rational(3)}};
}

struct RunResult {
  IndexedStore store;
  RunMetrics metrics;
};

RunResult run_with(const Design& design, const CompiledProgram& prog,
                   const FaultPlan* plan,
                   const WatchdogConfig& watchdog = {}) {
  Env sizes = sizes_for(design);
  IndexedStore store = make_initial_store(
      design.nest, sizes,
      [](const auto& v, const auto& p) { return pseudo_random(v, p); });
  InstantiateOptions opt;
  opt.faults = plan;
  opt.watchdog = watchdog;
  RunMetrics metrics = execute(prog, design.nest, sizes, store, opt);
  return {std::move(store), metrics};
}

class Resilience : public ::testing::TestWithParam<std::string> {};

TEST_P(Resilience, StallDelaySweepPreservesResultsAndMakespan) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design);

  IndexedStore expected = make_initial_store(
      design.nest, sizes,
      [](const auto& v, const auto& p) { return pseudo_random(v, p); });
  run_sequential(design.nest, sizes, expected);

  RunResult clean = run_with(design, prog, nullptr);
  EXPECT_EQ(clean.metrics.faults_injected, 0);

  Int fired_total = 0;
  for (int seed = 1; seed <= 5; ++seed) {
    FaultPlan plan = FaultPlan::parse(
        "seed=" + std::to_string(seed) + ";stall=0.3:4;delay=0.25:3");
    RunResult faulty = run_with(design, prog, &plan);
    fired_total += faulty.metrics.faults_injected;
    for (const Stream& s : design.nest.streams()) {
      EXPECT_EQ(faulty.store.elements(s.name()), expected.elements(s.name()))
          << GetParam() << " stream " << s.name() << " seed " << seed;
    }
    // Stalls and delays reshuffle the interleaving only; the logical
    // makespan and statement count are invariants of the dataflow.
    EXPECT_EQ(faulty.metrics.makespan, clean.metrics.makespan)
        << GetParam() << " seed " << seed;
    EXPECT_EQ(faulty.metrics.statements, clean.metrics.statements)
        << GetParam() << " seed " << seed;
    EXPECT_GE(faulty.metrics.scheduler_rounds, clean.metrics.scheduler_rounds)
        << GetParam() << " seed " << seed;
  }
  // The sweep must actually have exercised the fault paths.
  EXPECT_GT(fired_total, 0) << GetParam();
}

TEST_P(Resilience, SeededPlanReplaysBitIdentically) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  FaultPlan plan = FaultPlan::parse("seed=42;stall=0.4:5;delay=0.3:4");

  RunResult first = run_with(design, prog, &plan);
  RunResult second = run_with(design, prog, &plan);

  EXPECT_EQ(first.metrics.faults_injected, second.metrics.faults_injected);
  EXPECT_EQ(first.metrics.scheduler_rounds, second.metrics.scheduler_rounds);
  EXPECT_EQ(first.metrics.makespan, second.metrics.makespan);
  EXPECT_EQ(first.metrics.total_transfers, second.metrics.total_transfers);
  for (const Stream& s : design.nest.streams()) {
    EXPECT_EQ(first.store.elements(s.name()), second.store.elements(s.name()))
        << GetParam() << " stream " << s.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, Resilience,
                         ::testing::Values("matmul2", "convolution"));

TEST(ResilienceFatal, KillYieldsStructuredForensicsNotAHang) {
  Design design = polyprod_design1();
  CompiledProgram prog = compile(design.nest, design.spec);
  FaultPlan plan = FaultPlan::parse("kill@comp:(1)=2");
  try {
    (void)run_with(design, prog, &plan);
    FAIL() << "expected a structured runtime error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Runtime);
    std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("blocked"), std::string::npos) << what;
    EXPECT_NE(e.diagnostic().find("\"reason\":\"deadlock\""),
              std::string::npos)
        << e.diagnostic();
  }
}

TEST(ResilienceFatal, FatalPlanReplaysIdenticalDiagnostics) {
  Design design = polyprod_design1();
  CompiledProgram prog = compile(design.nest, design.spec);
  FaultPlan plan = FaultPlan::parse("kill@comp:(1)=2");

  auto capture = [&]() -> std::pair<std::string, std::string> {
    try {
      (void)run_with(design, prog, &plan);
    } catch (const Error& e) {
      return {e.what(), e.diagnostic()};
    }
    ADD_FAILURE() << "expected a structured runtime error";
    return {};
  };
  auto first = capture();
  auto second = capture();
  EXPECT_FALSE(first.first.empty());
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(ResilienceFatal, StarvingDelayTripsTheWatchdogStructurally) {
  // An effectively-infinite transfer delay starves the whole pipeline; the
  // blocked-rounds watchdog must convert it into a structured error rather
  // than letting the run sleep to the delay's release round.
  Design design = polyprod_design1();
  CompiledProgram prog = compile(design.nest, design.spec);
  FaultPlan plan = FaultPlan::parse("delay@a[0].2=0:1000000");
  WatchdogConfig watchdog;
  watchdog.max_blocked_rounds = 50;
  try {
    (void)run_with(design, prog, &plan, watchdog);
    FAIL() << "expected the watchdog to trip";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Timeout);
    std::string what = e.what();
    EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
    EXPECT_NE(e.diagnostic().find("\"reason\""), std::string::npos);
  }
}

// --- a genuine rendezvous cycle, checked end to end through the report ---

Task ring_body(Ctx ctx, Channel* in, Channel* out) {
  Value v = 0;
  co_await ctx.recv(*in, v);
  co_await ctx.send(*out, v + 1);
}

TEST(ResilienceForensics, RingDeadlockNamesEveryProcessAndChannel) {
  // Four processes in a ring, each receiving before it sends: the classic
  // cyclic rendezvous deadlock. With declared endpoints the forensics
  // must recover the full blocking cycle — all four processes and the
  // four channels linking them.
  Scheduler sched;
  constexpr int kRing = 4;
  std::vector<Channel*> chans;
  for (int i = 0; i < kRing; ++i) {
    chans.push_back(&sched.make_channel("ring" + std::to_string(i)));
  }
  for (int i = 0; i < kRing; ++i) {
    Channel* in = chans[i];
    Channel* out = chans[(i + 1) % kRing];
    Process& p = sched.spawn("node" + std::to_string(i), [in, out](Ctx ctx) {
      return ring_body(ctx, in, out);
    });
    in->declare_receiver(p);
    out->declare_sender(p);
  }
  try {
    sched.run();
    FAIL() << "expected deadlock";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Runtime);
    std::string what = e.what();
    std::string diag = e.diagnostic();
    EXPECT_NE(what.find("blocking cycle"), std::string::npos) << what;
    for (int i = 0; i < kRing; ++i) {
      EXPECT_NE(what.find("node" + std::to_string(i)), std::string::npos)
          << what;
      EXPECT_NE(diag.find("\"ring" + std::to_string(i) + "\""),
                std::string::npos)
          << diag;
    }
  }
}

}  // namespace
}  // namespace systolize

// Differential suite for the execution paths: the interpreter with
// nothing attached (its fault and watchdog hooks skipped), the same loop
// with a never-firing watchdog (hooks live), and Backend::Auto's dispatch,
// which sends every run the VM can take to the bytecode VM and the rest to
// the interpreter. All must produce bit-identical results, makespans,
// transfer counts, statements and scheduler rounds.
#include <gtest/gtest.h>

#include <atomic>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"
#include "service/executor.hpp"

#include "pseudo_random.hpp"

namespace systolize {
namespace {

using testutil::pseudo_random;

Env sizes_for(const Design& design, Int n, Int m) {
  Env env{{"n", Rational(n)}};
  for (const Symbol& s : design.nest.sizes()) {
    if (!env.contains(s.name())) env[s.name()] = Rational(m);
  }
  return env;
}

IndexedStore seeded(const Design& design, const Env& sizes) {
  return make_initial_store(design.nest, sizes,
                            [](const auto& v, const auto& p) {
                              return pseudo_random(v, p);
                            });
}

/// The interpreter, forced: Auto would pick the VM for clean runs.
InstantiateOptions interp(InstantiateOptions opt = {}) {
  opt.backend = Backend::Interp;
  return opt;
}

/// The interpreter with an attached (but never-firing) watchdog: every
/// hook of the resume loop is live without changing observable behaviour.
InstantiateOptions instrumented(InstantiateOptions opt = {}) {
  opt.watchdog.max_rounds = Int{1} << 40;
  return interp(opt);
}

void expect_same_stores(const Design& design, const IndexedStore& a,
                        const IndexedStore& b, const std::string& what) {
  for (const Stream& s : design.nest.streams()) {
    EXPECT_EQ(a.elements(s.name()), b.elements(s.name()))
        << what << " stream " << s.name();
  }
}

class FastPathDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(FastPathDifferential, FastAndInstrumentedAgreeExactly) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  for (Int n : {2, 4}) {
    Env sizes = sizes_for(design, n, std::max<Int>(1, n - 1));
    IndexedStore fast_store = seeded(design, sizes);
    IndexedStore inst_store = fast_store;
    RunMetrics fast = execute(prog, design.nest, sizes, fast_store, interp());
    RunMetrics inst =
        execute(prog, design.nest, sizes, inst_store, instrumented());
    expect_same_stores(design, fast_store, inst_store, GetParam());
    EXPECT_EQ(fast.makespan, inst.makespan) << GetParam();
    EXPECT_EQ(fast.total_transfers, inst.total_transfers) << GetParam();
    EXPECT_EQ(fast.statements, inst.statements) << GetParam();
    EXPECT_EQ(fast.transfers_per_stream, inst.transfers_per_stream)
        << GetParam();
    // Clean runs must report the same number of cooperative rounds with
    // or without the hooks — there is one loop and one batch boundary.
    EXPECT_EQ(fast.scheduler_rounds, inst.scheduler_rounds) << GetParam();
  }
}

TEST_P(FastPathDifferential, FastAndInstrumentedAgreeOnVariants) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 3, 2);
  for (int variant = 0; variant < 2; ++variant) {
    InstantiateOptions opt;
    if (variant == 0) {
      opt.channel_capacity = 2;
    } else {
      opt.merge_internal_buffers = true;
    }
    IndexedStore fast_store = seeded(design, sizes);
    IndexedStore inst_store = fast_store;
    RunMetrics fast = execute(prog, design.nest, sizes, fast_store, opt);
    RunMetrics inst =
        execute(prog, design.nest, sizes, inst_store, instrumented(opt));
    expect_same_stores(design, fast_store, inst_store, GetParam());
    EXPECT_EQ(fast.makespan, inst.makespan) << GetParam() << " v" << variant;
    EXPECT_EQ(fast.total_transfers, inst.total_transfers)
        << GetParam() << " v" << variant;
    EXPECT_EQ(fast.scheduler_rounds, inst.scheduler_rounds)
        << GetParam() << " v" << variant;
  }
}

TEST_P(FastPathDifferential, AutoRunsTheVmUnlessAnOptionBlocksIt) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 4, 3);
  IndexedStore expected = seeded(design, sizes);
  IndexedStore ref_store = expected;
  run_sequential(design.nest, sizes, expected);
  const RunMetrics ref =
      execute(prog, design.nest, sizes, ref_store, interp());
  EXPECT_EQ(ref.backend, "interp");
  EXPECT_EQ(ref.fallback_reason, "");  // forced, not a fallback

  // Bare, and under the daemon's round budget and cancel token: the VM.
  const std::atomic<bool> cancel{false};
  InstantiateOptions daemon;
  daemon.watchdog.max_rounds = service::ExecutorConfig{}.default_round_budget;
  daemon.watchdog.cancel = &cancel;
  for (const InstantiateOptions& opt : {InstantiateOptions{}, daemon}) {
    const std::string what =
        GetParam() + (opt.watchdog.cancel != nullptr ? " daemon" : " bare");
    IndexedStore store = seeded(design, sizes);
    const RunMetrics got = execute(prog, design.nest, sizes, store, opt);
    EXPECT_EQ(got.backend, "bytecode") << what;
    EXPECT_EQ(got.fallback_reason, "") << what;
    expect_same_stores(design, ref_store, store, what);
    EXPECT_EQ(ref.makespan, got.makespan) << what;
    EXPECT_EQ(ref.total_transfers, got.total_transfers) << what;
    EXPECT_EQ(ref.transfers_per_stream, got.transfers_per_stream) << what;
    EXPECT_EQ(ref.statements, got.statements) << what;
    EXPECT_EQ(ref.scheduler_rounds, got.scheduler_rounds) << what;
  }

  // Every option the VM cannot honour sends Auto to the interpreter and
  // is named as the reason; results still match the baseline.
  Trace trace;
  FaultPlan stall = FaultPlan::parse("seed=7;stall=0.3:5");
  std::vector<std::pair<std::string, InstantiateOptions>> blocked(6);
  blocked[0].first = "capacity";
  blocked[0].second.channel_capacity = 1;
  blocked[1].first = "merged";
  blocked[1].second.merge_internal_buffers = true;
  blocked[2].first = "partition";
  blocked[2].second.partition_grid =
      IntVec(std::vector<Int>(design.nest.depth() - 1, 2));
  blocked[3].first = "trace";
  blocked[3].second.trace = &trace;
  blocked[4].first = "stall";
  blocked[4].second.faults = &stall;
  blocked[5].first = "starvation";
  blocked[5].second.watchdog.max_blocked_rounds = Int{1} << 40;
  for (const auto& [name, opt] : blocked) {
    const std::string what = GetParam() + " " + name;
    IndexedStore store = seeded(design, sizes);
    const RunMetrics got = execute(prog, design.nest, sizes, store, opt);
    EXPECT_EQ(got.backend, "interp") << what;
    EXPECT_NE(got.fallback_reason, "") << what;
    EXPECT_NE(got.to_string().find(got.fallback_reason), std::string::npos)
        << what;
    EXPECT_NE(got.to_json().find("\"fallback_reason\":\"" +
                                 got.fallback_reason + '"'),
              std::string::npos)
        << what;
    expect_same_stores(design, expected, store, what);
  }
}

TEST_P(FastPathDifferential, CachedPlanReproducesFreshPlanExactly) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 4, 2);
  PlanCache cache;
  InstantiateOptions opt;
  opt.plan_cache = &cache;
  IndexedStore first_store = seeded(design, sizes);
  IndexedStore second_store = first_store;
  IndexedStore fresh_store = first_store;
  RunMetrics first = execute(prog, design.nest, sizes, first_store, opt);
  RunMetrics second = execute(prog, design.nest, sizes, second_store, opt);
  RunMetrics fresh = execute(prog, design.nest, sizes, fresh_store, {});
  EXPECT_FALSE(first.plan_reused);
  EXPECT_TRUE(second.plan_reused);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  expect_same_stores(design, first_store, second_store, "cached-repeat");
  expect_same_stores(design, first_store, fresh_store, "cached-vs-fresh");
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.makespan, fresh.makespan);
  EXPECT_EQ(first.total_transfers, second.total_transfers);
  EXPECT_EQ(first.transfers_per_stream, fresh.transfers_per_stream);
}

TEST_P(FastPathDifferential, AllPathsMatchSequentialGroundTruth) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 4, 3);
  IndexedStore expected = seeded(design, sizes);
  IndexedStore fast_store = expected;
  IndexedStore inst_store = expected;
  IndexedStore vm_store = expected;
  run_sequential(design.nest, sizes, expected);
  (void)execute(prog, design.nest, sizes, fast_store, interp());
  (void)execute(prog, design.nest, sizes, inst_store, instrumented());
  (void)execute(prog, design.nest, sizes, vm_store, {});
  expect_same_stores(design, fast_store, expected, "fast-vs-seq");
  expect_same_stores(design, inst_store, expected, "inst-vs-seq");
  expect_same_stores(design, vm_store, expected, "vm-vs-seq");
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, FastPathDifferential,
                         ::testing::Values("polyprod1", "polyprod2",
                                           "polyprod3", "matmul1", "matmul2",
                                           "matmul3", "matmul4",
                                           "convolution", "correlation",
                                           "fir_bank", "closure"));

}  // namespace
}  // namespace systolize

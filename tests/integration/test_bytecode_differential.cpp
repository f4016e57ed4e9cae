// Differential suite for the bytecode backend (runtime/bytecode +
// runtime/vm): on every catalog design the lowered VM must be
// bit-identical to the interpreter — results, makespan,
// transfer counts, statement counts AND scheduler rounds — because both
// engines implement the same dataflow-clock semantics over the same
// round structure. SoA batching must additionally reproduce, per lane,
// exactly what a per-instance sequential run produces.
#include <gtest/gtest.h>

#include <atomic>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"

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

/// Instance `lane` of a batch: deterministically different values per
/// lane so cross-lane mixups cannot cancel out.
IndexedStore seeded_lane(const Design& design, const Env& sizes, Int lane) {
  return make_initial_store(design.nest, sizes,
                            [lane](const auto& v, const auto& p) {
                              return pseudo_random(v, p) + 13 * lane;
                            });
}

IndexedStore seeded(const Design& design, const Env& sizes) {
  return seeded_lane(design, sizes, 0);
}

void expect_same_stores(const Design& design, const IndexedStore& a,
                        const IndexedStore& b, const std::string& what) {
  for (const Stream& s : design.nest.streams()) {
    EXPECT_EQ(a.elements(s.name()), b.elements(s.name()))
        << what << " stream " << s.name();
  }
}

InstantiateOptions bytecode_opt(InstantiateOptions opt = {}) {
  opt.backend = Backend::Bytecode;
  return opt;
}

/// The reference engine, forced (Auto would pick the VM).
InstantiateOptions interp_opt() {
  InstantiateOptions opt;
  opt.backend = Backend::Interp;
  return opt;
}

class BytecodeDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(BytecodeDifferential, BytecodeMatchesInterpBitForBit) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  for (Int n : {2, 4}) {
    Env sizes = sizes_for(design, n, std::max<Int>(1, n - 1));
    IndexedStore interp_store = seeded(design, sizes);
    IndexedStore vm_store = interp_store;
    RunMetrics interp =
        execute(prog, design.nest, sizes, interp_store, interp_opt());
    RunMetrics vm =
        execute(prog, design.nest, sizes, vm_store, bytecode_opt());
    expect_same_stores(design, interp_store, vm_store, GetParam());
    EXPECT_EQ(interp.makespan, vm.makespan) << GetParam() << " n=" << n;
    EXPECT_EQ(interp.total_transfers, vm.total_transfers)
        << GetParam() << " n=" << n;
    EXPECT_EQ(interp.statements, vm.statements) << GetParam() << " n=" << n;
    EXPECT_EQ(interp.transfers_per_stream, vm.transfers_per_stream)
        << GetParam() << " n=" << n;
    // The VM replicates the interpreter's double-buffered round
    // structure, so even the round count must agree exactly.
    EXPECT_EQ(interp.scheduler_rounds, vm.scheduler_rounds)
        << GetParam() << " n=" << n;
    EXPECT_EQ(vm.backend, "bytecode");
    EXPECT_GT(vm.bytecode_instructions, 0u);
  }
}

TEST_P(BytecodeDifferential, BatchedLanesMatchPerInstanceRuns) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 4, 3);
  constexpr std::size_t kBatch = 5;
  std::vector<IndexedStore> lanes;
  std::vector<IndexedStore> expected;
  for (std::size_t l = 0; l < kBatch; ++l) {
    lanes.push_back(seeded_lane(design, sizes, static_cast<Int>(l)));
    expected.push_back(lanes.back());
  }
  // Auto + batch > 1 + eligible options must pick the VM.
  RunMetrics batched = execute_batch(prog, design.nest, sizes, lanes.data(),
                                     kBatch, {});
  EXPECT_EQ(batched.backend, "bytecode") << GetParam();
  EXPECT_EQ(batched.batch, kBatch);
  RunMetrics single;
  for (std::size_t l = 0; l < kBatch; ++l) {
    // Ground truth per lane: the paper-order sequential loop nest, plus
    // the interpreted engine for the schedule metrics.
    IndexedStore interp_store = expected[l];
    single = execute(prog, design.nest, sizes, interp_store, interp_opt());
    run_sequential(design.nest, sizes, expected[l]);
    expect_same_stores(design, lanes[l], expected[l],
                       GetParam() + " lane " + std::to_string(l));
    expect_same_stores(design, lanes[l], interp_store,
                       GetParam() + " lane(interp) " + std::to_string(l));
  }
  // The schedule is shared across lanes and identical to single-instance.
  EXPECT_EQ(batched.makespan, single.makespan) << GetParam();
  EXPECT_EQ(batched.total_transfers, single.total_transfers) << GetParam();
  EXPECT_EQ(batched.statements, single.statements) << GetParam();
  EXPECT_EQ(batched.scheduler_rounds, single.scheduler_rounds) << GetParam();
  EXPECT_EQ(batched.transfers_per_stream, single.transfers_per_stream)
      << GetParam();
}

TEST_P(BytecodeDifferential, ThreadedBatchMatchesSequentialBatch) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 3, 2);
  constexpr std::size_t kBatch = 6;
  std::vector<IndexedStore> seq_lanes;
  std::vector<IndexedStore> par_lanes;
  for (std::size_t l = 0; l < kBatch; ++l) {
    seq_lanes.push_back(seeded_lane(design, sizes, static_cast<Int>(l)));
    par_lanes.push_back(seq_lanes.back());
  }
  RunMetrics seq = execute_batch(prog, design.nest, sizes, seq_lanes.data(),
                                 kBatch, bytecode_opt());
  InstantiateOptions par = bytecode_opt();
  par.threads = 3;
  RunMetrics parm = execute_batch(prog, design.nest, sizes, par_lanes.data(),
                                  kBatch, par);
  for (std::size_t l = 0; l < kBatch; ++l) {
    expect_same_stores(design, seq_lanes[l], par_lanes[l],
                       GetParam() + " lane " + std::to_string(l));
  }
  EXPECT_EQ(seq.makespan, parm.makespan) << GetParam();
  EXPECT_EQ(seq.total_transfers, parm.total_transfers) << GetParam();
  EXPECT_EQ(seq.statements, parm.statements) << GetParam();
  EXPECT_EQ(seq.scheduler_rounds, parm.scheduler_rounds) << GetParam();
}

TEST_P(BytecodeDifferential, InterpBatchFallbackMatchesVmBatch) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 3, 2);
  constexpr std::size_t kBatch = 3;
  std::vector<IndexedStore> vm_lanes;
  std::vector<IndexedStore> interp_lanes;
  for (std::size_t l = 0; l < kBatch; ++l) {
    vm_lanes.push_back(seeded_lane(design, sizes, static_cast<Int>(l)));
    interp_lanes.push_back(vm_lanes.back());
  }
  RunMetrics vm = execute_batch(prog, design.nest, sizes, vm_lanes.data(),
                                kBatch, bytecode_opt());
  RunMetrics interp = execute_batch(prog, design.nest, sizes,
                                    interp_lanes.data(), kBatch, interp_opt());
  EXPECT_EQ(interp.backend, "interp") << GetParam();
  EXPECT_EQ(interp.batch, kBatch);
  for (std::size_t l = 0; l < kBatch; ++l) {
    expect_same_stores(design, vm_lanes[l], interp_lanes[l],
                       GetParam() + " lane " + std::to_string(l));
  }
  EXPECT_EQ(vm.makespan, interp.makespan) << GetParam();
  EXPECT_EQ(vm.total_transfers, interp.total_transfers) << GetParam();
  EXPECT_EQ(vm.statements, interp.statements) << GetParam();
  EXPECT_EQ(vm.scheduler_rounds, interp.scheduler_rounds) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, BytecodeDifferential,
                         ::testing::Values("polyprod1", "polyprod2",
                                           "polyprod3", "matmul1", "matmul2",
                                           "matmul3", "matmul4",
                                           "convolution", "correlation",
                                           "fir_bank", "closure"));

TEST(BytecodeValidation, RejectsIncompatibleOptions) {
  Design design = design_by_name("polyprod1");
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes{{"n", Rational(3)}};
  auto expect_rejected = [&](InstantiateOptions opt) {
    opt.backend = Backend::Bytecode;
    IndexedStore store = seeded(design, sizes);
    try {
      (void)execute(prog, design.nest, sizes, store, opt);
      FAIL() << "expected Error(Validation)";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Validation);
      EXPECT_NE(std::string(e.what()).find("bytecode backend"),
                std::string::npos);
    }
  };
  {
    InstantiateOptions opt;
    opt.channel_capacity = 2;
    expect_rejected(opt);
  }
  {
    InstantiateOptions opt;
    opt.merge_internal_buffers = true;
    expect_rejected(opt);
  }
  {
    InstantiateOptions opt;
    opt.partition_grid = IntVec(std::vector<Int>{2});
    expect_rejected(opt);
  }
  {
    InstantiateOptions opt;
    Trace trace;
    opt.trace = &trace;
    expect_rejected(opt);
  }
  {
    InstantiateOptions opt;
    FaultPlan faults = FaultPlan::parse("seed=1;stall=0.5:3");
    opt.faults = &faults;
    expect_rejected(opt);
  }
  {
    InstantiateOptions opt;
    opt.watchdog.max_blocked_rounds = 50;
    expect_rejected(opt);
  }
}

TEST(BytecodeValidation, BatchRejectsFaultsOnAnyBackend) {
  Design design = design_by_name("polyprod1");
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes{{"n", Rational(3)}};
  FaultPlan faults = FaultPlan::parse("seed=1;stall=0.5:3");
  std::vector<IndexedStore> lanes{seeded(design, sizes),
                                  seeded(design, sizes)};
  for (Backend b : {Backend::Auto, Backend::Interp, Backend::Bytecode}) {
    InstantiateOptions opt;
    opt.backend = b;
    opt.faults = &faults;
    EXPECT_THROW((void)execute_batch(prog, design.nest, sizes, lanes.data(),
                                     lanes.size(), opt),
                 Error);
  }
}

TEST(BytecodeValidation, RoundBudgetAndCancelAreEnforced) {
  Design design = design_by_name("matmul1");
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes{{"n", Rational(4)}};
  {
    // A generous budget must not perturb the run.
    IndexedStore store = seeded(design, sizes);
    InstantiateOptions opt = bytecode_opt();
    opt.watchdog.max_rounds = Int{1} << 40;
    EXPECT_NO_THROW((void)execute(prog, design.nest, sizes, store, opt));
  }
  {
    // A tiny budget trips the same watchdog classification as the
    // interpreter: Error(Timeout) mentioning the budget.
    IndexedStore store = seeded(design, sizes);
    InstantiateOptions opt = bytecode_opt();
    opt.watchdog.max_rounds = 2;
    try {
      (void)execute(prog, design.nest, sizes, store, opt);
      FAIL() << "expected Error(Timeout)";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Timeout);
      EXPECT_NE(std::string(e.what()).find("round budget"),
                std::string::npos);
    }
  }
  {
    std::atomic<bool> cancel{true};
    IndexedStore store = seeded(design, sizes);
    InstantiateOptions opt = bytecode_opt();
    opt.watchdog.cancel = &cancel;
    try {
      (void)execute(prog, design.nest, sizes, store, opt);
      FAIL() << "expected Error(Cancelled)";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Cancelled);
    }
  }
}

TEST(BytecodeCache, LoweredProgramIsCachedByPlanIdentity) {
  Design design = design_by_name("polyprod1");
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes{{"n", Rational(3)}};
  PlanCache cache;
  InstantiateOptions opt = bytecode_opt();
  opt.plan_cache = &cache;
  IndexedStore first_store = seeded(design, sizes);
  IndexedStore second_store = first_store;
  RunMetrics first = execute(prog, design.nest, sizes, first_store, opt);
  RunMetrics second = execute(prog, design.nest, sizes, second_store, opt);
  EXPECT_FALSE(first.bytecode_reused);
  EXPECT_TRUE(second.bytecode_reused);
  EXPECT_EQ(second.bytecode_lower_ns, 0);
  EXPECT_EQ(first.bytecode_instructions, second.bytecode_instructions);
  EXPECT_EQ(cache.bytecode_size(), 1u);
  EXPECT_EQ(cache.bytecode_misses(), 1u);
  EXPECT_EQ(cache.bytecode_hits(), 1u);
  EXPECT_GT(cache.bytecode_bytes(), 0u);
  expect_same_stores(design, first_store, second_store, "cached-bytecode");
}

TEST(BytecodeCache, ShrinkingTheBudgetEvictsLoweredPrograms) {
  Design design = design_by_name("polyprod1");
  CompiledProgram prog = compile(design.nest, design.spec);
  PlanCache cache;
  InstantiateOptions opt = bytecode_opt();
  opt.plan_cache = &cache;
  for (Int n : {2, 3, 4}) {
    Env sizes{{"n", Rational(n)}};
    IndexedStore store = seeded(design, sizes);
    (void)execute(prog, design.nest, sizes, store, opt);
  }
  EXPECT_EQ(cache.bytecode_size(), 3u);
  cache.set_byte_budget(1);
  EXPECT_EQ(cache.bytecode_size(), 1u);
  EXPECT_EQ(cache.bytecode_evictions(), 2u);
  // Evicted programs must be re-lowered, not mis-served.
  Env sizes{{"n", Rational(2)}};
  IndexedStore store = seeded(design, sizes);
  IndexedStore fresh = store;
  RunMetrics relowered = execute(prog, design.nest, sizes, store, opt);
  InstantiateOptions no_cache = bytecode_opt();
  (void)execute(prog, design.nest, sizes, fresh, no_cache);
  EXPECT_FALSE(relowered.bytecode_reused);
  expect_same_stores(design, store, fresh, "relowered");
}

}  // namespace
}  // namespace systolize

// Differential suite for the bytecode backend (runtime/bytecode +
// runtime/vm): on every shipped design the lowered VM must be
// bit-identical to the interpreter — results, makespan,
// transfer counts, statement counts AND scheduler rounds — because both
// engines implement the same dataflow-clock semantics over the same
// round structure. SoA batching must additionally reproduce, per lane,
// exactly what a per-instance sequential run produces, and a replay of a
// plan's recorded tape must reproduce the walk it was recorded from.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "frontend/parser.hpp"
#include "runtime/instantiate.hpp"
#include "runtime/worker_pool.hpp"
#include "scheme/compiler.hpp"
#include "service/executor.hpp"

#include "pseudo_random.hpp"

#ifndef SYSTOLIZE_DESIGN_DIR
#define SYSTOLIZE_DESIGN_DIR "designs"
#endif

namespace systolize {
namespace {

using testutil::pseudo_random;

/// A catalog design by name, or designs/<name>.sa for the shipped designs
/// outside the catalog (the guarded masked_polyprod and banded_matmul).
Design load_design(const std::string& name) {
  const std::vector<std::string> catalog = catalog_names();
  if (std::find(catalog.begin(), catalog.end(), name) != catalog.end()) {
    return design_by_name(name);
  }
  std::ifstream in(std::string(SYSTOLIZE_DESIGN_DIR) + "/" + name + ".sa");
  std::ostringstream text;
  text << in.rdbuf();
  return frontend::parse_design(text.str());
}

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
  Design design = load_design(GetParam());
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
  Design design = load_design(GetParam());
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
  Design design = load_design(GetParam());
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
  Design design = load_design(GetParam());
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

/// A run's metrics with the lookup's cache outcome and the schedule field
/// cleared: what a replay must reproduce of the walk, field for field.
std::string schedule_fields(RunMetrics m) {
  m.schedule.clear();
  m.plan_reused = false;
  m.template_reused = false;
  m.plan_expand_ns = 0;
  m.plan_cache_bytes = 0;
  m.plan_cache_evictions = 0;
  m.bytecode_reused = false;
  m.bytecode_lower_ns = 0;
  return m.to_json();
}

std::vector<IndexedStore> seeded_lanes(const Design& design, const Env& sizes,
                                       std::size_t lanes) {
  std::vector<IndexedStore> stores;
  for (std::size_t l = 0; l < lanes; ++l) {
    stores.push_back(seeded_lane(design, sizes, static_cast<Int>(l)));
  }
  return stores;
}

/// Records `design`'s tape at `sizes` into `cache` with one solo run.
RunMetrics record_tape(const CompiledProgram& prog, const Design& design,
                       const Env& sizes, PlanCache& cache) {
  InstantiateOptions opt;
  opt.plan_cache = &cache;
  IndexedStore store = seeded(design, sizes);
  RunMetrics m = execute(prog, design.nest, sizes, store, opt);
  EXPECT_EQ(m.schedule, "walked");
  EXPECT_EQ(cache.tapes(), 1u);
  return m;
}

TEST_P(BytecodeDifferential, ReplayMatchesWalkSoloBatchedAndChunked) {
  Design design = load_design(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  const Env sizes = sizes_for(design, 4, 3);
  // One tape, recorded solo, serves every lane count and lane chunking.
  PlanCache cache;
  (void)record_tape(prog, design, sizes, cache);
  WorkerPool pool(2);
  struct Shape {
    std::size_t lanes;
    unsigned threads;
  };
  for (const Shape shape : {Shape{1, 0}, Shape{3, 0}, Shape{64, 0},
                            Shape{6, 2}}) {
    const std::string what = GetParam() + " lanes=" +
                             std::to_string(shape.lanes) +
                             " threads=" + std::to_string(shape.threads);
    InstantiateOptions opt;
    opt.threads = shape.threads;
    opt.worker_pool = shape.threads > 1 ? &pool : nullptr;
    std::vector<IndexedStore> walked = seeded_lanes(design, sizes, shape.lanes);
    std::vector<IndexedStore> replayed = walked;
    const RunMetrics walk = execute_batch(prog, design.nest, sizes,
                                          walked.data(), shape.lanes, opt);
    opt.plan_cache = &cache;
    const RunMetrics replay = execute_batch(prog, design.nest, sizes,
                                            replayed.data(), shape.lanes, opt);
    EXPECT_EQ(walk.schedule, "walked") << what;
    EXPECT_EQ(replay.schedule, "replayed") << what;
    EXPECT_EQ(schedule_fields(walk), schedule_fields(replay)) << what;
    for (std::size_t l = 0; l < shape.lanes; ++l) {
      expect_same_stores(design, walked[l], replayed[l],
                         what + " lane " + std::to_string(l));
    }
  }
  EXPECT_EQ(cache.tapes(), 1u);
}

TEST_P(BytecodeDifferential, RoundBudgetBelowTheRecordedRoundsWalks) {
  Design design = load_design(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  const Env sizes = sizes_for(design, 3, 2);
  PlanCache cache;
  const Int rounds = record_tape(prog, design, sizes, cache).scheduler_rounds;
  ASSERT_GT(rounds, 1);
  InstantiateOptions opt;
  opt.plan_cache = &cache;
  opt.watchdog.max_rounds = rounds - 1;
  IndexedStore store = seeded(design, sizes);
  try {
    (void)execute(prog, design.nest, sizes, store, opt);
    FAIL() << GetParam() << ": expected Error(Timeout)";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Timeout) << GetParam();
    EXPECT_NE(std::string(e.what()).find("round budget"), std::string::npos)
        << GetParam();
  }
  opt.watchdog.max_rounds = rounds;
  store = seeded(design, sizes);
  EXPECT_EQ(execute(prog, design.nest, sizes, store, opt).schedule,
            "replayed")
      << GetParam();
}

TEST_P(BytecodeDifferential, CancelledReplayClassifiesLikeACancelledWalk) {
  Design design = load_design(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  const Env sizes = sizes_for(design, 3, 2);
  PlanCache cache;
  (void)record_tape(prog, design, sizes, cache);
  std::atomic<bool> cancel{true};
  InstantiateOptions opt;
  opt.watchdog.cancel = &cancel;
  opt.watchdog.cancel_reason = "stop here";
  auto failure = [&](const InstantiateOptions& o) -> Error {
    IndexedStore store = seeded(design, sizes);
    try {
      (void)execute(prog, design.nest, sizes, store, o);
    } catch (const Error& e) {
      return e;
    }
    ADD_FAILURE() << GetParam() << ": expected the run to be cancelled";
    return Error(ErrorKind::Internal, "not cancelled");
  };
  const Error walk = failure(opt);  // no cache: a walk
  opt.plan_cache = &cache;
  const Error replay = failure(opt);
  EXPECT_EQ(walk.kind(), ErrorKind::Cancelled) << GetParam();
  EXPECT_EQ(replay.kind(), ErrorKind::Cancelled) << GetParam();
  EXPECT_EQ(std::string(replay.what()).rfind("stop here: 0 blocked op(s)", 0),
            0u)
      << replay.what();
  EXPECT_NE(replay.diagnostic().find("\"reason\":\"stop here\""),
            std::string::npos)
      << replay.diagnostic();
  EXPECT_NE(replay.diagnostic().find("\"tape_position\":0"),
            std::string::npos)
      << replay.diagnostic();

  // A wall-clock deadline that has passed cancels the replay as Timeout.
  service::DeadlineTimer deadline;
  deadline.arm(1);
  while (!deadline.fired()) std::this_thread::yield();
  opt.watchdog.cancel = deadline.token();
  opt.watchdog.cancel_kind = ErrorKind::Timeout;
  opt.watchdog.cancel_reason = "wall-clock deadline of 1ms exceeded";
  const Error timed_out = failure(opt);
  EXPECT_EQ(timed_out.kind(), ErrorKind::Timeout) << GetParam();
  EXPECT_FALSE(timed_out.diagnostic().empty()) << GetParam();
  EXPECT_EQ(cache.tapes(), 1u);
}

TEST_P(BytecodeDifferential, FailedWalksStoreNoTape) {
  Design design = load_design(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  const Env sizes = sizes_for(design, 3, 2);
  PlanCache cache;
  InstantiateOptions opt;
  opt.plan_cache = &cache;
  std::atomic<bool> cancel{true};
  opt.watchdog.cancel = &cancel;
  IndexedStore store = seeded(design, sizes);
  EXPECT_THROW((void)execute(prog, design.nest, sizes, store, opt), Error);
  opt.watchdog.cancel = nullptr;
  opt.watchdog.max_rounds = 2;
  store = seeded(design, sizes);
  EXPECT_THROW((void)execute(prog, design.nest, sizes, store, opt), Error);
  EXPECT_EQ(cache.tapes(), 0u) << GetParam();
  EXPECT_EQ(cache.tape_bytes(), 0u) << GetParam();
  // The next complete walk records.
  opt.watchdog.max_rounds = 0;
  store = seeded(design, sizes);
  EXPECT_EQ(execute(prog, design.nest, sizes, store, opt).schedule, "walked");
  EXPECT_EQ(cache.tapes(), 1u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, BytecodeDifferential,
                         ::testing::Values("polyprod1", "polyprod2",
                                           "polyprod3", "matmul1", "matmul2",
                                           "matmul3", "matmul4",
                                           "convolution", "correlation",
                                           "fir_bank", "closure",
                                           "masked_polyprod",
                                           "banded_matmul"));

TEST(BytecodeReplay, DeadlockedWalkStoresNoTape) {
  // A fuzz reproducer whose rendezvous network deadlocks at every size.
  const Design design = frontend::parse_design(
      "design fuzz_1\n"
      "sizes n >= 1\n"
      "loop i = 0 .. n\n"
      "loop j = 0 .. n\n"
      "stream a[-i + j] read dims [-n .. n]\n"
      "stream u[i - j] update dims [-n .. n]\n"
      "stream b[i + j] read dims [0 .. 2*n]\n"
      "stream c[j] read dims [0 .. n]\n"
      "body u := u + a + b + c\n"
      "step i\n"
      "place (j)\n"
      "load c = (1)\n");
  CompiledProgram prog = compile(design.nest, design.spec);
  const Env sizes{{"n", Rational(3)}};
  PlanCache cache;
  InstantiateOptions opt;
  opt.plan_cache = &cache;
  for (int attempt = 0; attempt < 2; ++attempt) {
    IndexedStore store = seeded(design, sizes);
    try {
      (void)execute(prog, design.nest, sizes, store, opt);
      FAIL() << "expected the walk to deadlock";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Runtime);
      EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
    }
  }
  EXPECT_EQ(cache.tapes(), 0u);
  EXPECT_EQ(cache.bytecode_size(), 1u);
}

TEST(BytecodeReplay, TapeBytesCountAgainstTheBudget) {
  Design design = design_by_name("polyprod1");
  CompiledProgram prog = compile(design.nest, design.spec);
  PlanCache cache;
  InstantiateOptions opt;
  opt.plan_cache = &cache;
  for (Int n : {2, 3, 4}) {
    const Env sizes{{"n", Rational(n)}};
    IndexedStore store = seeded(design, sizes);
    const std::size_t before = cache.bytecode_bytes();
    const std::size_t tape_before = cache.tape_bytes();
    (void)execute(prog, design.nest, sizes, store, opt);
    const std::size_t tape = cache.tape_bytes() - tape_before;
    EXPECT_GT(tape, 0u) << "n=" << n;
    EXPECT_GT(cache.bytecode_bytes() - before, tape) << "n=" << n;
  }
  EXPECT_EQ(cache.tapes(), 3u);
  // Shrinking the budget evicts down to one entry and drops its tape.
  cache.set_byte_budget(1);
  EXPECT_EQ(cache.bytecode_size(), 1u);
  EXPECT_EQ(cache.tapes(), 0u);
  EXPECT_EQ(cache.tape_bytes(), 0u);
  // Under a budget no tape fits, every run walks and records nothing,
  // with unchanged results.
  const Env sizes{{"n", Rational(4)}};
  IndexedStore cached = seeded(design, sizes);
  IndexedStore fresh = cached;
  const RunMetrics m = execute(prog, design.nest, sizes, cached, opt);
  EXPECT_EQ(m.schedule, "walked");
  EXPECT_EQ(cache.tapes(), 0u);
  (void)execute(prog, design.nest, sizes, fresh, InstantiateOptions{});
  expect_same_stores(design, cached, fresh, "budget 1");
  // Restoring the budget lets the next walk record again.
  cache.set_byte_budget(PlanCache::kDefaultByteBudget);
  (void)execute(prog, design.nest, sizes, cached, opt);
  EXPECT_EQ(cache.tapes(), 1u);
}

TEST(BytecodeReplay, InterpreterRunsNeitherRecordNorReplay) {
  Design design = design_by_name("polyprod1");
  CompiledProgram prog = compile(design.nest, design.spec);
  const Env sizes{{"n", Rational(3)}};
  PlanCache cache;
  InstantiateOptions opt;
  opt.plan_cache = &cache;
  opt.channel_capacity = 1;  // a bytecode blocker: the interpreter runs
  for (int i = 0; i < 2; ++i) {
    IndexedStore store = seeded(design, sizes);
    EXPECT_EQ(execute(prog, design.nest, sizes, store, opt).schedule,
              "walked");
  }
  opt.channel_capacity = 0;
  opt.backend = Backend::Interp;
  IndexedStore store = seeded(design, sizes);
  EXPECT_EQ(execute(prog, design.nest, sizes, store, opt).schedule, "walked");
  EXPECT_EQ(cache.tapes(), 0u);
}

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

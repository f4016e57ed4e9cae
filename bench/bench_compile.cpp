// Experiment X-COMP (EXPERIMENTS.md): cost of the compilation scheme
// itself. The paper's central point against run-time generation (Sect. 8)
// is that the symbolic derivation runs once and is independent of the
// problem size — the `n` argument below changes nothing for compile()
// while instantiation cost naturally grows with the array.
#include "bench_util.hpp"

#include "analysis/verify.hpp"
#include "runtime/bytecode.hpp"
#include "runtime/vm.hpp"

namespace systolize::bench {
namespace {

void BM_CompileDesign(benchmark::State& state,
                      const std::string& design_name) {
  Design design = design_by_name(design_name);
  for (auto _ : state) {
    CompiledProgram prog = compile(design.nest, design.spec);
    benchmark::DoNotOptimize(prog);
  }
  state.counters["first_clauses"] = static_cast<double>(
      compile(design.nest, design.spec).repeater.first.size());
}

void BM_CompilePolyprod1(benchmark::State& state) {
  BM_CompileDesign(state, "polyprod1");
}
void BM_CompilePolyprod2(benchmark::State& state) {
  BM_CompileDesign(state, "polyprod2");
}
void BM_CompileMatmul1(benchmark::State& state) {
  BM_CompileDesign(state, "matmul1");
}
void BM_CompileMatmul2(benchmark::State& state) {
  BM_CompileDesign(state, "matmul2");
}
void BM_CompileConvolution(benchmark::State& state) {
  BM_CompileDesign(state, "convolution");
}
void BM_CompileCorrelation(benchmark::State& state) {
  BM_CompileDesign(state, "correlation");
}

BENCHMARK(BM_CompilePolyprod1);
BENCHMARK(BM_CompilePolyprod2);
BENCHMARK(BM_CompileMatmul1);
BENCHMARK(BM_CompileMatmul2);
BENCHMARK(BM_CompileConvolution);
BENCHMARK(BM_CompileCorrelation);

/// The program-level static verifier on matmul2: schedule validity, flow
/// consistency, guard feasibility and pairwise clause disjointness, all
/// decided by Fourier-Motzkin. It leads an `analyze matmul2` op. Counts
/// the findings so a run that stops verifying clean shows.
void BM_VerifyProgramMatmul2(benchmark::State& state) {
  const Design design = design_by_name("matmul2");
  const CompiledProgram prog = compile(design.nest, design.spec);
  for (auto _ : state) {
    VerifyReport report = verify_program(prog, design.nest);
    benchmark::DoNotOptimize(report);
  }
  const VerifyReport report = verify_program(prog, design.nest);
  if (report.errors() != 0) state.SkipWithError("matmul2 no longer verifies");
  state.counters["findings"] = static_cast<double>(report.findings.size());
}
BENCHMARK(BM_VerifyProgramMatmul2);

/// The plan verifier (channel discipline and static deadlock freedom)
/// on one expanded plan. It retires the lowered program, so it should
/// cost about what BM_LowerAndWalk costs on the same plan.
void BM_VerifyPlan(benchmark::State& state, const std::string& design_name,
                   Int n) {
  const Design design = design_by_name(design_name);
  const CompiledProgram prog = compile(design.nest, design.spec);
  const std::unique_ptr<NetworkPlan> plan =
      build_plan(prog, design.nest, sizes_for(design, n), PlanShape{});
  for (auto _ : state) {
    VerifyReport report = verify_plan(*plan);
    benchmark::DoNotOptimize(report);
  }
  const VerifyReport report = verify_plan(*plan);
  if (!report.findings.empty()) {
    state.SkipWithError("the plan no longer verifies clean");
  }
  state.counters["processes"] = static_cast<double>(plan->procs.size());
}

/// The loading-cover check (stage 4 of the static pipeline, which the run
/// gate also proves) at one size: one walk of the iteration domain
/// marking the stationary streams' declared boxes. Skips with an error
/// if the design stops covering its boxes.
void BM_LoadingCover(benchmark::State& state, const std::string& design_name,
                     Int n) {
  const Design design = design_by_name(design_name);
  const CompiledProgram prog = compile(design.nest, design.spec);
  const Env sizes = sizes_for(design, n);
  for (auto _ : state) {
    VerifyReport report;
    verify_loading_cover_into(report, prog, design.nest, sizes);
    benchmark::DoNotOptimize(report);
  }
  VerifyReport report;
  verify_loading_cover_into(report, prog, design.nest, sizes);
  if (!report.findings.empty()) {
    state.SkipWithError("the loading cover no longer holds");
  }
}

/// Lowering plus a one-lane VM walk of the same plan: the cost the plan
/// verifier is measured against.
void BM_LowerAndWalk(benchmark::State& state, const std::string& design_name,
                     Int n) {
  const Design design = design_by_name(design_name);
  const CompiledProgram prog = compile(design.nest, design.spec);
  const std::unique_ptr<NetworkPlan> plan =
      build_plan(prog, design.nest, sizes_for(design, n), PlanShape{});
  const std::vector<Value> in(plan->elems.size(), 1);
  std::vector<Value> out(plan->elems.size(), 0);
  for (auto _ : state) {
    const std::unique_ptr<BytecodeProgram> code = lower_plan(*plan);
    VmResult result = run_vm(*code, *plan, in.data(), out.data(), 1, 0, 1);
    benchmark::DoNotOptimize(result);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

BENCHMARK_CAPTURE(BM_VerifyPlan, matmul2_n14, "matmul2", 14)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_VerifyPlan, matmul2_n32, "matmul2", 32)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_VerifyPlan, closure_n32, "closure", 32)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_VerifyPlan, matmul1_n4, "matmul1", 4)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_VerifyPlan, polyprod2_n8, "polyprod2", 8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_LoadingCover, matmul1_n32, "matmul1", 32)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_LoadingCover, closure_n18, "closure", 18)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_LoadingCover, correlation_n112, "correlation", 112)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_LowerAndWalk, matmul2_n14, "matmul2", 14)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_LowerAndWalk, matmul2_n32, "matmul2", 32)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_LowerAndWalk, closure_n32, "closure", 32)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_LowerAndWalk, matmul1_n4, "matmul1", 4)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_LowerAndWalk, polyprod2_n8, "polyprod2", 8)
    ->Unit(benchmark::kMicrosecond);

/// Compilation is problem-size independent: the symbolic result is the
/// same object regardless of n, so the only size-dependent stage is
/// instantiation. This benchmark times instantiate+run separately so the
/// two stages can be compared.
void BM_InstantiateMatmul2(benchmark::State& state) {
  static const Design design = matmul_design2();
  static const CompiledProgram prog = compile(design.nest, design.spec);
  run_and_report(state, design, prog, state.range(0));
}
BENCHMARK(BM_InstantiateMatmul2)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace systolize::bench

BENCHMARK_MAIN();

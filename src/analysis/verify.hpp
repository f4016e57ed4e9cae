// Static plan verifier: prove or refute the correctness conditions of a
// compiled systolic network without executing a single scheduler round.
//
// The compilation scheme is only sound when (step, place) is injective on
// the index space (Eq. (1), Theorem 3), flows are consistent and
// neighbour-restricted (Sect. 3.2, Theorem 10), and the generated
// repeater/soak/drain guards cover exactly the intended lattice points
// (Sects. 6-7). The runtime's PR-1 forensics only discover violations
// dynamically, mid-run; this pass discharges them at compile time:
//
//   * SPEC level   — verify_spec: symbolic checks on (source, array)
//     directly, so broken specs are diagnosed even when compile() would
//     refuse them (rank/injectivity/dependence/flow rules).
//   * PROGRAM level — verify_program: the same schedule checks off the
//     compiled program, plus flow-record consistency and the guard
//     feasibility/disjointness analysis (Fourier-Motzkin under the
//     program's standing assumptions; exact on integer points).
//   * PLAN level   — verify_plan: channel discipline (single writer and
//     reader, send/recv count balance off the first/last-derived counts)
//     and static deadlock freedom of the interned NetworkPlan, by
//     topologically retiring its step-ordered communication graph. A
//     detected cycle is reported in the exact wait-for schema of the
//     runtime forensics (DeadlockReport), so diagnostics look identical
//     whether found statically or dynamically.
//
// Every diagnostic carries a stable rule id (docs/static-analysis.md).
//
// verify_design is the one order in which the levels run (the static
// pipeline); `systolize verify`, `analyze`, the serve `verify` and
// `analyze` ops and the run gate (InstantiateOptions::verify_plan) all go
// through it.
#pragma once

#include <functional>
#include <vector>

#include "analysis/findings.hpp"
#include "runtime/plan_cache.hpp"
#include "scheme/types.hpp"
#include "systolic/array_spec.hpp"

namespace systolize {

struct CostReport;  // analysis/cost.hpp

/// Symbolic checks on a raw (source program, array spec) pair. Never
/// throws on the violations it checks for — they become findings.
[[nodiscard]] VerifyReport verify_spec(const LoopNest& nest,
                                       const ArraySpec& spec);
void verify_spec_into(VerifyReport& report, const LoopNest& nest,
                      const ArraySpec& spec);

/// Symbolic checks on a compiled program: schedule validity, recorded
/// flow consistency, guard feasibility and pairwise disjointness.
[[nodiscard]] VerifyReport verify_program(const CompiledProgram& program,
                                          const LoopNest& nest);
void verify_program_into(VerifyReport& report, const CompiledProgram& program,
                         const LoopNest& nest);

/// Structural checks on an interned NetworkPlan: per-channel single
/// writer/reader discipline, send/recv count balance, and static
/// deadlock freedom of the communication structure.
[[nodiscard]] VerifyReport verify_plan(const NetworkPlan& plan);
void verify_plan_into(VerifyReport& report, const NetworkPlan& plan);

/// Concrete-size check that every stationary stream's declared element
/// box is exactly the index-map image of the iteration domain. The
/// loading & recovery pipelines enumerate the box while the cells hold
/// the image, so any mismatch deposits elements into the wrong cells
/// (rule flow.loading-cover; found by differential fuzzing). Moving
/// streams derive element identities per chord and are immune.
void verify_loading_cover_into(VerifyReport& report,
                               const CompiledProgram& program,
                               const LoopNest& nest, const Env& sizes);

/// Where the static pipeline takes its program and its plan from.
struct PipelineOptions {
  PlanShape shape;  ///< the shape of the plan stage 5 builds
  /// When set, stage 5 takes the plan from this cache.
  PlanCache* plan_cache = nullptr;
  /// When set, stage 2 calls this instead of compile(nest, spec). The
  /// serve daemon passes its compile cache, so a verify and a run share
  /// one CompiledProgram. May throw what compile() throws.
  std::function<const CompiledProgram&()> compile;
};

/// The static pipeline. Its stages run in this order, and it stops after
/// the first stage that reports an error:
///   1. the spec rules (verify_spec);
///   2. compile — a throw becomes a compile.error finding;
///   3. the program rules (verify_program);
///   4. the loading cover at `sizes`;
///   5. the plan at `sizes` — a throw here or in stage 4 becomes a
///      plan.error finding;
///   6. the plan rules (verify_plan).
/// No scheduler is ever constructed. The report carries the nest's name.
[[nodiscard]] VerifyReport verify_design(const LoopNest& nest,
                                         const ArraySpec& spec,
                                         const Env& sizes,
                                         const PipelineOptions& options = {});

/// Stages 3 to 6 on a compiled design (the fuzz oracle runs the spec
/// rules and compiles itself). A non-null `plan` is the plan already
/// built at `sizes` — the run gate's, proved without a second expansion
/// — and replaces stage 5.
[[nodiscard]] VerifyReport verify_design(const CompiledProgram& program,
                                         const LoopNest& nest,
                                         const Env& sizes,
                                         const PlanShape& shape = {},
                                         const NetworkPlan* plan = nullptr);

/// `analyze`: stages 1 to 3 of the pipeline, then the cost model
/// (analyze_cost) at each of `sizes`, with plans of options.shape from
/// options.plan_cache when set. `cost` is written only when the returned
/// report has no error; a throw while costing becomes plan.error.
[[nodiscard]] VerifyReport analyze_design(const LoopNest& nest,
                                          const ArraySpec& spec,
                                          const std::vector<Env>& sizes,
                                          const PipelineOptions& options,
                                          CostReport& cost);

}  // namespace systolize

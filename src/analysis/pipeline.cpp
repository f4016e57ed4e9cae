// The static pipeline: the one order in which a design is proved, from
// its spec to its plan (verify.hpp lists the stages). Every front end's
// static check runs through here, so a rule that fires in one fires in
// all of them.
#include <memory>
#include <optional>
#include <string>

#include "analysis/cost.hpp"
#include "analysis/verify.hpp"
#include "scheme/compiler.hpp"

namespace systolize {
namespace {

void add_plan_error(VerifyReport& report, const Error& e) {
  report.add("plan.error", Severity::Error, "network plan",
             std::string("interning the plan failed: ") + e.what(),
             e.diagnostic());
}

/// Stages 1 and 2: the spec rules, then the compiled program. Null when
/// the spec rules report an error or compiling throws (compile.error).
/// `own` holds the program when the pipeline compiles it itself.
const CompiledProgram* compiled_stage(VerifyReport& report,
                                      const LoopNest& nest,
                                      const ArraySpec& spec,
                                      const PipelineOptions& options,
                                      std::optional<CompiledProgram>& own) {
  verify_spec_into(report, nest, spec);
  if (report.errors() != 0) return nullptr;
  try {
    if (options.compile) return &options.compile();
    return &own.emplace(compile(nest, spec));
  } catch (const Error& e) {
    report.add("compile.error", Severity::Error, nest.name(),
               std::string(error_kind_name(e.kind())) + ": " + e.what(),
               e.diagnostic());
    return nullptr;
  }
}

/// Stages 3 to 6. `plan` is the plan to prove, or null to take it from
/// `cache` (or build it) at `sizes` and `shape`.
void program_stages(VerifyReport& report, const CompiledProgram& program,
                    const LoopNest& nest, const Env& sizes,
                    const NetworkPlan* plan, const PlanShape& shape,
                    PlanCache* cache) {
  verify_program_into(report, program, nest);
  if (report.errors() != 0) return;  // the plan would inherit the rot
  std::shared_ptr<const NetworkPlan> held;
  try {
    verify_loading_cover_into(report, program, nest, sizes);
    if (report.errors() != 0) return;
    if (plan == nullptr) {
      held = cache != nullptr
                 ? cache->lookup_or_build(program, nest, sizes, shape)
                 : std::shared_ptr<const NetworkPlan>(
                       build_plan(program, nest, sizes, shape));
      plan = held.get();
    }
  } catch (const Error& e) {
    add_plan_error(report, e);
    return;
  }
  verify_plan_into(report, *plan);
}

}  // namespace

VerifyReport verify_design(const LoopNest& nest, const ArraySpec& spec,
                           const Env& sizes, const PipelineOptions& options) {
  VerifyReport report;
  report.design = nest.name();
  std::optional<CompiledProgram> own;
  if (const CompiledProgram* program =
          compiled_stage(report, nest, spec, options, own)) {
    program_stages(report, *program, nest, sizes, nullptr, options.shape,
                   options.plan_cache);
  }
  return report;
}

VerifyReport verify_design(const CompiledProgram& program,
                           const LoopNest& nest, const Env& sizes,
                           const PlanShape& shape, const NetworkPlan* plan) {
  VerifyReport report;
  report.design = program.name;
  program_stages(report, program, nest, sizes, plan, shape, nullptr);
  return report;
}

VerifyReport analyze_design(const LoopNest& nest, const ArraySpec& spec,
                            const std::vector<Env>& sizes,
                            const PipelineOptions& options,
                            CostReport& cost) {
  VerifyReport report;
  report.design = nest.name();
  std::optional<CompiledProgram> own;
  const CompiledProgram* program =
      compiled_stage(report, nest, spec, options, own);
  if (program == nullptr) return report;
  verify_program_into(report, *program, nest);
  if (report.errors() != 0) return report;
  try {
    cost = analyze_cost(*program, nest, sizes, options.shape,
                        options.plan_cache);
  } catch (const Error& e) {
    add_plan_error(report, e);
  }
  return report;
}

}  // namespace systolize

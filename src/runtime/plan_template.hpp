// Size-generic plan templates: the compile-once / specialize-cheaply split,
// and the only way a NetworkPlan is built.
//
// The paper's derivations (Sects. 6-7) are symbolic in the size variables
// and the process coordinates: piecewise clause selection over rational
// affine expressions. That structure does not depend on the problem size,
// so it is lowered exactly once per (program, shape) into flat integer
// coefficient tables and then evaluated at any concrete size with
// overflow-checked integer dot products only.
//
//   stage 1  compile_template(program, nest, shape)  -> PlanTemplate
//            every symbolic derivation runs once: guards and values become
//            LinForms (scaled integer coefficient rows over the template
//            variables), piecewise clauses that are infeasible under the
//            program's standing assumptions are pruned by Fourier-Motzkin.
//   stage 2  expand_template(tmpl, sizes)            -> NetworkPlan
//            pure integer arithmetic: bind the size symbols, enumerate the
//            PS box, evaluate coefficient rows. No symbolic/ calls, no
//            Rational, no Fourier-Motzkin, no Env copies, and no names:
//            a plan identifies its processes and channels by integers.
//
// build_plan() (runtime/plan_cache.hpp) runs both stages for one plan.
// PlanCache builds its two cache levels on the split: templates are
// memoized per (program generation, shape) and plans per size vector, so
// a never-seen size costs one expansion instead of a full symbolic
// derivation. tests/runtime/test_plan_template.cpp checks expanded plans
// against the brute-force EnumerationOracle (src/baseline/).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/plan_cache.hpp"

namespace systolize {

/// One affine form lowered to integers: value = (sum of coeff*var +
/// constant) / den with den > 0. Variables are indexed into the template's
/// variable space (process coordinates first, then size symbols); only
/// nonzero coefficients are stored. All arithmetic is overflow-checked.
struct LinForm {
  std::vector<std::pair<std::uint32_t, Int>> terms;  ///< (var, scaled coeff)
  Int constant = 0;  ///< scaled by den
  Int den = 1;       ///< common positive denominator

  /// The scaled numerator sum. Sign-exact: >= 0 iff the rational value is.
  [[nodiscard]] Int eval_scaled(const Int* vars) const;
  /// The exact integer value; throws NotRepresentable when den does not
  /// divide the numerator (scheme values are integral by construction).
  [[nodiscard]] Int eval(const Int* vars) const;
};

/// A lowered guard: conjunction of slack forms, each required >= 0.
struct TemplateGuard {
  std::vector<LinForm> slacks;

  [[nodiscard]] bool holds(const Int* vars) const;
};

/// A lowered Piecewise<AffineExpr>: first clause whose guard holds wins,
/// none -> nullptr (the null case), exactly like Piecewise::select.
struct TemplateExpr {
  struct Piece {
    TemplateGuard guard;
    LinForm value;
  };
  std::vector<Piece> pieces;

  [[nodiscard]] const LinForm* select(const Int* vars) const;
};

/// A lowered Piecewise<AffinePoint>: one LinForm per component.
struct TemplatePoint {
  struct Piece {
    TemplateGuard guard;
    std::vector<LinForm> value;
  };
  std::vector<Piece> pieces;

  [[nodiscard]] const std::vector<LinForm>* select(const Int* vars) const;
  [[nodiscard]] bool covers(const Int* vars) const {
    return select(vars) != nullptr;
  }
};

/// Everything stage 2 needs, with no reference back to the CompiledProgram
/// or LoopNest: coefficient tables for the PS box faces, the computation
/// repeater, per-stream i/o layouts and soak/drain counts. Self-contained
/// and immutable after compile_template(), so one template may serve
/// concurrent expansions.
struct PlanTemplate {
  struct StreamTemplate {
    std::string name;
    bool stationary = false;
    IntVec direction;     ///< element travel direction (pipe grouping)
    Int denominator = 1;  ///< flow denominator q (q-1 internal buffers)
    IntVec increment_s;   ///< i/o repeater increment (element identities)
    TemplatePoint first_s;
    TemplateExpr count_s;
    TemplateExpr soak;
    TemplateExpr drain;
  };

  std::string program_name;
  std::uint64_t program_generation = 0;  ///< identity of the source program
  std::size_t depth = 0;                 ///< r
  PlanShape shape;

  /// Template variable space: vars[0 .. ncoords) are the process
  /// coordinates (program.coords order), vars[ncoords + i] is size symbol
  /// size_symbols[i]. Expansion binds the sizes once per call.
  std::size_t ncoords = 0;
  std::vector<std::string> size_symbols;

  Statement body;     ///< the loop-nest basic statement
  IntVec increment;   ///< computation repeater chord increment
  std::vector<LinForm> ps_min;  ///< PS box faces (coord-free forms)
  std::vector<LinForm> ps_max;
  TemplatePoint first;  ///< repeater first (its cover is the CS predicate)
  TemplateExpr count;   ///< repeater iteration count
  std::vector<StreamTemplate> streams;

  /// Approximate heap footprint (coefficient tables + strings).
  [[nodiscard]] std::size_t memory_bytes() const;
};

/// Stage 1: run every symbolic derivation once. Fourier-Motzkin prunes
/// clauses infeasible under the program's standing assumptions; everything
/// else is lowered to integer coefficient rows. The returned template is
/// immutable and independent of the program's lifetime.
[[nodiscard]] std::shared_ptr<const PlanTemplate> compile_template(
    const CompiledProgram& program, const LoopNest& nest,
    const PlanShape& shape);

/// Stage 2: evaluate the template at concrete sizes, integer arithmetic
/// only. Throws Error(Validation) when a size symbol is unbound or not an
/// integer or the partition grid has the wrong arity, and
/// Error(Inconsistent) when a process breaks the conservation law.
[[nodiscard]] std::unique_ptr<NetworkPlan> expand_template(
    const PlanTemplate& tmpl, const Env& sizes);

}  // namespace systolize

// Static cost model: score a compiled systolic design without running a
// single scheduler round.
//
// The paper derives the distributed program but never *evaluates* it; the
// design-space search (systolic/enumerate.hpp, `systolize explore`) needs
// a scoring pass that is as static as the PR-3 verifier. Two layers:
//
//   * closed forms — quantities that are affine (or products of affines)
//     in the problem-size symbols, derived once per program straight from
//     the compiled derivation: the makespan of the computation (the step
//     function's spread over the index-space box), the process-space box
//     volume, the index-space volume (total work), and the longest
//     dependence chain (the update streams' element multiplicity along
//     their index-map null directions);
//   * concrete counts — quantities that depend on which box points are
//     actually occupied (processes, channels, i/o and buffer overhead,
//     soak/drain prologues, per-process work imbalance), read off the
//     interned NetworkPlan at each requested size. Interning a plan is
//     pure symbolic evaluation + integer expansion — still zero scheduler
//     rounds.
//
// The combination is a CostReport: formulas plus one metrics row per size
// binding, rendered as text or compact JSON (the service's `analyze` op
// returns the JSON form).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "runtime/plan_cache.hpp"
#include "scheme/types.hpp"

namespace systolize {

/// Closed-form quantities, symbolic in the problem-size symbols.
struct CostFormulas {
  /// Last computation step minus first: sum_i |step.c_i| * (rb_i - lb_i).
  /// Affine because the loop bounds are affine in the sizes (Sect. 3.1).
  AffineExpr makespan;
  /// Per-dimension extents of the PS box (Sect. 6.1); their product bounds
  /// the computation-process count (exact when every box point is hit, as
  /// in the simple-place designs).
  std::vector<AffineExpr> ps_extents;
  /// Per-loop extents of the index space; their product is |IS| — the
  /// total statement count (total work).
  std::vector<AffineExpr> is_extents;
  /// Longest dependence chain, one rendered formula per Update stream
  /// (e.g. "n + 1", or "min(n, 2*n) + 1" when the chain direction has
  /// several non-zero components). Empty when there is no Update stream.
  std::vector<std::string> chain_formulas;

  [[nodiscard]] std::string ps_box_to_string() const;
  [[nodiscard]] std::string work_to_string() const;
  [[nodiscard]] std::string chain_to_string() const;
};

/// Concrete metrics at one size binding. Everything here is derived from
/// the NetworkPlan and the closed forms — no execution.
struct CostMetrics {
  Int processes = 0;     ///< all plan processes
  Int comp = 0;          ///< computation processes
  Int io = 0;            ///< input/output pipeline processes
  Int buffer = 0;        ///< internal-buffer (pass) processes
  Int channels = 0;
  Int makespan = 0;      ///< last computation step - first
  Int soak_max = 0;      ///< longest soak prologue over all (proc, stream)
  Int drain_max = 0;     ///< longest drain epilogue
  Int longest_chain = 0; ///< max statements chained through one element
  Int total_work = 0;    ///< |IS|
  Int max_proc_work = 0; ///< busiest computation process (repeater count)
  /// max_proc_work / (total_work / comp): 1 = perfectly balanced.
  Rational imbalance = Rational(1);
  /// (io + buffer) / comp: processes spent moving data per process
  /// spent computing.
  Rational overhead;
  /// Lowered bytecode footprint (runtime/bytecode.hpp): flat instruction
  /// count and resident bytes of the program the native backend executes
  /// for this plan. Static like everything else here — lowering is a
  /// linear walk of the plan, no scheduler rounds.
  Int bytecode_instructions = 0;
  Int bytecode_bytes = 0;
};

/// The analyzer's result for one design: formulas + one row per size.
struct CostReport {
  std::string design;
  CostFormulas formulas;

  struct AtSize {
    std::map<std::string, Int> sizes;  ///< e.g. {"n": 4}
    CostMetrics metrics;
  };
  std::vector<AtSize> at;

  /// Human-readable multi-line rendering.
  [[nodiscard]] std::string to_string() const;
  /// Compact JSON, same style as the verifier findings.
  [[nodiscard]] std::string to_json() const;
};

/// Derive the closed forms from the compiled program alone.
[[nodiscard]] CostFormulas derive_cost_formulas(const CompiledProgram& program,
                                                const LoopNest& nest);

/// Concrete metrics off an already-interned plan, lowering it to count
/// its bytecode.
[[nodiscard]] CostMetrics cost_metrics_of(const CompiledProgram& program,
                                          const LoopNest& nest,
                                          const Env& sizes,
                                          const NetworkPlan& plan);
/// The same over `bytecode`, the caller's lower_plan(plan): the enumerator
/// verifies and scores each candidate from one plan build and one
/// lowering.
[[nodiscard]] CostMetrics cost_metrics_of(const CompiledProgram& program,
                                          const LoopNest& nest,
                                          const Env& sizes,
                                          const NetworkPlan& plan,
                                          const BytecodeProgram& bytecode);

/// Concrete metrics at one size, interning the plan through `cache` when
/// one is given (the service path) or building it directly otherwise.
[[nodiscard]] CostMetrics analyze_cost_at(const CompiledProgram& program,
                                          const LoopNest& nest,
                                          const Env& sizes,
                                          const PlanShape& shape = {},
                                          PlanCache* cache = nullptr);

/// The full report: formulas plus one metrics row per size binding.
[[nodiscard]] CostReport analyze_cost(const CompiledProgram& program,
                                      const LoopNest& nest,
                                      const std::vector<Env>& size_envs,
                                      const PlanShape& shape = {},
                                      PlanCache* cache = nullptr);

}  // namespace systolize

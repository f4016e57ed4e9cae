// Bytecode lowering: compile an expanded NetworkPlan into a flat
// per-process program of dense, register-indexed instructions.
//
// The program is the only description of what a process does. Each
// process's control flow is a short, fixed instruction sequence — loops
// of sends (input pipes), loops of receives (output pipes), fused
// recv/send passes (buffers, soak/drain phases), par sets over a static
// channel table, and the repeater's compute step — and lower_plan() is
// the only code that derives it from the plan's ProcSpec/RoleSpec tables,
// with channel endpoints resolved to dense ids at lower time. Three
// consumers step it:
//   * the VM (runtime/vm.hpp) runs it as threaded dispatch over the flat
//     array, on pure rendezvous plans, solo or as SoA lanes;
//   * the interpreter (runtime/instantiate.cpp) runs it as one coroutine
//     per process through the scheduler's awaiters, on every plan shape;
//   * verify_plan (analysis/verify_plan.cpp) retires it abstractly to
//     prove channel balance and deadlock freedom.
//
// Lowered programs are pure functions of the plan: they carry no run
// state and no references into the plan beyond dense ids, so one program
// is shared across concurrent runs (and cached — PlanCache keeps a third,
// bytecode level keyed by plan identity).
//
// The instruction set is deliberately coarse: each instruction may loop
// internally (a whole input pipe is ONE SendIn instruction), because each
// consumer keeps per-process resume state (iteration index, phase) and
// blocking happens at individual communications, not instruction
// boundaries. This keeps programs tiny — a few instructions per process —
// and makes the dispatch overhead per *instruction*, not per element.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/plan_cache.hpp"

namespace systolize {

struct BytecodeProgram {
  enum class Op : std::uint8_t {
    SendIn,   ///< a=chan, b=elem base: send in[b+i] for i in [0, count)
    RecvOut,  ///< a=chan, b=elem base: recv -> out[b+i] for i in [0, count)
    Pass,     ///< a=chan in, b=chan out, c=reg: count x (recv; send)
    RecvReg,  ///< a=chan, c=reg: single receive into a register
    SendReg,  ///< a=chan, c=reg: single send from a register
    ParRecv,  ///< a=par table offset, b=entries: par receive into regs
    ParSend,  ///< a=par table offset, b=entries: par send from regs
    Compute,  ///< a=comp meta id: run the basic statement on every lane
    LoopEnd,  ///< b=insns to jump back, count=repeater trip count
    Halt,     ///< process finished
  };

  struct Insn {
    Op op = Op::Halt;
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::int32_t c = 0;
    Int count = 0;  ///< internal trip count (loops; 0 for single ops)
  };

  /// One member of a par set: a channel and the register it moves.
  struct ParEntry {
    std::int32_t chan = -1;
    std::int32_t reg = -1;
  };

  /// Per-process code slice, indexed by plan process id.
  struct ProcCode {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// Repeater metadata of one computation process: the statement's start
  /// point and the (stream, register) binding of every role slot. Slots
  /// cover ALL roles (stationary values live in their register across the
  /// whole repeater; moving ones are refreshed by the par sets).
  struct CompMeta {
    IntVec first_x;
    std::vector<std::uint32_t> slot_stream;  ///< stream id per role slot
    std::vector<std::int32_t> slot_reg;      ///< register per role slot
  };

  std::vector<Insn> code;       ///< all processes' code, concatenated
  std::vector<ParEntry> par;    ///< par set tables
  std::vector<ProcCode> procs;  ///< by plan process id
  std::vector<CompMeta> comps;  ///< by Compute's `a` operand
  std::size_t num_regs = 0;     ///< size of the (per-lane) register file

  [[nodiscard]] std::size_t instruction_count() const noexcept {
    return code.size();
  }
  /// Approximate heap footprint, the byte currency of the cache level.
  [[nodiscard]] std::size_t memory_bytes() const;
};

/// Lower `plan` into a bytecode program. Every plan shape lowers:
/// lowering never reads channel capacity or clocks, which stay with the
/// engine that runs the program. The plan's channel and role references
/// must be in range (verify_plan checks them before it lowers). The
/// program refers to the plan only through dense ids, so it stays valid
/// as long as a structurally identical plan is used to run it.
[[nodiscard]] std::unique_ptr<BytecodeProgram> lower_plan(
    const NetworkPlan& plan);

}  // namespace systolize

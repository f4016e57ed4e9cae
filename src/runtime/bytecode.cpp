#include "runtime/bytecode.hpp"

#include "support/error.hpp"

namespace systolize {

std::size_t BytecodeProgram::memory_bytes() const {
  std::size_t n = sizeof(BytecodeProgram);
  n += code.capacity() * sizeof(Insn);
  n += par.capacity() * sizeof(ParEntry);
  n += procs.capacity() * sizeof(ProcCode);
  n += comps.capacity() * sizeof(CompMeta);
  for (const CompMeta& c : comps) {
    n += c.first_x.comps().capacity() * sizeof(Int);
    n += c.slot_stream.capacity() * sizeof(std::uint32_t);
    n += c.slot_reg.capacity() * sizeof(std::int32_t);
  }
  return n;
}

std::unique_ptr<BytecodeProgram> lower_plan(const NetworkPlan& plan) {
  auto prog_ptr = std::make_unique<BytecodeProgram>();
  BytecodeProgram& prog = *prog_ptr;
  prog.procs.resize(plan.procs.size());

  // Registers are allocated per process: one scratch for every process
  // that relays values (Pass bodies and the comp soak/drain phases reuse
  // it across iterations — a relayed value is dead once sent), plus one
  // persistent slot per computation-process role.
  std::int32_t next_reg = 0;
  auto alloc_reg = [&next_reg] { return next_reg++; };

  using Op = BytecodeProgram::Op;
  auto emit = [&prog](Op op, std::int32_t a, std::int32_t b, std::int32_t c,
                      Int count) {
    prog.code.push_back(BytecodeProgram::Insn{op, a, b, c, count});
  };

  for (std::uint32_t pi = 0; pi < plan.procs.size(); ++pi) {
    const NetworkPlan::ProcSpec& spec = plan.procs[pi];
    prog.procs[pi].begin = static_cast<std::uint32_t>(prog.code.size());
    switch (spec.kind) {
      case NetworkPlan::ProcKind::Input:
        emit(Op::SendIn, spec.chan_out,
             static_cast<std::int32_t>(spec.elem_begin), 0, spec.count);
        break;
      case NetworkPlan::ProcKind::Output:
        emit(Op::RecvOut, spec.chan_in,
             static_cast<std::int32_t>(spec.elem_begin), 0, spec.count);
        break;
      case NetworkPlan::ProcKind::Pass:
        if (spec.count > 0) {
          emit(Op::Pass, spec.chan_in, spec.chan_out, alloc_reg(),
               spec.count);
        }
        break;
      case NetworkPlan::ProcKind::Comp: {
        // The phase order of the paper's final programs (D.1.7): load
        // stationary, soak moving, repeat, drain moving, recover
        // stationary. Stationary channels are touched only in load and
        // recover and moving ones only in soak, repeater and drain, so
        // this order is globally consistent across processes; mixing the
        // phases deadlocks (a process recovering a stationary stream
        // would block a neighbour still waiting on a moving drain).
        const std::size_t nroles = spec.role_end - spec.role_begin;
        const std::int32_t scratch = alloc_reg();
        BytecodeProgram::CompMeta meta;
        meta.first_x = spec.first_x;
        meta.slot_stream.reserve(nroles);
        meta.slot_reg.reserve(nroles);
        for (std::size_t i = 0; i < nroles; ++i) {
          const NetworkPlan::RoleSpec& role = plan.roles[spec.role_begin + i];
          meta.slot_stream.push_back(role.stream);
          meta.slot_reg.push_back(alloc_reg());
        }
        auto role_at = [&plan, &spec](std::size_t i)
            -> const NetworkPlan::RoleSpec& {
          return plan.roles[spec.role_begin + i];
        };
        // Prologue: load every stationary stream (first element into its
        // slot, then drain_s loading passes), then soak every moving one.
        for (std::size_t i = 0; i < nroles; ++i) {
          const NetworkPlan::RoleSpec& role = role_at(i);
          if (!role.stationary) continue;
          emit(Op::RecvReg, role.chan_in, 0, meta.slot_reg[i], 0);
          if (role.drain > 0) {
            emit(Op::Pass, role.chan_in, role.chan_out, scratch, role.drain);
          }
        }
        for (std::size_t i = 0; i < nroles; ++i) {
          const NetworkPlan::RoleSpec& role = role_at(i);
          if (role.stationary || role.soak == 0) continue;
          emit(Op::Pass, role.chan_in, role.chan_out, scratch, role.soak);
        }
        // Repeater: par-recv moving slots, compute, par-send.
        if (spec.count > 0) {
          std::int32_t par_off = static_cast<std::int32_t>(prog.par.size());
          std::int32_t moving = 0;
          for (std::size_t i = 0; i < nroles; ++i) {
            const NetworkPlan::RoleSpec& role = role_at(i);
            if (role.stationary) continue;
            prog.par.push_back(BytecodeProgram::ParEntry{
                role.chan_in, meta.slot_reg[i]});
            ++moving;
          }
          // Send table directly after the recv table, same slot order.
          for (std::size_t i = 0; i < nroles; ++i) {
            const NetworkPlan::RoleSpec& role = role_at(i);
            if (role.stationary) continue;
            prog.par.push_back(BytecodeProgram::ParEntry{
                role.chan_out, meta.slot_reg[i]});
          }
          const auto loop_head = static_cast<std::int32_t>(prog.code.size());
          if (moving > 0) emit(Op::ParRecv, par_off, moving, 0, 0);
          emit(Op::Compute, static_cast<std::int32_t>(prog.comps.size()), 0,
               0, 0);
          if (moving > 0) emit(Op::ParSend, par_off + moving, moving, 0, 0);
          const std::int32_t back =
              static_cast<std::int32_t>(prog.code.size()) - loop_head;
          emit(Op::LoopEnd, 0, back, 0, spec.count);
        }
        // Epilogue, the prologue's phases in reverse (D.1.7: "pass c,
        // n-col" before "recover a, col"): drain moving streams, then
        // recover stationary ones.
        for (std::size_t i = 0; i < nroles; ++i) {
          const NetworkPlan::RoleSpec& role = role_at(i);
          if (role.stationary || role.drain == 0) continue;
          emit(Op::Pass, role.chan_in, role.chan_out, scratch, role.drain);
        }
        for (std::size_t i = 0; i < nroles; ++i) {
          const NetworkPlan::RoleSpec& role = role_at(i);
          if (!role.stationary) continue;
          if (role.soak > 0) {
            emit(Op::Pass, role.chan_in, role.chan_out, scratch, role.soak);
          }
          emit(Op::SendReg, role.chan_out, 0, meta.slot_reg[i], 0);
        }
        prog.comps.push_back(std::move(meta));
        break;
      }
    }
    emit(Op::Halt, 0, 0, 0, 0);
    prog.procs[pi].end = static_cast<std::uint32_t>(prog.code.size());
  }
  prog.num_regs = static_cast<std::size_t>(next_reg);
  return prog_ptr;
}

}  // namespace systolize

// PLAN-level rules: channel discipline and static deadlock freedom of an
// interned NetworkPlan, with ZERO scheduler rounds.
//
// The verifier reads every process's op sequence from the plan's lowered
// bytecode (runtime/bytecode.hpp), the program the VM and the interpreter
// run. Channel endpoints (single writer, single reader) come from the
// plan's wiring; send/recv balance comes from the bytecode's op counts,
// the repeater body counted LoopEnd.count times. Deadlock freedom is
// decided by retiring the bytecode against the channel semantics of the
// scheduler (a send completes when a receiver is parked or the buffer has
// room; a recv completes when a value is buffered or a sender is parked),
// each process stepped from its own cursor like Vm::resume. Channel
// progress is monotone in this model, so greedy retirement computes the
// unique maximal execution: either every process halts — the network
// provably cannot deadlock on communication structure — or the stuck
// state IS a deadlock, reported in the exact wait-for schema of the
// runtime forensics (DeadlockReport), channels and cycle included.
#include "analysis/verify.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/bytecode.hpp"
#include "runtime/metrics.hpp"

namespace systolize {
namespace {

/// Call `fn(chan, is_send)` for every channel end process `pi` is wired
/// to.
template <class Fn>
void for_each_end(const NetworkPlan& plan, std::uint32_t pi, Fn&& fn) {
  const NetworkPlan::ProcSpec& spec = plan.procs[pi];
  switch (spec.kind) {
    case NetworkPlan::ProcKind::Input:
      fn(spec.chan_out, true);
      break;
    case NetworkPlan::ProcKind::Output:
      fn(spec.chan_in, false);
      break;
    case NetworkPlan::ProcKind::Pass:
      fn(spec.chan_in, false);
      fn(spec.chan_out, true);
      break;
    case NetworkPlan::ProcKind::Comp:
      for (std::size_t r = spec.role_begin; r < spec.role_end; ++r) {
        fn(plan.roles[r].chan_in, false);
        fn(plan.roles[r].chan_out, true);
      }
      break;
  }
}

/// The processes wired to one channel end, noted in process order: how
/// many distinct ones, and the first (the only one when there is one).
struct End {
  Int procs = 0;
  std::uint32_t first = 0;
  std::uint32_t last = 0;

  void note(std::uint32_t pi) {
    if (procs > 0 && last == pi) return;
    if (procs == 0) first = pi;
    last = pi;
    ++procs;
  }
};

/// Per-channel use tallies. Writers/readers are STRUCTURAL — every
/// process wired to the channel end, even when its count is 0 at this
/// problem size (null pipes are legal); sends/recvs count actual ops.
struct ChannelUse {
  End writers;
  End readers;
  Int sends = 0;
  Int recvs = 0;
};

/// Every process wired to one end of channel `c`, in process order.
std::string proc_list(const NetworkPlan& plan, std::size_t c, bool sending) {
  std::string out;
  for (std::uint32_t pi = 0; pi < plan.procs.size(); ++pi) {
    bool wired = false;
    for_each_end(plan, pi, [&](std::int32_t end, bool is_send) {
      wired = wired || (static_cast<std::size_t>(end) == c &&
                        is_send == sending);
    });
    if (!wired) continue;
    if (!out.empty()) out += ", ";
    out += proc_name(plan, pi);
  }
  return out;
}

/// Add every op of the bytecode to its channel's send/recv tally; the
/// repeater body counts LoopEnd.count times.
void tally_ops(const BytecodeProgram& prog, std::vector<ChannelUse>& use) {
  using Op = BytecodeProgram::Op;
  for (const BytecodeProgram::ProcCode& code : prog.procs) {
    // Walk backwards, so a LoopEnd is met before the body it repeats.
    Int reps = 1;
    std::uint32_t body_begin = code.end;
    for (std::uint32_t pc = code.end; pc-- > code.begin;) {
      const BytecodeProgram::Insn& insn = prog.code[pc];
      if (pc < body_begin) reps = 1;
      const Int times = reps * std::max<Int>(insn.count, 0);
      switch (insn.op) {
        case Op::SendIn:
          use[insn.a].sends += times;
          break;
        case Op::RecvOut:
          use[insn.a].recvs += times;
          break;
        case Op::Pass:
          use[insn.a].recvs += times;
          use[insn.b].sends += times;
          break;
        case Op::RecvReg:
          use[insn.a].recvs += reps;
          break;
        case Op::SendReg:
          use[insn.a].sends += reps;
          break;
        case Op::ParRecv:
        case Op::ParSend:
          for (std::int32_t j = insn.a; j < insn.a + insn.b; ++j) {
            ChannelUse& u = use[prog.par[j].chan];
            (insn.op == Op::ParSend ? u.sends : u.recvs) += reps;
          }
          break;
        case Op::LoopEnd:
          reps = insn.count;
          body_begin = pc - static_cast<std::uint32_t>(insn.b);
          break;
        case Op::Compute:
        case Op::Halt:
          break;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Abstract execution of the lowered program.

/// One channel in the abstract execution. The plan passed the channel
/// checks, so each side belongs to the one process the plan records, and
/// the ops parked on a side are the last ones that process's current
/// group posted there, in par-entry order (a hand-built plan's par set
/// may name one channel twice): a count says which.
struct ChanState {
  Int sends = 0;  ///< parked sends
  Int recvs = 0;  ///< parked receives
  Int buffered = 0;
  Int capacity = 0;
  std::uint32_t sender = 0;
  std::uint32_t receiver = 0;
};

/// A process's resume state, as in Vm::resume: the cursor advances
/// before an op parks, so a woken process continues with its next op.
struct ProcState {
  std::uint32_t pc = 0;
  Int iter = 0;                 ///< internal loop index of the current insn
  std::uint8_t phase = 0;       ///< Pass: 0 = recv next, 1 = send next
  Int loop_iter = 0;            ///< repeater trip counter
  Int pending = 0;              ///< parked ops of the current group
  std::int32_t wait_chan = -1;  ///< a parked single op's channel, or -1
  bool wait_send = false;       ///< ... and its direction
  std::uint32_t par_at = 0;     ///< a parked par set's insn
  Int groups_done = 0;          ///< completed ops and par sets: the time
  bool finished = false;
};

/// Retire the lowered program to quiescence: every process halts, or the
/// ones left are stuck on their parked ops.
class Retirement {
 public:
  Retirement(const NetworkPlan& plan, const BytecodeProgram& prog)
      : prog_(prog), procs_(plan.procs.size()), chans_(plan.channels.size()) {
    for (std::size_t c = 0; c < chans_.size(); ++c) {
      const NetworkPlan::ChannelSpec& spec = plan.channels[c];
      chans_[c].capacity = spec.capacity;
      chans_[c].sender = static_cast<std::uint32_t>(spec.sender);
      chans_[c].receiver = static_cast<std::uint32_t>(spec.receiver);
    }
    ready_.reserve(procs_.size());
    for (std::uint32_t pi = 0; pi < procs_.size(); ++pi) {
      procs_[pi].pc = prog.procs[pi].begin;
      ready_.push_back(pi);
    }
    while (!ready_.empty()) {
      const std::uint32_t pi = ready_.back();
      ready_.pop_back();
      resume(pi);
    }
  }

  [[nodiscard]] const std::vector<ProcState>& procs() const { return procs_; }
  [[nodiscard]] const std::vector<ChanState>& chans() const { return chans_; }

 private:
  /// Complete the op now, or park it. A send completes with a parked
  /// receiver or into buffer room, a recv from the buffer or with a
  /// parked sender; an op never overtakes one parked before it.
  bool send(std::int32_t c) {
    ChanState& ch = chans_[c];
    if (ch.sends == 0) {
      if (ch.recvs > 0) {
        --ch.recvs;
        complete(ch.receiver);
        return true;
      }
      if (ch.buffered < ch.capacity) {
        ++ch.buffered;
        return true;
      }
    }
    ++ch.sends;
    return false;
  }

  bool recv(std::int32_t c) {
    ChanState& ch = chans_[c];
    if (ch.recvs == 0 && (ch.buffered > 0 || ch.sends > 0)) {
      // A parked sender moves into the slot a buffered value frees, or
      // hands its value over directly.
      if (ch.sends > 0) {
        --ch.sends;
        complete(ch.sender);
      } else {
        --ch.buffered;
      }
      return true;
    }
    ++ch.recvs;
    return false;
  }

  /// A single op: complete it, or park the process on it.
  bool single(ProcState& p, std::int32_t c, bool is_send) {
    if (is_send ? send(c) : recv(c)) {
      ++p.groups_done;
      return true;
    }
    p.pending = 1;
    p.wait_chan = c;
    p.wait_send = is_send;
    return false;
  }

  void complete(std::uint32_t pi) {
    ProcState& st = procs_[pi];
    if (--st.pending == 0) {
      ++st.groups_done;
      ready_.push_back(pi);
    }
  }

  void resume(std::uint32_t pi);

  const BytecodeProgram& prog_;
  std::vector<ProcState> procs_;
  std::vector<ChanState> chans_;
  std::vector<std::uint32_t> ready_;
};

void Retirement::resume(std::uint32_t pi) {
  using Op = BytecodeProgram::Op;
  ProcState& p = procs_[pi];
  for (;;) {
    const BytecodeProgram::Insn& insn = prog_.code[p.pc];
    switch (insn.op) {
      case Op::SendIn:
      case Op::RecvOut:
        while (p.iter < insn.count) {
          ++p.iter;
          if (!single(p, insn.a, insn.op == Op::SendIn)) return;
        }
        p.iter = 0;
        ++p.pc;
        break;
      case Op::Pass:
        while (p.iter < insn.count) {
          if (p.phase == 0) {
            p.phase = 1;
            if (!single(p, insn.a, false)) return;
          }
          p.phase = 0;
          ++p.iter;
          if (!single(p, insn.b, true)) return;
        }
        p.iter = 0;
        ++p.pc;
        break;
      case Op::RecvReg:
      case Op::SendReg:
        ++p.pc;
        if (!single(p, insn.a, insn.op == Op::SendReg)) return;
        break;
      case Op::ParRecv:
      case Op::ParSend: {
        Int undone = 0;
        for (std::int32_t j = insn.a; j < insn.a + insn.b; ++j) {
          const std::int32_t c = prog_.par[j].chan;
          if (!(insn.op == Op::ParSend ? send(c) : recv(c))) ++undone;
        }
        if (undone > 0) {
          p.pending = undone;
          p.wait_chan = -1;
          p.par_at = p.pc++;
          return;
        }
        ++p.groups_done;
        ++p.pc;
        break;
      }
      case Op::Compute:
        ++p.pc;
        break;
      case Op::LoopEnd:
        if (++p.loop_iter < insn.count) {
          p.pc -= static_cast<std::uint32_t>(insn.b);
        } else {
          p.loop_iter = 0;
          ++p.pc;
        }
        break;
      case Op::Halt:
        p.finished = true;
        return;
    }
  }
}

/// The whole static deadlock analysis: retire the program; on a stuck
/// state with unfinished processes, build the wait-for report.
void check_deadlock(VerifyReport& report, const NetworkPlan& plan,
                    const BytecodeProgram& prog) {
  const Retirement run(plan, prog);
  const std::vector<ProcState>& ps = run.procs();
  std::size_t unfinished = 0;
  for (const ProcState& st : ps) unfinished += st.finished ? 0 : 1;
  if (unfinished == 0) return;  // provably deadlock-free

  // Stuck: reconstruct the runtime forensics. Blocked ops are the ops
  // still parked, in process order, then par-entry order; a blocked send
  // waits for the channel's receiver, a blocked recv for its sender.
  DeadlockReport dl;
  dl.reason = "deadlock";
  std::map<std::uint32_t, std::vector<std::pair<std::uint32_t, std::int32_t>>>
      adj;  // proc -> (wait-for proc, via channel)
  for (std::uint32_t pi = 0; pi < ps.size(); ++pi) {
    const ProcState& st = ps[pi];
    if (st.finished) continue;
    auto blocked_op = [&](std::int32_t c, bool is_send) {
      dl.blocked.push_back(BlockedOpState{proc_name(plan, pi),
                                          channel_name(plan, c),
                                          is_send ? "send" : "recv",
                                          st.groups_done, 0});
      const ChanState& ch = run.chans()[c];
      const std::uint32_t counterpart = is_send ? ch.receiver : ch.sender;
      if (counterpart != pi && !ps[counterpart].finished) {
        adj[pi].emplace_back(counterpart, c);
      }
    };
    if (st.wait_chan >= 0) {
      blocked_op(st.wait_chan, st.wait_send);
      continue;
    }
    const BytecodeProgram::Insn& insn = prog.code[st.par_at];
    const bool is_send = insn.op == BytecodeProgram::Op::ParSend;
    for (std::int32_t j = insn.a; j < insn.a + insn.b; ++j) {
      // A side's parked ops are the set's last ones on its channel.
      const std::int32_t c = prog.par[j].chan;
      Int later = 0;
      for (std::int32_t k = j + 1; k < insn.a + insn.b; ++k) {
        later += prog.par[k].chan == c ? 1 : 0;
      }
      const ChanState& ch = run.chans()[c];
      if (later < (is_send ? ch.sends : ch.recvs)) blocked_op(c, is_send);
    }
  }

  // Cycle extraction: the same three-colour DFS as the runtime watchdog,
  // over plan ids instead of Process pointers.
  std::map<std::uint32_t, int> color;  // 0 white, 1 gray, 2 black
  struct PathEntry {
    std::uint32_t proc;
    std::int32_t via_in;  ///< channel of the edge into `proc` (-1 at root)
  };
  std::vector<PathEntry> path;
  bool found = false;
  std::function<void(std::uint32_t)> dfs = [&](std::uint32_t u) {
    color[u] = 1;
    auto it = adj.find(u);
    if (it != adj.end()) {
      for (const auto& [to, via] : it->second) {
        if (found) return;
        if (color[to] == 0) {
          path.push_back({to, via});
          dfs(to);
          if (found) return;
          path.pop_back();
        } else if (color[to] == 1) {
          auto start = std::find_if(
              path.begin(), path.end(),
              [&](const PathEntry& pe) { return pe.proc == to; });
          for (auto pe = start; pe != path.end(); ++pe) {
            dl.cycle.push_back(proc_name(plan, pe->proc));
            auto next = pe + 1;
            dl.cycle_channels.push_back(channel_name(
                plan, next == path.end() ? via : next->via_in));
          }
          found = true;
          return;
        }
      }
    }
    color[u] = 2;
  };
  for (const auto& [proc, edges] : adj) {
    (void)edges;
    if (found) break;
    if (color[proc] == 0) {
      path.clear();
      path.push_back({proc, -1});
      dfs(proc);
    }
  }

  report.add(found ? "deadlock.cycle" : "deadlock.stuck", Severity::Error,
             "network",
             "the communication structure cannot complete: " +
                 std::to_string(unfinished) +
                 " process(es) block forever\n" + dl.to_string(),
             dl.to_json());
}

/// Referential integrity: everything after it, lowering included,
/// indexes blindly. False when a process references a channel or role
/// out of range.
bool check_refs(VerifyReport& report, const NetworkPlan& plan) {
  const std::size_t nchans = plan.channels.size();
  const auto chan_ok = [&](std::int32_t c) {
    return c >= 0 && static_cast<std::size_t>(c) < nchans;
  };
  bool refs_ok = true;
  for (std::uint32_t pi = 0; pi < plan.procs.size(); ++pi) {
    const NetworkPlan::ProcSpec& spec = plan.procs[pi];
    auto bad = [&](const std::string& what) {
      report.add("channel.bad-ref", Severity::Error, proc_name(plan, pi),
                 "process references " + what + " out of range");
      refs_ok = false;
    };
    const bool comp = spec.kind == NetworkPlan::ProcKind::Comp;
    if (comp && (spec.role_begin > spec.role_end ||
                 spec.role_end > plan.roles.size())) {
      bad("role slice");
      continue;
    }
    for_each_end(plan, pi, [&](std::int32_t c, bool is_send) {
      if (chan_ok(c)) return;
      bad(std::string(comp ? "role " : "") +
          (is_send ? "output channel" : "input channel"));
    });
  }
  return refs_ok;
}

/// Channel discipline, then static deadlock freedom, of a referentially
/// sound plan whose lowered program is `prog`.
void check_channels(VerifyReport& report, const NetworkPlan& plan,
                    const BytecodeProgram& prog) {
  // Gather per-channel usage: structural endpoints from the wiring (a
  // pass of count 0 lowers to no instruction but is still an endpoint),
  // op counts from the lowered program.
  const std::size_t nchans = plan.channels.size();
  std::vector<ChannelUse> use(nchans);
  for (std::uint32_t pi = 0; pi < plan.procs.size(); ++pi) {
    for_each_end(plan, pi, [&](std::int32_t c, bool is_send) {
      (is_send ? use[c].writers : use[c].readers).note(pi);
    });
  }
  tally_ops(prog, use);

  bool channels_ok = true;
  for (std::size_t c = 0; c < nchans; ++c) {
    const NetworkPlan::ChannelSpec& spec = plan.channels[c];
    const ChannelUse& u = use[c];
    auto add = [&](const char* rule, const std::string& message) {
      report.add(rule, Severity::Error, channel_name(plan, c), message);
      channels_ok = false;
    };
    if (u.writers.procs == 0 || u.readers.procs == 0) {
      add("channel.dangling",
          u.writers.procs == 0
              ? "no process is wired to this channel's sending end"
              : "no process is wired to this channel's receiving end");
      continue;
    }
    if (u.writers.procs > 1) {
      add("channel.multi-writer",
          "single-writer discipline violated: sends from " +
              proc_list(plan, c, true));
    }
    if (u.readers.procs > 1) {
      add("channel.multi-reader",
          "single-reader discipline violated: receives from " +
              proc_list(plan, c, false));
    }
    if (u.writers.procs == 1 &&
        static_cast<std::int32_t>(u.writers.first) != spec.sender) {
      add("channel.endpoint-mismatch",
          "recorded sender does not match the process that actually "
          "sends (" +
              proc_name(plan, u.writers.first) + ")");
    }
    if (u.readers.procs == 1 &&
        static_cast<std::int32_t>(u.readers.first) != spec.receiver) {
      add("channel.endpoint-mismatch",
          "recorded receiver does not match the process that actually "
          "receives (" +
              proc_name(plan, u.readers.first) + ")");
    }
    if (u.sends != u.recvs) {
      add("channel.count-mismatch",
          "conservation violated: " + std::to_string(u.sends) +
              " send(s) vs " + std::to_string(u.recvs) +
              " recv(s) over the whole run — the network cannot "
              "terminate cleanly");
    }
  }

  // Deadlock analysis only makes sense on a structurally sound network;
  // a count mismatch already implies a stuck process.
  if (channels_ok) check_deadlock(report, plan, prog);
}

}  // namespace

void verify_plan_into(VerifyReport& report, const NetworkPlan& plan) {
  if (check_refs(report, plan)) check_channels(report, plan, *lower_plan(plan));
}

VerifyReport verify_plan(const NetworkPlan& plan) {
  VerifyReport report;
  verify_plan_into(report, plan);
  return report;
}

VerifyReport verify_plan(const NetworkPlan& plan,
                         const BytecodeProgram& prog) {
  VerifyReport report;
  if (check_refs(report, plan)) check_channels(report, plan, prog);
  return report;
}

}  // namespace systolize

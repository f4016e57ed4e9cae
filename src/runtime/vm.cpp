#include "runtime/vm.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <utility>

#include "runtime/metrics.hpp"
#include "runtime/worker_pool.hpp"

// Threaded dispatch (GCC/Clang labels-as-values); the portable fallback
// compiles the same handler bodies under a switch.
#if defined(__GNUC__) || defined(__clang__)
#define SYSTOLIZE_VM_THREADED 1
#endif

namespace systolize {
namespace {

/// A parked communication: who, when it was issued, and where the value
/// lives. `loc >= 0` names a register; `loc < 0` encodes a flat element
/// offset as -(offset)-1 — into the in buffer for sends, out for recvs.
struct Parked {
  std::uint32_t proc = 0;
  std::int64_t loc = 0;
  Int issue = 0;
};

/// Channel state: pure rendezvous (the only shape execute() lowers), so
/// no buffer — and the plan's single-writer/single-reader structure means
/// at most one outstanding op per side, so parking is one slot, not a
/// vector.
struct VmChan {
  Parked send, recv;
  bool send_valid = false;
  bool recv_valid = false;
  Int transfers = 0;
};

/// Process resume state: the continuation is stored *before* a park, so
/// waking a process is just re-entering the dispatch loop at (pc, iter,
/// phase) — no coroutine frame, no handle, no blocked-on bookkeeping.
struct VmProc {
  std::uint32_t pc = 0;
  Int iter = 0;           ///< internal loop index of the current insn
  std::uint8_t phase = 0; ///< Pass: 0 = recv next, 1 = send next
  Int loop_iter = 0;      ///< repeater trip counter (one loop per proc)
  Int pending = 0;        ///< undone ops of the current par set
  Int time = 0;
  Int sends = 0;
  Int recvs = 0;
  Int statements = 0;
  bool finished = false;
  bool in_ready = false;
};

/// The values a run moves, shared by a walk and a replay: the lane-major
/// register file, the instance-major in/out buffers, and each computation
/// process's statement point and operand slots.
class Lanes {
 public:
  Lanes(const BytecodeProgram& prog, const NetworkPlan& plan, const Value* in,
        Value* out, std::size_t lane_stride, std::size_t lane_begin,
        std::size_t lane_end)
      : prog_(prog),
        plan_(plan),
        in_(in),
        out_(out),
        stride_(lane_stride),
        lane0_(lane_begin),
        nlanes_(lane_end - lane_begin) {
    regs_.assign(prog.num_regs * nlanes_, 0);
    comps_.resize(prog.comps.size());
    for (std::size_t i = 0; i < prog.comps.size(); ++i) {
      CompScratch& cs = comps_[i];
      cs.x = prog.comps[i].first_x;
      cs.vals.assign(plan.streams.size(), 0);
    }
  }

  // Both lane ops are forced inline, and the walk's recording hook is
  // kept out of line: otherwise GCC 12 -O3 stops inlining the ops into
  // Vm::resume and a plain walk runs about 9% slower (closure n=32,
  // BM_LowerAndWalk, pinned).

  /// Move all lanes of a rendezvous value from the sender's location to
  /// the receiver's. Lanes are contiguous in both views (instance-major
  /// layout), so this is one dense copy of the whole batch.
  [[gnu::always_inline]] void transfer(std::int64_t send_loc,
                                       std::int64_t recv_loc) {
    const Value* src = send_src(send_loc);
    Value* dst = recv_dst(recv_loc);
    for (std::size_t k = 0; k < nlanes_; ++k) dst[k] = src[k];
  }

  /// Run comp `comp`'s basic statement on every lane at its current
  /// point, then advance the point by the chord increment.
  [[gnu::always_inline]] void compute(std::size_t comp) {
    CompScratch& cs = comps_[comp];
    const BytecodeProgram::CompMeta& meta = prog_.comps[comp];
    const std::size_t nslots = meta.slot_reg.size();
    Value* vals = cs.vals.data();
    for (std::size_t k = 0; k < nlanes_; ++k) {
      for (std::size_t i = 0; i < nslots; ++i) {
        vals[meta.slot_stream[i]] =
            regs_[static_cast<std::size_t>(meta.slot_reg[i]) * nlanes_ + k];
      }
      plan_.body.apply(cs.x, vals);
      for (std::size_t i = 0; i < nslots; ++i) {
        regs_[static_cast<std::size_t>(meta.slot_reg[i]) * nlanes_ + k] =
            vals[meta.slot_stream[i]];
      }
    }
    cs.x += plan_.increment;
  }

 private:
  struct CompScratch {
    IntVec x;                 ///< current statement point of the chord
    std::vector<Value> vals;  ///< the statement's slots, by stream id
  };

  [[nodiscard]] const Value* send_src(std::int64_t loc) const {
    if (loc >= 0) {
      return regs_.data() + static_cast<std::size_t>(loc) * nlanes_;
    }
    return in_ + static_cast<std::size_t>(-(loc + 1)) * stride_ + lane0_;
  }

  [[nodiscard]] Value* recv_dst(std::int64_t loc) {
    if (loc >= 0) {
      return regs_.data() + static_cast<std::size_t>(loc) * nlanes_;
    }
    return out_ + static_cast<std::size_t>(-(loc + 1)) * stride_ + lane0_;
  }

  const BytecodeProgram& prog_;
  const NetworkPlan& plan_;
  const Value* in_;
  Value* out_;
  std::size_t stride_;
  std::size_t lane0_;
  std::size_t nlanes_;
  std::vector<Value> regs_;  ///< lane-major: regs_[r * nlanes_ + lane]
  std::vector<CompScratch> comps_;
};

class Vm {
 public:
  Vm(const BytecodeProgram& prog, const NetworkPlan& plan, const Value* in,
     Value* out, std::size_t lane_stride, std::size_t lane_begin,
     std::size_t lane_end, const VmRunOptions& opt)
      : prog_(prog),
        plan_(plan),
        lanes_(prog, plan, in, out, lane_stride, lane_begin, lane_end),
        max_entries_(opt.max_tape_entries) {
    procs_.resize(plan.procs.size());
    chans_.resize(plan.channels.size());
    if (opt.record != nullptr) {
      *opt.record = {};
      // A tape stores locations as int32 with kCompute reserved, so
      // registers and element offsets must stay below INT32_MAX.
      constexpr std::size_t kMaxLoc =
          std::numeric_limits<std::int32_t>::max();
      if (prog.num_regs <= kMaxLoc && plan.elems.size() <= kMaxLoc) {
        record_ = opt.record;
      }
    }
  }

  VmResult run(const VmRunOptions& opt) {
    const std::size_t nprocs = procs_.size();
    ready_.reserve(nprocs);
    batch_.reserve(nprocs);
    // Initial ready queue = spawn order, exactly as Scheduler::spawn
    // enqueues processes.
    for (std::uint32_t pid = 0; pid < nprocs; ++pid) {
      procs_[pid].pc = prog_.procs[pid].begin;
      make_ready(pid);
    }
    Int round = 0;
    while (!ready_.empty()) {
      if (opt.cancel != nullptr &&
          opt.cancel->load(std::memory_order_relaxed)) {
        raise_vm_stall(opt.cancel_reason, opt.cancel_kind);
      }
      if (opt.max_rounds > 0 && round >= opt.max_rounds) {
        raise_vm_stall("watchdog: round budget of " +
                           std::to_string(opt.max_rounds) +
                           " exhausted (livelock?)",
                       ErrorKind::Timeout);
      }
      // One round = the ready entries present at round start (the fast
      // scheduler's double-buffered batch boundary), so scheduler_rounds
      // matches the interpreted paths bit for bit.
      std::swap(ready_, batch_);
      for (std::uint32_t pid : batch_) {
        VmProc& p = procs_[pid];
        p.in_ready = false;
        if (p.finished) continue;
        resume(pid);
      }
      batch_.clear();
      ++round;
    }
    for (const VmProc& p : procs_) {
      if (!p.finished) raise_vm_stall("deadlock", ErrorKind::Runtime);
    }
    VmResult res;
    res.rounds = round;
    for (const VmProc& p : procs_) {
      res.makespan = std::max(res.makespan, p.time);
      res.statements += p.statements;
    }
    res.channel_transfers.reserve(chans_.size());
    for (const VmChan& c : chans_) {
      res.channel_transfers.push_back(c.transfers);
      res.total_transfers += c.transfers;
    }
    if (record_ != nullptr) {
      record_->entries.shrink_to_fit();
      record_->result = res;
    }
    return res;
  }

 private:
  void make_ready(std::uint32_t pid) {
    VmProc& p = procs_[pid];
    if (p.finished || p.in_ready) return;
    p.in_ready = true;
    ready_.push_back(pid);
  }

  /// Append one tape entry, or give the recording up once the tape would
  /// outgrow its cap.
  [[gnu::cold, gnu::noinline]] void note(std::int64_t from, std::int64_t to) {
    if (record_->entries.size() == max_entries_) {
      drop_record();
      return;
    }
    record_->entries.push_back(VmTape::Entry{static_cast<std::int32_t>(from),
                                             static_cast<std::int32_t>(to)});
  }

  void drop_record() {
    record_->entries = {};
    record_ = nullptr;
  }

  void transfer(std::int64_t send_loc, std::int64_t recv_loc) {
    if (record_ != nullptr) note(send_loc, recv_loc);
    lanes_.transfer(send_loc, recv_loc);
  }

  /// Attempt a send; on rendezvous both sides advance to
  /// max(issue times) + 1 — the exact clock math of Channel::try_complete.
  bool attempt_send(std::int32_t chan, VmProc& p, std::int64_t loc,
                    Int issue) {
    VmChan& ch = chans_[static_cast<std::size_t>(chan)];
    if (!ch.recv_valid) return false;
    const Int t = std::max(issue, ch.recv.issue) + 1;
    p.time = std::max(p.time, t);
    ++p.sends;
    ++ch.transfers;
    transfer(loc, ch.recv.loc);
    VmProc& r = procs_[ch.recv.proc];
    r.time = std::max(r.time, t);
    ++r.recvs;
    ch.recv_valid = false;
    if (--r.pending == 0) make_ready(ch.recv.proc);
    return true;
  }

  bool attempt_recv(std::int32_t chan, VmProc& p, std::int64_t loc,
                    Int issue) {
    VmChan& ch = chans_[static_cast<std::size_t>(chan)];
    if (!ch.send_valid) return false;
    const Int t = std::max(issue, ch.send.issue) + 1;
    transfer(ch.send.loc, loc);
    p.time = std::max(p.time, t);
    ++p.recvs;
    ++ch.transfers;
    VmProc& s = procs_[ch.send.proc];
    s.time = std::max(s.time, t);
    ++s.sends;
    ch.send_valid = false;
    if (--s.pending == 0) make_ready(ch.send.proc);
    return true;
  }

  void park_send(std::int32_t chan, std::uint32_t pid, std::int64_t loc,
                 Int issue) {
    VmChan& ch = chans_[static_cast<std::size_t>(chan)];
    ch.send = Parked{pid, loc, issue};
    ch.send_valid = true;
  }

  void park_recv(std::int32_t chan, std::uint32_t pid, std::int64_t loc,
                 Int issue) {
    VmChan& ch = chans_[static_cast<std::size_t>(chan)];
    ch.recv = Parked{pid, loc, issue};
    ch.recv_valid = true;
  }

  void resume(std::uint32_t pid);

  /// Drops any partial recording, then raises the stall's forensics.
  [[noreturn]] void raise_vm_stall(const std::string& reason,
                                   ErrorKind kind);

  const BytecodeProgram& prog_;
  const NetworkPlan& plan_;
  Lanes lanes_;
  VmTape* record_ = nullptr;  ///< the tape being recorded, if any
  std::size_t max_entries_;
  std::vector<VmProc> procs_;
  std::vector<VmChan> chans_;
  std::vector<std::uint32_t> ready_;
  std::vector<std::uint32_t> batch_;
};

#ifdef SYSTOLIZE_VM_THREADED
#define VM_DISPATCH()                                         \
  do {                                                        \
    insn = &code[p.pc];                                       \
    goto* kJump[static_cast<std::size_t>(insn->op)];          \
  } while (0)
#define VM_CASE(name) lab_##name:
#else
#define VM_DISPATCH() goto dispatch
#define VM_CASE(name) case BytecodeProgram::Op::name:
#endif

/// Run one process until it parks (a communication found no counterpart)
/// or halts. The continuation state (pc, iter, phase) is advanced BEFORE
/// any park, so re-entry after the counterpart completes the parked op
/// simply dispatches the next action.
void Vm::resume(std::uint32_t pid) {
  VmProc& p = procs_[pid];
  const BytecodeProgram::Insn* code = prog_.code.data();
  const BytecodeProgram::ParEntry* par = prog_.par.data();
  const BytecodeProgram::Insn* insn;
#ifdef SYSTOLIZE_VM_THREADED
  static const void* const kJump[] = {
      &&lab_SendIn, &&lab_RecvOut, &&lab_Pass,    &&lab_RecvReg,
      &&lab_SendReg, &&lab_ParRecv, &&lab_ParSend, &&lab_Compute,
      &&lab_LoopEnd, &&lab_Halt};
  VM_DISPATCH();
#else
dispatch:
  insn = &code[p.pc];
  switch (insn->op) {
#endif

  VM_CASE(SendIn) {
    while (p.iter < insn->count) {
      const Int issue = p.time;
      const std::int64_t loc =
          -(static_cast<std::int64_t>(insn->b) + p.iter) - 1;
      ++p.iter;
      if (!attempt_send(insn->a, p, loc, issue)) {
        park_send(insn->a, pid, loc, issue);
        p.pending = 1;
        return;
      }
    }
    p.iter = 0;
    ++p.pc;
  }
  VM_DISPATCH();

  VM_CASE(RecvOut) {
    while (p.iter < insn->count) {
      const Int issue = p.time;
      const std::int64_t loc =
          -(static_cast<std::int64_t>(insn->b) + p.iter) - 1;
      ++p.iter;
      if (!attempt_recv(insn->a, p, loc, issue)) {
        park_recv(insn->a, pid, loc, issue);
        p.pending = 1;
        return;
      }
    }
    p.iter = 0;
    ++p.pc;
  }
  VM_DISPATCH();

  VM_CASE(Pass) {
    while (p.iter < insn->count) {
      if (p.phase == 0) {
        const Int issue = p.time;
        p.phase = 1;
        if (!attempt_recv(insn->a, p, insn->c, issue)) {
          park_recv(insn->a, pid, insn->c, issue);
          p.pending = 1;
          return;
        }
      }
      const Int issue = p.time;
      p.phase = 0;
      ++p.iter;
      if (!attempt_send(insn->b, p, insn->c, issue)) {
        park_send(insn->b, pid, insn->c, issue);
        p.pending = 1;
        return;
      }
    }
    p.iter = 0;
    ++p.pc;
  }
  VM_DISPATCH();

  VM_CASE(RecvReg) {
    const Int issue = p.time;
    ++p.pc;
    if (!attempt_recv(insn->a, p, insn->c, issue)) {
      park_recv(insn->a, pid, insn->c, issue);
      p.pending = 1;
      return;
    }
  }
  VM_DISPATCH();

  VM_CASE(SendReg) {
    const Int issue = p.time;
    ++p.pc;
    if (!attempt_send(insn->a, p, insn->c, issue)) {
      park_send(insn->a, pid, insn->c, issue);
      p.pending = 1;
      return;
    }
  }
  VM_DISPATCH();

  VM_CASE(ParRecv) {
    // The whole set is issued at the owner's current time before any op
    // is attempted (CommAwaiter::await_ready's ordering: an earlier op's
    // rendezvous must not advance a later op's issue time).
    const Int now = p.time;
    Int undone = 0;
    for (std::int32_t j = 0; j < insn->b; ++j) {
      const BytecodeProgram::ParEntry& e = par[insn->a + j];
      if (!attempt_recv(e.chan, p, e.reg, now)) {
        park_recv(e.chan, pid, e.reg, now);
        ++undone;
      }
    }
    ++p.pc;
    if (undone > 0) {
      p.pending = undone;
      return;
    }
  }
  VM_DISPATCH();

  VM_CASE(ParSend) {
    const Int now = p.time;
    Int undone = 0;
    for (std::int32_t j = 0; j < insn->b; ++j) {
      const BytecodeProgram::ParEntry& e = par[insn->a + j];
      if (!attempt_send(e.chan, p, e.reg, now)) {
        park_send(e.chan, pid, e.reg, now);
        ++undone;
      }
    }
    ++p.pc;
    if (undone > 0) {
      p.pending = undone;
      return;
    }
  }
  VM_DISPATCH();

  VM_CASE(Compute) {
    if (record_ != nullptr) note(VmTape::kCompute, insn->a);
    lanes_.compute(static_cast<std::size_t>(insn->a));
    // tick_statement: the basic statement advances the clock by one.
    ++p.time;
    ++p.statements;
    ++p.pc;
  }
  VM_DISPATCH();

  VM_CASE(LoopEnd) {
    if (++p.loop_iter < insn->count) {
      p.pc -= static_cast<std::uint32_t>(insn->b);
    } else {
      p.loop_iter = 0;
      ++p.pc;
    }
  }
  VM_DISPATCH();

  VM_CASE(Halt) {
    p.finished = true;
    return;
  }

#ifndef SYSTOLIZE_VM_THREADED
  }
#endif
}

#undef VM_DISPATCH
#undef VM_CASE

void Vm::raise_vm_stall(const std::string& reason, ErrorKind kind) {
  if (record_ != nullptr) drop_record();
  // Rebuild the forensic wait-for state from the park slots: every
  // parked op becomes a BlockedOpState, and the first blocking cycle is
  // extracted by walking each blocked process to its channel counterpart
  // (the plan declares both endpoints of every channel).
  DeadlockReport report;
  report.reason = reason;
  struct Edge {
    std::int32_t next = -1;
    std::string channel;
  };
  std::map<std::uint32_t, Edge> waits;
  for (std::size_t c = 0; c < chans_.size(); ++c) {
    const VmChan& ch = chans_[c];
    const NetworkPlan::ChannelSpec& spec = plan_.channels[c];
    if (!ch.send_valid && !ch.recv_valid) continue;
    const std::string name = channel_name(plan_, c);
    if (ch.send_valid) {
      const VmProc& p = procs_[ch.send.proc];
      report.blocked.push_back(BlockedOpState{proc_name(plan_, ch.send.proc),
                                              name, "send", p.time,
                                              p.statements});
      waits.emplace(ch.send.proc, Edge{spec.receiver, name});
    }
    if (ch.recv_valid) {
      const VmProc& p = procs_[ch.recv.proc];
      report.blocked.push_back(BlockedOpState{proc_name(plan_, ch.recv.proc),
                                              name, "recv", p.time,
                                              p.statements});
      waits.emplace(ch.recv.proc, Edge{spec.sender, name});
    }
  }
  // Find one cycle in the wait-for graph (each node has out-degree <= 1
  // here, so a bounded walk from any node finds it).
  for (const auto& [start, edge] : waits) {
    (void)edge;
    std::vector<std::uint32_t> path;
    std::map<std::uint32_t, std::size_t> seen;
    std::uint32_t cur = start;
    for (;;) {
      auto it = waits.find(cur);
      if (it == waits.end() || it->second.next < 0) break;
      auto [pos, inserted] = seen.emplace(cur, path.size());
      if (!inserted) {
        for (std::size_t i = pos->second; i < path.size(); ++i) {
          report.cycle.push_back(proc_name(plan_, path[i]));
          report.cycle_channels.push_back(waits.at(path[i]).channel);
        }
        break;
      }
      path.push_back(cur);
      cur = static_cast<std::uint32_t>(it->second.next);
    }
    if (!report.cycle.empty()) break;
  }
  raise(kind, report.to_string(), report.to_json());
}

/// Run a recorded tape over the lanes: the walk's moves in the walk's
/// order, polling the cancel token every kReplayPoll entries.
VmResult replay_tape(const VmTape& tape, Lanes& lanes,
                     const VmRunOptions& opt) {
  const VmTape::Entry* entries = tape.entries.data();
  const std::size_t n = tape.entries.size();
  for (std::size_t i = 0; i < n;) {
    if (opt.cancel != nullptr && opt.cancel->load(std::memory_order_relaxed)) {
      // Nothing is parked mid-replay: the report names the tape position.
      DeadlockReport report;
      report.reason = opt.cancel_reason;
      report.tape_position = static_cast<Int>(i);
      report.tape_entries = static_cast<Int>(n);
      raise(opt.cancel_kind, report.to_string(), report.to_json());
    }
    for (const std::size_t end = std::min(n, i + kReplayPoll); i < end; ++i) {
      const VmTape::Entry& e = entries[i];
      if (e.from == VmTape::kCompute) {
        lanes.compute(static_cast<std::size_t>(e.to));
      } else {
        lanes.transfer(e.from, e.to);
      }
    }
  }
  return tape.result;
}

}  // namespace

std::size_t VmTape::memory_bytes() const {
  return sizeof(VmTape) + entries.capacity() * sizeof(Entry) +
         result.channel_transfers.capacity() * sizeof(Int);
}

VmResult run_vm(const BytecodeProgram& prog, const NetworkPlan& plan,
                const Value* in, Value* out, std::size_t lane_stride,
                std::size_t lane_begin, std::size_t lane_end,
                const VmRunOptions& opt) {
  if (opt.replay != nullptr) {
    Lanes lanes(prog, plan, in, out, lane_stride, lane_begin, lane_end);
    return replay_tape(*opt.replay, lanes, opt);
  }
  Vm vm(prog, plan, in, out, lane_stride, lane_begin, lane_end, opt);
  return vm.run(opt);
}

VmResult run_vm_batched(const BytecodeProgram& prog, const NetworkPlan& plan,
                        const Value* in, Value* out, std::size_t lanes,
                        unsigned threads, WorkerPool* pool,
                        const VmRunOptions& opt) {
  const auto workers = static_cast<unsigned>(
      std::min<std::size_t>(threads == 0 ? 1 : threads, lanes));
  if (workers <= 1) return run_vm(prog, plan, in, out, lanes, 0, lanes, opt);
  // Contiguous lane chunks; every chunk runs the full schedule over its
  // own lanes with private scalar state, so chunks never synchronize.
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  chunks.reserve(workers);
  const std::size_t base = lanes / workers;
  const std::size_t rem = lanes % workers;
  std::size_t lo = 0;
  for (unsigned w = 0; w < workers; ++w) {
    const std::size_t len = base + (w < rem ? 1 : 0);
    chunks.emplace_back(lo, lo + len);
    lo += len;
  }
  std::vector<std::exception_ptr> errors(workers);
  VmResult first;
  std::atomic<unsigned> next{0};
  // Only the first chunk records; every chunk runs the same schedule.
  VmRunOptions rest = opt;
  rest.record = nullptr;
  // Chunks are claimed off an atomic counter, not assigned by worker
  // index: WorkerPool participants that are never started simply leave
  // their share to whoever is running (the caller at minimum).
  const std::function<void(unsigned)> job = [&](unsigned) {
    for (unsigned c = next.fetch_add(1, std::memory_order_relaxed);
         c < workers; c = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        VmResult r = run_vm(prog, plan, in, out, lanes, chunks[c].first,
                            chunks[c].second, c == 0 ? opt : rest);
        if (c == 0) first = std::move(r);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    }
  };
  if (pool != nullptr) {
    pool->run(workers, job);
  } else {
    std::vector<std::thread> extra;
    extra.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) extra.emplace_back(job, w);
    job(0);
    for (std::thread& t : extra) t.join();
  }
  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return first;
}

}  // namespace systolize

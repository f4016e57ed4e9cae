// The distributed-memory substrate: asynchronously composed sequential
// processes with synchronous (rendezvous) channels — the execution model
// of Sect. 4, substituting for the paper's transputer networks.
//
// Processes are C++20 coroutines driven by a deterministic cooperative
// scheduler (FIFO ready queue). A logical clock assigns every rendezvous
// max(t_sender, t_receiver) + 1 and every basic statement +1, so the final
// maximum over all processes is the parallel makespan in systolic steps.
//
// The scheduler additionally counts cooperative *rounds* (one round =
// draining the ready entries present at round start). Rounds are the time
// base of the robustness layer: fault injection (runtime/faults) stalls
// processes and delays transfers in rounds, and the watchdog
// (runtime/watchdog) bounds rounds and per-process blocked time. Logical
// clocks are driven purely by the dataflow, so round-level perturbations
// never change results or makespan — only the interleaving.
//
// This is the reference and forensics engine: every option shape runs
// here (capacity, merged buffers, partitioning, tracing, faults,
// starvation bounds), while clean rendezvous runs take the bytecode VM
// (runtime/vm), which replays this scheduler's rounds op for op. Both
// step the plan's lowered bytecode (runtime/bytecode.hpp); here each
// process is one coroutine over its slice of the program
// (runtime/instantiate.cpp). One resume loop serves every run; its fault and watchdog hooks are a
// pointer or counter test each and are skipped when nothing is attached.
// Single sends and receives keep their CommOp inline in the awaiter
// (inside the coroutine frame — no heap allocation per communication),
// par sets can reuse caller-owned op storage across awaits, and the
// per-operation machinery — issue, rendezvous match, park — is defined
// inline in this header so it compiles into the coroutine bodies
// themselves (no out-of-line call per communication).
#pragma once

#include <algorithm>
#include <coroutine>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "loopnest/loop_nest.hpp"
#include "runtime/watchdog.hpp"

namespace systolize {

class Scheduler;
class Channel;
class FaultInjector;
struct Process;

/// One pending communication of a par set. Lives in the awaiter inside the
/// suspended coroutine frame (or in caller-owned frame storage for reused
/// par sets), so its address is stable while parked.
struct CommOp {
  Channel* chan = nullptr;
  bool is_send = false;
  Value value = 0;     ///< payload (send) or received value (recv)
  Value* out = nullptr;///< where a recv deposits its value (may be null)
  Process* proc = nullptr;
  Int issue_time = 0;  ///< owner's local time when the op was issued
  bool done = false;
  Int fault_delay = 0; ///< injected delay in rounds (0 = none)
};

/// Coroutine return object for process bodies.
class Task {
 public:
  struct promise_type {
    Process* proc = nullptr;
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept;
  };

  explicit Task(std::coroutine_handle<promise_type> h) : handle(h) {}
  std::coroutine_handle<promise_type> handle;
};

/// A logical clock. By default every process owns one; when several
/// processes are multiplexed onto one physical processor (partitioning,
/// the paper's Sect.-8 extension via its ref. [23]) they share a clock, so
/// their events serialize in the makespan model.
struct Clock {
  Int time = 0;
};

struct Process {
  std::string name;
  std::coroutine_handle<Task::promise_type> handle;
  Scheduler* sched = nullptr;
  Clock own_clock;
  Clock* clock = &own_clock;
  Int pending = 0;  ///< outstanding ops of the current par set
  bool finished = false;
  bool in_ready_queue = false;
  std::exception_ptr error;
  Int sends = 0;
  Int recvs = 0;
  Int statements = 0;
  /// Round the process last executed in (starvation watchdog).
  Int last_active_round = 0;
  // Injected-fault state, set by FaultInjector::on_spawn (-1 = no fault).
  Int fault_stall_round = -1;    ///< round the stall triggers at
  Int fault_stall_duration = 0;  ///< rounds the stall lasts
  bool fault_stall_served = false;
  Int fault_kill_at = -1;        ///< die at this (1-based) statement
  bool killed = false;           ///< terminated by an injected kill

  [[nodiscard]] Int time() const noexcept { return clock->time; }
  void advance_to(Int t) noexcept { clock->time = std::max(clock->time, t); }
};

class CommAwaiter;

/// Handle passed to process bodies: communication and clock primitives.
class Ctx {
 public:
  Ctx() = default;
  Ctx(Scheduler* sched, Process* proc) : sched_(sched), proc_(proc) {}

  [[nodiscard]] CommAwaiter send(Channel& chan, Value v);
  [[nodiscard]] CommAwaiter recv(Channel& chan, Value& out);
  /// Par composition of communications (the paper's `par` around the basic
  /// statement's receives/sends).
  [[nodiscard]] CommAwaiter par(std::vector<CommOp> ops);
  /// Par composition over caller-owned ops (typically locals of the
  /// calling coroutine, rebuilt or refreshed between awaits). Avoids the
  /// per-await vector allocation of the owning overload; the storage must
  /// stay alive until the await completes.
  [[nodiscard]] CommAwaiter par(CommOp* ops, std::size_t count);

  [[nodiscard]] CommOp send_op(Channel& chan, Value v) const;
  [[nodiscard]] CommOp recv_op(Channel& chan, Value& out) const;

  /// Advance the local clock by one step (a basic-statement execution).
  /// Fires an injected kill when the process reaches its doomed statement.
  void tick_statement();

  [[nodiscard]] Process& process() const { return *proc_; }

 private:
  void tick_kill();  ///< out-of-line kill service (scheduler.cpp)

  Scheduler* sched_ = nullptr;
  Process* proc_ = nullptr;
};

/// Awaitable performing a whole par set of sends/receives; completes when
/// every op has transferred. A single-element set is an ordinary
/// synchronous send or receive and keeps its op inline (no allocation).
class CommAwaiter {
 public:
  /// Single send/receive; the op lives inside the awaiter.
  CommAwaiter(Ctx ctx, const CommOp& op)
      : ctx_(ctx), single_(op), ops_(&single_), count_(1) {}
  /// Par set over caller-owned storage (not copied).
  CommAwaiter(Ctx ctx, CommOp* ops, std::size_t count)
      : ctx_(ctx), ops_(ops), count_(count) {}
  /// Par set owning its ops.
  CommAwaiter(Ctx ctx, std::vector<CommOp> ops)
      : ctx_(ctx),
        owned_(std::move(ops)),
        ops_(owned_.data()),
        count_(owned_.size()) {}

  // The awaiter hands out pointers into itself (ops_ may alias single_),
  // so it must be awaited where it was materialized.
  CommAwaiter(const CommAwaiter&) = delete;
  CommAwaiter& operator=(const CommAwaiter&) = delete;

  [[nodiscard]] bool await_ready();
  void await_suspend(std::coroutine_handle<> h);
  void await_resume();

 private:
  /// Injected-delay rolls (out of line in scheduler.cpp; only runs with a
  /// fault injector attached).
  [[nodiscard]] bool ready_faulted();

  Ctx ctx_;
  std::vector<CommOp> owned_;
  CommOp single_;
  CommOp* ops_ = nullptr;
  std::size_t count_ = 0;
};

/// Synchronous channel (optionally with a small FIFO buffer when
/// `capacity > 0`; the paper's model is capacity 0 — pure rendezvous).
class Channel {
 public:
  Channel(std::string name, Scheduler* sched, Int capacity = 0)
      : name_(std::move(name)), sched_(sched), capacity_(capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Int transfers() const noexcept { return transfers_; }
  [[nodiscard]] Scheduler* scheduler() const noexcept { return sched_; }

  /// Attempt the op now; true if it completed without parking.
  bool try_complete(CommOp& op);
  /// Park the op until a partner arrives.
  void park(CommOp& op);
  /// Pair mutually-parked ops (and drain the buffer into parked
  /// receivers). Only injected delays can leave both sides parked, so
  /// this is a no-op on fault-free runs.
  void match_parked();

  // --- forensic access (deadlock reports) ---
  [[nodiscard]] const std::vector<CommOp*>& parked_senders() const noexcept {
    return senders_;
  }
  [[nodiscard]] const std::vector<CommOp*>& parked_receivers() const noexcept {
    return receivers_;
  }
  /// Last process seen on each side (the wait-for counterpart even when
  /// that side is not currently parked).
  [[nodiscard]] Process* known_sender() const noexcept {
    return known_sender_;
  }
  [[nodiscard]] Process* known_receiver() const noexcept {
    return known_receiver_;
  }
  /// Declare the process that will sit on a side of this channel, so the
  /// deadlock forensics can follow wait-for edges through processes that
  /// have not yet touched the channel (in a rendezvous cycle, the
  /// counterpart of a parked op typically never reached it). The
  /// instantiation layer declares both endpoints of every channel;
  /// hand-built networks may skip this — forensics then falls back to
  /// observed use, and the cycle may be reported empty.
  void declare_sender(Process& p) noexcept { known_sender_ = &p; }
  void declare_receiver(Process& p) noexcept { known_receiver_ = &p; }

 private:
  struct Stamped {
    Value value;
    Int time;
  };

  void complete_counterpart(CommOp& op, Value v, Int time);
  /// Post-transfer fault hook: may ghost-deliver the value a second time.
  /// The inline shell only pays a pointer test on fault-free runs.
  void after_transfer(Value v, Int time);
  void after_transfer_slow(Value v, Int time);  ///< scheduler.cpp

  // --- flat FIFO over a vector (no allocation until first buffering) ---
  [[nodiscard]] bool buffer_empty() const noexcept {
    return buffer_head_ == buffer_.size();
  }
  [[nodiscard]] Int buffer_size() const noexcept {
    return static_cast<Int>(buffer_.size() - buffer_head_);
  }
  void buffer_push(Stamped s) { buffer_.push_back(s); }
  Stamped buffer_pop() {
    Stamped s = buffer_[buffer_head_++];
    if (buffer_head_ == buffer_.size()) {
      buffer_.clear();
      buffer_head_ = 0;
    }
    return s;
  }

  std::string name_;
  Scheduler* sched_;
  Int capacity_;
  /// Buffered values as a vector + head cursor instead of a deque: a
  /// capacity-0 rendezvous channel never allocates, and the common
  /// buffered case (drained every round) resets to empty instead of
  /// shuffling deque nodes.
  std::vector<Stamped> buffer_;
  std::size_t buffer_head_ = 0;
  std::vector<CommOp*> senders_;
  std::vector<CommOp*> receivers_;
  Int transfers_ = 0;
  Process* known_sender_ = nullptr;
  Process* known_receiver_ = nullptr;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  /// Create a process; `body` is called immediately to build the coroutine
  /// (suspended until run()). When `clock` is non-null the process shares
  /// it (processor multiplexing); it must outlive the scheduler run.
  /// Processes live in a chunked arena (a deque), so their addresses are
  /// stable and spawning performs no per-process allocation beyond the
  /// coroutine frame itself.
  template <class Body>
  Process& spawn(std::string name, const Body& body, Clock* clock = nullptr) {
    Process& ref = processes_.emplace_back();
    ref.name = std::move(name);
    ref.sched = this;
    if (clock != nullptr) ref.clock = clock;
    Task task = body(Ctx(this, &ref));
    ref.handle = task.handle;
    task.handle.promise().proc = &ref;
    finish_spawn(ref);
    return ref;
  }

  /// Create a channel owned by the scheduler (same chunked-arena storage
  /// as processes: stable addresses, no per-channel heap node).
  Channel& make_channel(std::string name, Int capacity = 0);

  /// Run to completion. Throws Error(Runtime) with a forensic deadlock
  /// report on stall or watchdog expiry, and rethrows the first process
  /// exception.
  void run();

  void make_ready(Process& proc) {
    if (proc.finished || proc.in_ready_queue) return;
    proc.in_ready_queue = true;
    ready_.push_back(&proc);
  }

  /// Attach a fault injector for the next run (nullptr = none). The
  /// injector must outlive the run.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  [[nodiscard]] FaultInjector* injector() const noexcept { return injector_; }

  void set_watchdog(const WatchdogConfig& config) { watchdog_ = config; }

  /// Hold a parked-to-be op out of its channel for `delay` rounds
  /// (injected transfer delay); called from the comm awaiter.
  void defer_op(CommOp& op, Int delay);

  [[nodiscard]] Int round() const noexcept { return round_; }

  [[nodiscard]] const std::deque<Process>& processes() const noexcept {
    return processes_;
  }
  [[nodiscard]] std::deque<Process>& processes() noexcept {
    return processes_;
  }
  [[nodiscard]] std::size_t channel_count() const noexcept {
    return channels_.size();
  }
  [[nodiscard]] const std::deque<Channel>& channels() const noexcept {
    return channels_;
  }
  /// Ops currently held by an injected delay (forensic access).
  [[nodiscard]] const std::multimap<Int, CommOp*>& delayed_ops()
      const noexcept {
    return delayed_;
  }
  /// Processes currently held by an injected stall (forensic access).
  [[nodiscard]] const std::multimap<Int, Process*>& stalled_processes()
      const noexcept {
    return stalled_;
  }
  [[nodiscard]] Int total_transfers() const;
  [[nodiscard]] Int makespan() const;

 private:
  /// Injector spawn hook + initial enqueue (out-of-line half of spawn).
  void finish_spawn(Process& ref);
  /// Re-queue stalled processes and re-offer delayed ops whose release
  /// round has arrived.
  void release_due();
  /// Starvation watchdog: trip when a blocked process has been inactive
  /// for more than max_blocked_rounds while the scheduler still turns.
  void check_starvation();

  std::deque<Process> processes_;
  std::deque<Channel> channels_;
  /// Double-buffered flat ready queue: make_ready appends to ready_; a
  /// round swaps it into batch_ and drains the batch, so "one round = the
  /// entries present at round start" with no deque churn.
  std::vector<Process*> ready_;
  std::vector<Process*> batch_;
  std::multimap<Int, Process*> stalled_;  ///< release round -> process
  std::multimap<Int, CommOp*> delayed_;   ///< release round -> held op
  FaultInjector* injector_ = nullptr;
  WatchdogConfig watchdog_;
  Int round_ = 0;
};

// ---------------------------------------------------------------------
// Inline communication path. Everything below is the per-communication
// machinery of the resume loop; defining it here lets it compile directly
// into the coroutine bodies (measured ~35% of relay-chain time was spent
// crossing these as out-of-line calls).

inline void Channel::complete_counterpart(CommOp& op, Value v, Int time) {
  // `op` is a *parked* op of another process: finish it at logical time
  // `time` and wake its owner when its whole par set is done.
  if (!op.is_send) {
    op.value = v;
    if (op.out != nullptr) *op.out = v;
  }
  Process& p = *op.proc;
  p.advance_to(time);
  op.done = true;
  if (op.is_send) {
    ++p.sends;
  } else {
    ++p.recvs;
  }
  if (--p.pending == 0) p.sched->make_ready(p);
}

inline void Channel::after_transfer(Value v, Int time) {
  if (sched_ == nullptr || sched_->injector() == nullptr) return;
  after_transfer_slow(v, time);
}

inline bool Channel::try_complete(CommOp& op) {
  Process& self = *op.proc;
  (op.is_send ? known_sender_ : known_receiver_) = &self;
  if (op.is_send) {
    if (!receivers_.empty()) {
      CommOp* r = receivers_.front();
      receivers_.erase(receivers_.begin());
      // Rendezvous: both sides advance to max(issue times) + 1.
      Int t = std::max(op.issue_time, r->issue_time) + 1;
      self.advance_to(t);
      ++self.sends;
      ++transfers_;
      op.done = true;
      complete_counterpart(*r, op.value, t);
      after_transfer(op.value, t);
      return true;
    }
    if (buffer_size() < capacity_) {
      // Buffered hand-off: the value leaves the sender one step later.
      self.advance_to(op.issue_time + 1);
      buffer_push(Stamped{op.value, self.time()});
      ++self.sends;
      ++transfers_;
      op.done = true;
      after_transfer(op.value, self.time());
      return true;
    }
    return false;
  }
  // Receive.
  if (!buffer_empty()) {
    Stamped s = buffer_pop();
    op.value = s.value;
    if (op.out != nullptr) *op.out = s.value;
    self.advance_to(std::max(op.issue_time + 1, s.time));
    ++self.recvs;
    op.done = true;
    // A parked sender may now fit into the freed buffer slot.
    if (!senders_.empty() && buffer_size() < capacity_) {
      CommOp* snd = senders_.front();
      senders_.erase(senders_.begin());
      Int t = snd->issue_time + 1;
      buffer_push(Stamped{snd->value, t});
      ++transfers_;
      complete_counterpart(*snd, snd->value, t);
      after_transfer(snd->value, t);
    }
    return true;
  }
  if (!senders_.empty()) {
    CommOp* snd = senders_.front();
    senders_.erase(senders_.begin());
    Int t = std::max(op.issue_time, snd->issue_time) + 1;
    op.value = snd->value;
    if (op.out != nullptr) *op.out = snd->value;
    self.advance_to(t);
    ++self.recvs;
    op.done = true;
    ++transfers_;
    complete_counterpart(*snd, snd->value, t);
    after_transfer(snd->value, t);
    return true;
  }
  return false;
}

inline void Channel::park(CommOp& op) {
  (op.is_send ? known_sender_ : known_receiver_) = op.proc;
  (op.is_send ? senders_ : receivers_).push_back(&op);
}

inline bool CommAwaiter::await_ready() {
  Process& p = ctx_.process();
  Scheduler* sched = p.sched;
  const Int now = p.time();
  // Issue the whole par set at the owner's current local time before any
  // op is attempted (an earlier op's rendezvous must not advance the
  // issue time of a later op in the same set).
  for (std::size_t i = 0; i < count_; ++i) {
    CommOp& op = ops_[i];
    op.proc = &p;
    op.issue_time = now;
    op.done = false;
    op.fault_delay = 0;
  }
  if (sched->injector() != nullptr) return ready_faulted();
  bool all = true;
  for (std::size_t i = 0; i < count_; ++i) {
    CommOp& op = ops_[i];
    if (!op.chan->try_complete(op)) all = false;
  }
  return all;
}

inline void CommAwaiter::await_suspend(std::coroutine_handle<> h) {
  (void)h;  // the scheduler resumes via the process handle
  Process& p = ctx_.process();
  // Count and park the unfinished ops. Transfers completed after parking
  // (by partners) decrement `pending`; the partner's completion path
  // re-queues this process at zero. Only an injected delay holds an op
  // out of its channel (the scheduler re-offers it when the delay ends).
  p.pending = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    CommOp& op = ops_[i];
    if (op.done) continue;
    ++p.pending;
    if (op.fault_delay > 0) {
      p.sched->defer_op(op, op.fault_delay);
    } else {
      op.chan->park(op);
    }
  }
}

inline void CommAwaiter::await_resume() {
  // A par set completes only when its slowest member does; the per-op
  // times were already folded into the process clock.
}

inline CommOp Ctx::send_op(Channel& chan, Value v) const {
  CommOp op;
  op.chan = &chan;
  op.is_send = true;
  op.value = v;
  op.proc = proc_;
  return op;
}

inline CommOp Ctx::recv_op(Channel& chan, Value& out) const {
  CommOp op;
  op.chan = &chan;
  op.is_send = false;
  op.out = &out;
  op.proc = proc_;
  return op;
}

inline CommAwaiter Ctx::send(Channel& chan, Value v) {
  return CommAwaiter(*this, send_op(chan, v));
}

inline CommAwaiter Ctx::recv(Channel& chan, Value& out) {
  return CommAwaiter(*this, recv_op(chan, out));
}

inline CommAwaiter Ctx::par(std::vector<CommOp> ops) {
  return CommAwaiter(*this, std::move(ops));
}

inline CommAwaiter Ctx::par(CommOp* ops, std::size_t count) {
  return CommAwaiter(*this, ops, count);
}

inline void Ctx::tick_statement() {
  ++proc_->clock->time;
  ++proc_->statements;
  if (proc_->fault_kill_at >= 0 &&
      proc_->statements == proc_->fault_kill_at) {
    tick_kill();  // throws ProcessKilledSignal
  }
}

}  // namespace systolize

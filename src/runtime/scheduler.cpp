#include "runtime/scheduler.hpp"

#include <limits>

#include "runtime/faults.hpp"
#include "support/error.hpp"

namespace systolize {

void Task::promise_type::unhandled_exception() noexcept {
  if (proc != nullptr) proc->error = std::current_exception();
}

// ---------------------------------------------------------------- Channel
//
// The communication machinery (try_complete, park, complete_counterpart
// and the after_transfer shell) is defined inline in scheduler.hpp; this
// file keeps only the slow halves that run with faults attached.

namespace {

/// FIFO pop from the front of a flat parked-op vector. Parked queues are
/// almost always length 0 or 1 (a rendezvous parks at most one side), so
/// the O(n) erase never sees a meaningful n.
CommOp* pop_front(std::vector<CommOp*>& q) {
  CommOp* op = q.front();
  q.erase(q.begin());
  return op;
}

}  // namespace

void Channel::after_transfer_slow(Value v, Int time) {
  if (sched_->injector()->roll_duplicate(*this, transfers_ - 1)) {
    // Ghost delivery: the value re-enters the channel as if sent a second
    // time. The next receive consumes it, shifting the stream — the
    // protocol breakage the resilience harness must then catch.
    buffer_push(Stamped{v, time});
  }
}

void Channel::match_parked() {
  // Only injected delays can park both sides of a channel simultaneously
  // (an arriving op always matches a parked counterpart in try_complete),
  // so this runs only when a delayed op is finally released.
  for (bool progress = true; progress;) {
    progress = false;
    // Parked receivers drain buffered values first (FIFO order).
    while (!receivers_.empty() && !buffer_empty()) {
      CommOp* r = pop_front(receivers_);
      Stamped s = buffer_pop();
      complete_counterpart(*r, s.value, std::max(r->issue_time + 1, s.time));
      progress = true;
    }
    // Direct rendezvous between mutually parked ops.
    while (!senders_.empty() && !receivers_.empty()) {
      CommOp* snd = pop_front(senders_);
      CommOp* r = pop_front(receivers_);
      Int t = std::max(snd->issue_time, r->issue_time) + 1;
      ++transfers_;
      Value v = snd->value;
      complete_counterpart(*snd, v, t);
      complete_counterpart(*r, v, t);
      after_transfer(v, t);
      progress = true;
    }
    // A parked sender moves into free buffer space.
    while (!senders_.empty() && buffer_size() < capacity_) {
      CommOp* snd = pop_front(senders_);
      Int t = snd->issue_time + 1;
      buffer_push(Stamped{snd->value, t});
      ++transfers_;
      complete_counterpart(*snd, snd->value, t);
      after_transfer(snd->value, t);
      progress = true;
    }
  }
}

// ----------------------------------------------------------- CommAwaiter

bool CommAwaiter::ready_faulted() {
  // Ops were already issued by the inline await_ready. Roll injected
  // transfer delays once per issued op; a delayed op is forced to suspend
  // and is offered to its channel only after the delay elapses
  // (await_suspend hands it to the scheduler).
  FaultInjector* inj = ctx_.process().sched->injector();
  for (std::size_t i = 0; i < count_; ++i) {
    ops_[i].fault_delay = inj->roll_delay(*ops_[i].chan);
  }
  bool all = true;
  for (std::size_t i = 0; i < count_; ++i) {
    CommOp& op = ops_[i];
    if (op.fault_delay > 0) {
      all = false;
      continue;
    }
    if (!op.chan->try_complete(op)) all = false;
  }
  return all;
}

void Ctx::tick_kill() {
  proc_->killed = true;
  if (sched_->injector() != nullptr) {
    sched_->injector()->record(FaultKind::Kill, proc_->name,
                               proc_->statements);
  }
  throw ProcessKilledSignal{};
}

// ------------------------------------------------------------- Scheduler

Scheduler::~Scheduler() {
  for (Process& p : processes_) {
    if (p.handle) p.handle.destroy();
  }
}

void Scheduler::finish_spawn(Process& ref) {
  if (injector_ != nullptr) injector_->on_spawn(ref);
  make_ready(ref);
}

Channel& Scheduler::make_channel(std::string name, Int capacity) {
  return channels_.emplace_back(std::move(name), this, capacity);
}

void Scheduler::defer_op(CommOp& op, Int delay) {
  delayed_.emplace(round_ + delay, &op);
}

void Scheduler::release_due() {
  while (!stalled_.empty() && stalled_.begin()->first <= round_) {
    Process* proc = stalled_.begin()->second;
    stalled_.erase(stalled_.begin());
    // Still flagged in_ready_queue (it was queued the whole time, just
    // elsewhere), so re-insert directly.
    ready_.push_back(proc);
  }
  while (!delayed_.empty() && delayed_.begin()->first <= round_) {
    CommOp* op = delayed_.begin()->second;
    delayed_.erase(delayed_.begin());
    op->chan->park(*op);
    // Its partner may have parked in the meantime: pair them up now.
    op->chan->match_parked();
  }
}

void Scheduler::check_starvation() {
  for (const Process& p : processes_) {
    if (p.finished || p.in_ready_queue) continue;
    if (round_ - p.last_active_round > watchdog_.max_blocked_rounds) {
      raise_stall(*this, "watchdog: process '" + p.name +
                             "' blocked for more than " +
                             std::to_string(watchdog_.max_blocked_rounds) +
                             " rounds (starvation)",
                  ErrorKind::Timeout);
    }
  }
}

void Scheduler::run() {
  round_ = 0;
  for (;;) {
    // External cancellation (wall-clock deadline, shutdown): checked at
    // every round boundary, including the fault fast-forward path below,
    // so a cancelled run aborts within one round with full forensics.
    if (watchdog_.cancel != nullptr &&
        watchdog_.cancel->load(std::memory_order_relaxed)) {
      raise_stall(*this, watchdog_.cancel_reason, watchdog_.cancel_kind);
    }
    release_due();
    if (ready_.empty()) {
      if (stalled_.empty() && delayed_.empty()) break;
      // Nothing runnable, but injected faults hold work: jump to the
      // next release round (fault durations are finite, so this always
      // terminates).
      Int next = std::numeric_limits<Int>::max();
      if (!stalled_.empty()) next = std::min(next, stalled_.begin()->first);
      if (!delayed_.empty()) next = std::min(next, delayed_.begin()->first);
      round_ = next;
      continue;
    }
    if (watchdog_.max_rounds > 0 && round_ >= watchdog_.max_rounds) {
      raise_stall(*this, "watchdog: round budget of " +
                             std::to_string(watchdog_.max_rounds) +
                             " exhausted (livelock?)",
                  ErrorKind::Timeout);
    }
    // One round = the ready entries present at round start; processes
    // made ready during the round run in the next one. The order is the
    // same FIFO order as before rounds existed — the boundary only
    // defines the time base for stalls, delays and the watchdog.
    std::swap(ready_, batch_);
    for (Process* proc : batch_) {
      if (proc->finished) {
        proc->in_ready_queue = false;
        continue;
      }
      if (proc->fault_stall_round >= 0 && !proc->fault_stall_served &&
          round_ >= proc->fault_stall_round) {
        // Injected stall: hold the process out of the queue for its
        // duration; in_ready_queue stays set (it is queued, elsewhere).
        proc->fault_stall_served = true;
        if (injector_ != nullptr) {
          injector_->record(FaultKind::Stall, proc->name,
                            proc->fault_stall_duration);
        }
        stalled_.emplace(round_ + proc->fault_stall_duration, proc);
        continue;
      }
      proc->in_ready_queue = false;
      proc->last_active_round = round_;
      proc->handle.resume();
      if (proc->error) {
        if (proc->killed) {
          // An injected kill unwound the coroutine with a private
          // signal: the process is dead but the run continues, so the
          // rest of the network's failure can be observed and diagnosed.
          proc->error = nullptr;
          proc->finished = true;
          continue;
        }
        std::rethrow_exception(proc->error);
      }
      if (proc->handle.done()) proc->finished = true;
    }
    batch_.clear();
    if (watchdog_.max_blocked_rounds > 0) check_starvation();
    ++round_;
  }
  // All ready work drained: either everything finished or we deadlocked.
  for (const Process& p : processes_) {
    if (!p.finished) raise_stall(*this, "deadlock");
  }
}

Int Scheduler::total_transfers() const {
  Int total = 0;
  for (const Channel& c : channels_) total += c.transfers();
  return total;
}

Int Scheduler::makespan() const {
  Int m = 0;
  for (const Process& p : processes_) m = std::max(m, p.time());
  return m;
}

}  // namespace systolize

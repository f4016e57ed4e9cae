// Progress watchdog and deadlock forensics for the scheduler.
//
// The runtime's original deadlock detector fired only when the ready
// queue drained with processes still unfinished, and reported one line.
// This layer adds (a) hard bounds that turn livelock and starvation —
// which never drain the queue — into structured errors, and (b) a
// forensic pass that, on any stall, reconstructs the wait-for graph from
// the parked communication ops, extracts the blocking cycle, and reports
// per-process state both human-readably (the Error message) and as JSON
// (the Error's diagnostic payload).
//
// Both engines honour the round budget and the cancel token at their
// round boundaries, so a watchdog alone keeps a run on the bytecode VM.
// The per-process starvation bound is the interpreter's alone.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "runtime/metrics.hpp"
#include "support/error.hpp"

namespace systolize {

class Scheduler;

/// Progress bounds enforced by the scheduler each round. Zero disables a
/// bound. With both disabled and no cancel token the scheduler behaves
/// exactly as before: stalls are only detected when the ready queue
/// drains.
struct WatchdogConfig {
  /// Abort when the scheduler exceeds this many cooperative rounds
  /// (livelock guard: a finite program on a finite network bounds its
  /// rounds by statements + transfers).
  Int max_rounds = 0;
  /// Abort when a live, runnable-in-principle process has not executed
  /// for this many consecutive rounds while others still run (starvation
  /// guard). Must exceed any injected stall/delay duration, which park a
  /// process legitimately.
  Int max_blocked_rounds = 0;
  /// External cancellation token: when non-null and set, the run aborts
  /// at the next round boundary with Error(cancel_kind) and a full
  /// forensic report of where every process stood. This is how wall-clock
  /// deadlines reach the scheduler — a timer thread sets the flag, the
  /// scheduler notices between rounds (it never blocks inside a round, so
  /// the check granularity is one cooperative round). A replayed VM run
  /// (runtime/vm.hpp) checks every kReplayPoll tape entries and reports
  /// its tape position instead. The pointee must outlive the run.
  const std::atomic<bool>* cancel = nullptr;
  /// Reason string reported when `cancel` fires (e.g. the deadline that
  /// expired); kind classifies it — Timeout for deadlines (retryable),
  /// Cancelled for shutdown (terminal).
  std::string cancel_reason = "externally cancelled";
  ErrorKind cancel_kind = ErrorKind::Cancelled;
};

/// Reconstruct the stall state: every parked/held op per blocked process,
/// and one blocking cycle of the wait-for graph if there is one. A
/// blocked process waits on the counterpart of each channel it is parked
/// on; the counterpart is whichever live process is parked on — or last
/// used — the channel's other side.
/// (The bytecode VM builds its own report over dense plan ids — see
/// runtime/vm.cpp — with the same rendering.)
[[nodiscard]] DeadlockReport build_deadlock_report(const Scheduler& sched,
                                                   std::string reason);

/// Build the report and raise Error(kind) with the human-readable
/// rendering as the message and the JSON rendering as the diagnostic.
/// Genuine protocol stalls are ErrorKind::Runtime; watchdog budget trips
/// raise Timeout and external cancellation raises the token's kind, so
/// callers (and the service's retry policy) can tell a deadline from a
/// deadlock without string-matching.
[[noreturn]] void raise_stall(const Scheduler& sched, std::string reason,
                              ErrorKind kind = ErrorKind::Runtime);

}  // namespace systolize

// Execution metrics and forensic reports produced by the simulator.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "numeric/checked.hpp"

namespace systolize {

struct RunMetrics {
  Int makespan = 0;          ///< logical parallel time (max local clock)
  Int total_transfers = 0;   ///< messages moved across all channels
  Int statements = 0;        ///< basic statements executed
  std::size_t process_count = 0;
  std::size_t channel_count = 0;
  std::size_t computation_processes = 0;
  std::size_t io_processes = 0;
  std::size_t buffer_processes = 0;  ///< external + internal
  /// Physical processors after partitioning (== process_count when
  /// unpartitioned).
  std::size_t physical_processors = 0;
  Int scheduler_rounds = 0;  ///< cooperative rounds the run took (the
                             ///< same on either engine)
  Int faults_injected = 0;   ///< faults that actually fired (0 = clean run)
  bool plan_reused = false;  ///< network plan came from a PlanCache hit
  /// Plan came from a cached PlanTemplate (compile-once stage skipped);
  /// true on every cache interaction after the first for a (program,
  /// shape), including plan-level hits.
  bool template_reused = false;
  /// Nanoseconds spent expanding the template into this run's plan
  /// (0 on a plan-level cache hit or when no cache is attached).
  Int plan_expand_ns = 0;
  /// PlanCache occupancy and cumulative LRU evictions after this run's
  /// lookup (0 when no cache is attached).
  std::size_t plan_cache_bytes = 0;
  std::size_t plan_cache_evictions = 0;
  /// Execution backend that ran the plan: "interp" (the coroutine
  /// scheduler) or "bytecode" (the lowered VM, runtime/vm.hpp).
  std::string backend = "interp";
  /// Why Backend::Auto kept this run off the VM: the option that blocked
  /// it (empty when the VM ran it or the backend was forced).
  std::string fallback_reason;
  /// Problem instances executed by this dispatch (SoA lanes); 1 means an
  /// ordinary single-instance run. All schedule metrics above are per
  /// schedule, not per instance — lanes share one schedule by design.
  std::size_t batch = 1;
  /// Lowered program came from the PlanCache's bytecode level.
  bool bytecode_reused = false;
  /// Nanoseconds spent lowering the plan for this run (0 on a cache hit
  /// or on interp runs).
  Int bytecode_lower_ns = 0;
  /// Instruction count of the lowered program (0 on interp runs).
  std::size_t bytecode_instructions = 0;
  /// How the VM ran the schedule: "walked" (ready queue, rendezvous and
  /// clocks) or "replayed" (the plan's recorded tape, runtime/vm.hpp).
  /// Interpreter runs walk.
  std::string schedule = "walked";
  std::map<std::string, Int> transfers_per_stream;

  /// Fraction of computation-process time spent executing statements:
  /// statements / (computation processes * makespan). D.1's processes all
  /// run n+1 statements (high utilization); D.2 trades utilization for
  /// array length (each process runs at most n+1 of 2n+1 possible).
  [[nodiscard]] double utilization() const;

  [[nodiscard]] std::string to_string() const;
  /// JSON rendering, for the service wire protocol and stats endpoints.
  [[nodiscard]] std::string to_json() const;
};

/// One parked (or fault-held) operation of a blocked process, captured at
/// stall time by the deadlock forensics pass.
struct BlockedOpState {
  std::string process;    ///< process name
  std::string channel;    ///< channel the op is parked on (empty if stalled)
  std::string op;         ///< "send" | "recv" | "stalled" | "delayed-send" | "delayed-recv"
  Int time = 0;           ///< the process's local logical clock
  Int statements = 0;     ///< basic statements the process has executed
};

/// Machine-readable stall forensics: every blocked op, plus one blocking
/// cycle of the wait-for graph when the stall is a rendezvous deadlock.
/// `cycle[i]` waits on `cycle_channels[i]` toward `cycle[(i+1) % n]`.
struct DeadlockReport {
  std::string reason;  ///< "deadlock" or a watchdog description
  std::vector<BlockedOpState> blocked;
  std::vector<std::string> cycle;
  std::vector<std::string> cycle_channels;
  /// A cancelled replay has no parked ops: it names the tape entry it
  /// stopped before and the tape's length (-1 and 0 for a walk).
  Int tape_position = -1;
  Int tape_entries = 0;

  /// Human-readable multi-line rendering (used as the Error message).
  [[nodiscard]] std::string to_string() const;
  /// JSON rendering (the Error's diagnostic payload).
  [[nodiscard]] std::string to_json() const;
};

}  // namespace systolize

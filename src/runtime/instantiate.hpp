// Instantiation: bind a compiled (symbolic) systolic program at a concrete
// problem size and execute it on the message-passing substrate.
//
// The process network mirrors the paper's final programs: per-stream input
// and output processes at the pipeline ends, q-1 internal buffer processes
// per hop for a stream with flow denominator q, per-stream external buffer
// processes at the points of PS \ CS, and one computation process per
// point of CS. Computation processes never see element identities — a
// stream element consists only of its value (Sect. 4.2); all loop counts
// come from the symbolic repeaters evaluated at the process coordinates.
#pragma once

#include "runtime/faults.hpp"
#include "runtime/host.hpp"
#include "runtime/metrics.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/trace.hpp"
#include "runtime/watchdog.hpp"
#include "scheme/types.hpp"

namespace systolize {

class WorkerPool;

/// Which engine executes the expanded plan.
///
///   * Auto — the bytecode VM for every run it can take, solo or batched,
///     with or without a round budget and cancel token. Options the VM
///     cannot honour (capacity, merged buffers, partitioning, tracing,
///     faults, starvation bounds) send the run to the interpreter, and
///     RunMetrics::fallback_reason names the option.
///   * Interp — force the coroutine interpreter (runtime/scheduler), the
///     reference and forensics engine; batches run instance by instance.
///   * Bytecode — force the lowered VM (runtime/bytecode + runtime/vm);
///     incompatible options raise Error(Validation).
/// Both engines are bit-identical in results, makespan, transfers,
/// statements and scheduler rounds.
enum class Backend { Auto, Interp, Bytecode };

struct InstantiateOptions {
  /// Rendezvous (0) by default; larger values add slack per channel.
  Int channel_capacity = 0;
  /// Ablation (Sect. 7.6 remark "buffers ... may be incorporated into the
  /// computation processes in a later compilation step"): realize internal
  /// buffers as channel capacity instead of separate processes.
  bool merge_internal_buffers = false;
  /// When non-null, every basic-statement execution is appended here.
  Trace* trace = nullptr;
  /// Partitioning (the paper's Sect.-8 extension via its ref. [23]):
  /// number of physical processors per process-space dimension. Empty
  /// means one processor per process. Processes in the same block are
  /// multiplexed onto one physical processor and share its logical clock,
  /// so the makespan reflects the serialization; results are unchanged.
  IntVec partition_grid;
  /// Deterministic fault injection: when non-null (and non-empty), the
  /// plan's stalls/kills/delays/duplicates are injected into the run;
  /// a given (plan, program, sizes) triple replays bit-identically. The
  /// plan must outlive the call.
  const FaultPlan* faults = nullptr;
  /// Progress watchdog: bounds on scheduler rounds and per-process
  /// blocked time (0 = disabled). Turns livelock/starvation into a
  /// structured Error(Runtime) with a forensic report.
  WatchdogConfig watchdog;
  /// Lane-chunk workers of a batched VM dispatch (run_vm_batched): the
  /// SoA lanes split into up to `threads` contiguous chunks, each running
  /// the whole schedule over its own lanes (0 or 1 = the caller runs every
  /// lane). A solo run has one lane and runs on the caller; interpreter
  /// runs ignore this. Results are bit-identical for any value.
  unsigned threads = 0;
  /// Thread pool the lane chunks borrow workers from; when null, each
  /// dispatch spawns its own threads. The service layer shares one pool
  /// across requests so warm traffic skips per-run thread creation. Must
  /// outlive the call.
  WorkerPool* worker_pool = nullptr;
  /// When non-null, plans are served from this two-level cache: the
  /// symbolic derivation is compiled once per (program, shape) into a
  /// PlanTemplate, and per-size NetworkPlans are expanded from it in pure
  /// integer arithmetic (and memoized under an LRU byte budget). The
  /// cache also keeps each plan's lowered program and, after the plan's
  /// first complete VM walk, that walk's tape, which later VM runs of the
  /// plan replay (runtime/vm.hpp "Walk and replay"; RunMetrics::schedule).
  /// The cache must outlive the call.
  PlanCache* plan_cache = nullptr;
  /// Prove the program rules, the loading cover and the plan rules of the
  /// static pipeline (analysis/verify.hpp) on the plan before spawning
  /// anything; error findings raise Error(Validation) with the verify
  /// report as message and its JSON as the diagnostic payload. Costs zero
  /// scheduler rounds.
  bool verify_plan = false;
  /// Execution engine selection (see Backend).
  Backend backend = Backend::Auto;
};

/// Execute the program at the problem size bound in `sizes`, reading
/// injected stream values from `store` and writing extracted ones back.
/// Throws Error(Runtime) on protocol failure (e.g. deadlock).
[[nodiscard]] RunMetrics execute(const CompiledProgram& program,
                                 const LoopNest& nest, const Env& sizes,
                                 IndexedStore& store,
                                 const InstantiateOptions& options = {});

/// Execute `batch` independent problem instances through ONE expanded
/// plan: stores[0..batch) each hold one instance's inputs and receive its
/// outputs. All instances share the schedule (it is value-independent),
/// so on the bytecode backend the whole batch runs as SoA lanes of a
/// single VM dispatch — plan expansion, lowering and all per-transfer
/// control cost are paid once for the batch. On the interpreter the batch
/// runs instance by instance with identical results. The returned metrics
/// describe the shared schedule (identical for every instance) with
/// `batch` set. execute() is the one-instance case.
///
/// Fault injection is per-instance by nature (a kill produces a verdict
/// for one instance, not the batch), so `options.faults` must be empty —
/// callers wanting faulted batches run instances individually through
/// execute(). Throws Error(Validation) otherwise.
[[nodiscard]] RunMetrics execute_batch(const CompiledProgram& program,
                                       const LoopNest& nest, const Env& sizes,
                                       IndexedStore* stores,
                                       std::size_t batch,
                                       const InstantiateOptions& options = {});

}  // namespace systolize

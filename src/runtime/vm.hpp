// The bytecode VM: threaded-dispatch execution of a lowered NetworkPlan
// (runtime/bytecode.hpp), bit-identical to the coroutine interpreter
// (runtime/scheduler), which steps the same program. Backend::Auto runs
// every run the VM can take here: solo or batched, with or without a
// round budget and cancel token.
//
// Identity argument: both engines run the same per-process op sequences
// (lower_plan is the only code that derives them), and the VM replicates
// the interpreter's scheduling semantics op for op —
//   * the same FIFO double-buffered round structure (one round = the
//     ready entries present at round start; initial queue = spawn order),
//   * the same rendezvous clock math (both sides advance to
//     max(issue times) + 1; par sets issue every op at the owner's time
//     before any op is attempted, then attempt in set order),
//   * the same statement tick (+1 after each basic statement),
// so results, makespan, per-channel transfer counts, statement counts AND
// scheduler_rounds all match the interpreter exactly. The
// differential suite (tests/integration/test_bytecode_differential.cpp)
// asserts this across the whole design catalog.
//
// What the VM removes is the per-communication *mechanism*: no coroutine
// frames, no awaiter objects, no parked-op vectors — a channel is two
// single-op park slots (pure rendezvous networks have single writers and
// readers with at most one outstanding op per side), a process is a dozen
// integers of resume state, and dispatch is computed goto over a flat
// instruction array.
//
// SoA multi-instance batching: one VM run executes the same schedule over
// N independent problem instances ("lanes"). Registers and the in/out
// value buffers are instance-major arrays (value of register r in lane l
// at regs[r*stride + l]); a rendezvous copies all lanes at once, while
// every clock, counter and control decision stays scalar — the schedule
// is value-independent, so all lanes share it. This amortizes the entire
// control overhead across the batch. Lanes can additionally be split
// across WorkerPool threads (run_vm_batched): each worker executes the
// full schedule over its own lane chunk with private scalar state, so no
// synchronization is needed beyond the final join.
//
// Walk and replay: because the schedule is value-independent, the
// sequence of value moves a walk makes is a function of the plan alone.
// A walk can record it as a tape (VmTape): every rendezvous as the pair
// (sender location, receiver location) and every statement as its comp
// id, in completion order, plus the walk's VmResult. Replaying the tape
// makes exactly the walk's moves — one dense lane copy per transfer, one
// Statement::apply per lane per compute — with no ready queue, park slots
// or clocks, and returns the recorded VmResult. The tape holds no lane
// count, so one tape serves a solo run, any batch and every lane chunk.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "runtime/bytecode.hpp"
#include "support/error.hpp"

namespace systolize {

class WorkerPool;

/// Schedule metrics of one VM run. All fields are schedule properties,
/// identical across lanes (and across lane chunks of a batched run).
struct VmResult {
  Int makespan = 0;
  Int total_transfers = 0;
  Int statements = 0;
  Int rounds = 0;
  std::vector<Int> channel_transfers;  ///< by plan channel id
};

/// A walk's recorded schedule. Entry {from, to} is a transfer between two
/// locations in the VM's encoding (`loc >= 0` a register, `loc < 0` the
/// flat element offset -(loc)-1 of the in buffer for a sender and of the
/// out buffer for a receiver); entry {kCompute, comp} runs the statement
/// of comp meta `comp`. Each comp's statement point starts at
/// CompMeta::first_x and advances by the plan's increment per apply, as in
/// the walk. A plan whose locations do not fit in 32 bits is not recorded.
struct VmTape {
  struct Entry {
    std::int32_t from = 0;
    std::int32_t to = 0;
  };
  static constexpr std::int32_t kCompute =
      std::numeric_limits<std::int32_t>::min();

  std::vector<Entry> entries;  ///< in completion order
  VmResult result;             ///< what the recorded walk returned

  [[nodiscard]] bool empty() const noexcept { return entries.empty(); }
  /// Heap footprint, counted against PlanCache's bytecode budget.
  [[nodiscard]] std::size_t memory_bytes() const;
};

struct VmRunOptions {
  /// Round budget (0 = unbounded); trips Error(Timeout) like the
  /// interpreter's watchdog. A replay has no rounds: its caller checks
  /// the budget against the tape's recorded rounds.
  Int max_rounds = 0;
  /// External cancellation token, polled at round boundaries (every
  /// kReplayPoll entries of a replay).
  const std::atomic<bool>* cancel = nullptr;
  std::string cancel_reason = "externally cancelled";
  ErrorKind cancel_kind = ErrorKind::Cancelled;
  /// When non-null, replay this tape (recorded from the same plan)
  /// instead of walking.
  const VmTape* replay = nullptr;
  /// Walks only: when non-null, record the walk into *record. The tape is
  /// kept only when the walk completes with at most `max_tape_entries`
  /// entries and every location fits in 32 bits; otherwise *record is
  /// left empty. A batched walk records on its first lane chunk.
  VmTape* record = nullptr;
  std::size_t max_tape_entries = std::numeric_limits<std::size_t>::max();
};

/// Tape entries a replay runs between two polls of the cancel token.
inline constexpr std::size_t kReplayPoll = 4096;

/// Execute `prog` (lowered from `plan`) over lanes [lane_begin, lane_end)
/// of instance-major buffers with `lane_stride` total lanes: element e of
/// lane l lives at in[e * lane_stride + l] / out[e * lane_stride + l],
/// both aligned with plan.elems. Throws Error(Runtime) with a forensic
/// DeadlockReport on stall, Error(Timeout) on budget exhaustion, and
/// `opt.cancel_kind` on cancellation (a cancelled replay's report names
/// its tape position instead of parked ops).
[[nodiscard]] VmResult run_vm(const BytecodeProgram& prog,
                              const NetworkPlan& plan, const Value* in,
                              Value* out, std::size_t lane_stride,
                              std::size_t lane_begin, std::size_t lane_end,
                              const VmRunOptions& opt = {});

/// Batched driver: run all `lanes` lanes, splitting them into contiguous
/// chunks across up to `threads` workers (worker 0 is the calling
/// thread). `pool` may be null (threads are spawned per call); with
/// threads <= 1 this is a single run_vm call. Chunk failures are
/// captured and the first is rethrown after every worker returns.
[[nodiscard]] VmResult run_vm_batched(const BytecodeProgram& prog,
                                      const NetworkPlan& plan,
                                      const Value* in, Value* out,
                                      std::size_t lanes, unsigned threads,
                                      WorkerPool* pool,
                                      const VmRunOptions& opt = {});

}  // namespace systolize

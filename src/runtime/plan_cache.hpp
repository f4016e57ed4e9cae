// Network interning: the one-time lowering of a compiled (symbolic)
// program at a concrete problem size into a dense, integer-indexed
// NetworkPlan — the execution engine's intermediate representation.
//
// The process network depends on the problem size but not on the run, so
// it is derived once per (program, sizes, shape) and recorded as flat
// vectors over dense IDs:
//   * process index — spawn order (the scheduler's FIFO behaviour and the
//     fault-roll order follow it),
//   * channel index — creation order, with the owning stream, pipe and
//     link as integers,
//   * flat stream-element offsets — each pipe's element identities are a
//     contiguous [elem_begin, elem_end) slice of one `elems` vector, and
//     the run-time values travel in parallel flat Value arrays.
// A plan stores no names: a process is identified by its point of the
// process space (Sects. 6-7) and a channel by its stream, pipe and link,
// and proc_name() / channel_name() render the display names from those
// integers when a diagnostic, a trace or the interpreter asks for one.
// Plans are built in two stages (runtime/plan_template.hpp): the symbolic
// derivation is compiled once per (program, shape) into a PlanTemplate,
// and each plan is expanded from it with integer arithmetic. build_plan()
// runs both stages for a caller that wants one plan; a PlanCache keeps
// the template and memoizes plans per size vector, so serve traffic in
// which every request brings its own problem size pays one integer
// expansion, not a re-derivation.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/host.hpp"
#include "scheme/types.hpp"

namespace systolize {

/// The structural knobs a plan depends on (everything in
/// InstantiateOptions that changes the network's shape, as opposed to
/// per-run attachments like faults, trace sinks or thread counts).
struct PlanShape {
  Int channel_capacity = 0;
  bool merge_internal_buffers = false;
  IntVec partition_grid;

  friend bool operator==(const PlanShape&, const PlanShape&) = default;
};

/// The interned process network: everything execute() needs to stand up
/// and run the network, with no symbolic evaluation and no string keys.
/// Self-contained — it keeps no references into the CompiledProgram or
/// LoopNest it was built from.
struct NetworkPlan {
  enum class ProcKind : std::uint8_t { Input, Output, Pass, Comp };

  struct ChannelSpec {
    std::uint32_t stream = 0; ///< index into `streams`
    std::uint32_t pipe = 0;   ///< the stream's pipe, in anchor order
    std::uint32_t link = 0;   ///< hop along the pipe, 0 = out of its input
    Int capacity = 0;
    std::int32_t sender = -1;   ///< producing process id (-1 = none)
    std::int32_t receiver = -1; ///< consuming process id (-1 = none)
  };

  /// One stream's role inside a computation process, channels as ids.
  struct RoleSpec {
    std::uint32_t stream = 0;
    bool stationary = false;
    Int soak = 0;   ///< pre-repeater passes (recovery passes if stationary)
    Int drain = 0;  ///< post-repeater passes (loading passes if stationary)
    std::int32_t chan_in = -1;
    std::int32_t chan_out = -1;
  };

  struct ProcSpec {
    ProcKind kind = ProcKind::Pass;
    std::int32_t clock = -1;    ///< shared-clock id, -1 = own clock
    std::uint32_t stream = 0;   ///< Input/Output/Pass: the stream carried
    std::int32_t chan_in = -1;  ///< Output/Pass: channel consumed
    std::int32_t chan_out = -1; ///< Input/Pass: channel produced
    /// The PS point the process sits at (Comp: its identity), as a
    /// row-major index into the box [ps_min, ps_max]; see proc_place().
    std::uint32_t point = 0;
    /// Pass: which of the q-1 internal buffers in front of `point` this
    /// is, or -1 for an external buffer (a box point outside the CS).
    std::int32_t buffer = -1;
    Int count = 0;              ///< elements through (Pass/Input/Output) or
                                ///< repeater iterations (Comp)
    /// Input/Output: the pipe's element identities as a slice of `elems`
    /// (an input and its pipe's output share the slice — the same
    /// elements enter and leave the pipeline).
    std::size_t elem_begin = 0, elem_end = 0;
    /// Comp: this process's stream roles as a slice of `roles`.
    std::size_t role_begin = 0, role_end = 0;
    IntVec first_x;  ///< Comp: first statement of the chord
  };

  std::vector<std::string> streams;   ///< stream names, by stream id
  std::vector<ChannelSpec> channels;  ///< in creation order
  std::vector<ProcSpec> procs;        ///< in spawn order
  std::vector<RoleSpec> roles;
  std::vector<IntVec> elems;          ///< flat pipe-element identities
  IntVec increment;                   ///< repeater chord increment
  Statement body;                     ///< the loop-nest basic statement
  std::size_t clock_count = 0;        ///< shared clocks (partitioning)
  std::size_t comp_count = 0;
  std::size_t io_count = 0;
  std::size_t buffer_count = 0;
  IntVec ps_min, ps_max;  ///< PS box (process places, partition blocks)

  /// Approximate deep heap footprint (vectors and strings) — the byte
  /// currency of PlanCache's LRU accounting.
  [[nodiscard]] std::size_t memory_bytes() const;
};

/// The PS point process `id` sits at: ps_min plus the row-major
/// unravelling of its `point` over the box extents.
[[nodiscard]] IntVec proc_place(const NetworkPlan& plan, std::size_t id);

/// Display name of process `id`, rendered from its kind, stream and place
/// y: "comp:(y)", "in:s:(y)", "out:s:(y)", "buf:s:(y)#b" (internal buffer
/// b in front of y) or "xbuf:s:(y)" (external buffer at y).
[[nodiscard]] std::string proc_name(const NetworkPlan& plan, std::size_t id);

/// Display name of channel `id`: "s[pipe].link".
[[nodiscard]] std::string channel_name(const NetworkPlan& plan,
                                       std::size_t id);

/// Lower `program` at `sizes` into a NetworkPlan: compile_template() and
/// then expand_template() (runtime/plan_template.hpp), for a caller that
/// builds one plan and keeps no template. Raises what expansion raises:
/// Error(Inconsistent) when the conservation law fails, Error(Validation)
/// on a partition grid of the wrong arity or an unbound size.
[[nodiscard]] std::unique_ptr<NetworkPlan> build_plan(
    const CompiledProgram& program, const LoopNest& nest, const Env& sizes,
    const PlanShape& shape);

struct PlanTemplate;    // runtime/plan_template.hpp
struct BytecodeProgram; // runtime/bytecode.hpp
struct VmTape;          // runtime/vm.hpp

/// Thread-safe memo built on the compile-once/specialize-cheaply
/// split of runtime/plan_template.hpp:
///
///   * template level — one PlanTemplate per (program generation, shape).
///     Program identity is CompiledProgram::generation, minted per
///     derivation and preserved across copies, so two different programs
///     that reuse one address and name can never alias. Each template is
///     compiled exactly once per key (concurrent callers block on a
///     std::once_flag rather than duplicating the symbolic work);
///     templates are small and never evicted.
///   * plan level — one expanded NetworkPlan per (template, sizes), under
///     LRU eviction against a configurable byte budget measured with
///     NetworkPlan::memory_bytes(). A never-seen size costs one integer
///     expansion instead of a full symbolic derivation.
///   * bytecode level — per plan, its lowered program and, once a VM walk
///     of the plan completes, the walk's tape (runtime/vm.hpp), under the
///     same byte budget (see lookup_or_lower and store_tape).
///
/// Plans and templates are self-contained and handed out as shared_ptr,
/// so entries stay valid across eviction and after the source program is
/// destroyed.
class PlanCache {
 public:
  /// Default byte budget: generous enough that ordinary test/bench
  /// workloads see zero evictions.
  static constexpr std::size_t kDefaultByteBudget =
      std::size_t{256} * 1024 * 1024;

  explicit PlanCache(std::size_t byte_budget = kDefaultByteBudget);

  /// Per-call outcome, for RunMetrics reporting.
  struct LookupStats {
    bool plan_hit = false;      ///< plan came straight from the cache
    bool template_hit = false;  ///< template was already compiled
    std::uint64_t expand_ns = 0;  ///< time spent in expand_template (0 on hit)
  };

  [[nodiscard]] std::shared_ptr<const NetworkPlan> lookup_or_build(
      const CompiledProgram& program, const LoopNest& nest, const Env& sizes,
      const PlanShape& shape, LookupStats* stats = nullptr);

  /// The compiled template for (program, shape), compiling it on first use
  /// (deduplicated across threads).
  [[nodiscard]] std::shared_ptr<const PlanTemplate> lookup_template(
      const CompiledProgram& program, const LoopNest& nest,
      const PlanShape& shape, LookupStats* stats = nullptr);

  /// Per-call outcome of the bytecode level, for RunMetrics reporting.
  struct BytecodeStats {
    bool hit = false;           ///< lowered program came from the cache
    std::uint64_t lower_ns = 0; ///< time spent in lower_plan (0 on hit)
    /// The plan's recorded VM schedule, when one is stored (null on a
    /// miss and before the plan's first complete walk).
    std::shared_ptr<const VmTape> tape;
  };

  /// Third cache level: the lowered bytecode program of an expanded plan
  /// (runtime/bytecode.hpp), which both engines run, keyed by plan
  /// identity. The entry pins the plan's shared_ptr, so the address key
  /// can never alias a recycled allocation while cached. Same LRU byte
  /// budget as the plan level (accounted separately — lowered programs
  /// are tiny next to plans).
  [[nodiscard]] std::shared_ptr<const BytecodeProgram> lookup_or_lower(
      std::shared_ptr<const NetworkPlan> plan,
      BytecodeStats* stats = nullptr);

  /// Publish the VM tape recorded by a complete walk of `plan` on the
  /// plan's bytecode entry, where later lookup_or_lower() calls hand it
  /// out. The first tape stored for a plan wins; a tape is refused when
  /// the entry was evicted or the tape alone exceeds the byte budget.
  /// Its bytes count against the bytecode level's budget and leave with
  /// the entry; when eviction down to one entry is not enough, that
  /// entry's tape goes too.
  void store_tape(const NetworkPlan& plan, std::shared_ptr<const VmTape> tape);

  [[nodiscard]] std::size_t bytecode_size() const;    ///< cached programs
  [[nodiscard]] std::size_t bytecode_hits() const;
  [[nodiscard]] std::size_t bytecode_misses() const;  ///< lowerings
  [[nodiscard]] std::size_t bytecode_evictions() const;
  /// Bytes of the bytecode level: lowered programs plus their tapes.
  [[nodiscard]] std::size_t bytecode_bytes() const;
  [[nodiscard]] std::size_t tapes() const;       ///< entries with a tape
  [[nodiscard]] std::size_t tape_bytes() const;  ///< their tapes' bytes
  /// Cumulative nanoseconds spent lowering plans to bytecode.
  [[nodiscard]] std::uint64_t lower_ns() const;

  [[nodiscard]] std::size_t size() const;    ///< cached plans
  [[nodiscard]] std::size_t hits() const;    ///< plan-level hits
  [[nodiscard]] std::size_t misses() const;  ///< plan-level expansions
  [[nodiscard]] std::size_t template_hits() const;
  [[nodiscard]] std::size_t template_compiles() const;
  [[nodiscard]] std::size_t evictions() const;
  [[nodiscard]] std::size_t bytes() const;  ///< current plan bytes held
  [[nodiscard]] std::size_t byte_budget() const;
  /// Resize the plan-level byte budget, evicting LRU entries down to the
  /// new budget immediately. Shrinking is the service's memory-pressure
  /// degradation lever: handed-out shared_ptrs stay valid (eviction only
  /// drops the cache's reference) and templates are never evicted, so a
  /// shrunken cache degrades to per-request integer expansion, not to
  /// re-derivation. Thread-safe against concurrent lookups.
  void set_byte_budget(std::size_t byte_budget);
  /// Cumulative nanoseconds spent expanding templates into plans.
  [[nodiscard]] std::uint64_t expand_ns() const;

 private:
  struct TemplateSlot;
  struct PlanEntry {
    std::string key;
    std::shared_ptr<const NetworkPlan> plan;
    std::size_t bytes = 0;
  };

  struct BytecodeEntry {
    const NetworkPlan* key = nullptr;
    std::shared_ptr<const NetworkPlan> plan;  ///< pins the key's identity
    std::shared_ptr<const BytecodeProgram> program;
    std::shared_ptr<const VmTape> tape;  ///< null until stored
    std::size_t bytes = 0;               ///< program plus tape
    std::size_t tape_bytes = 0;
  };

  /// Evict LRU entries until bytes_ <= budget_ (keeps >= 1 entry).
  /// Caller holds mu_.
  void evict_to_budget_locked();
  /// Same, for the bytecode level's own byte accounting; then, if the
  /// one entry left is still over budget, drop its tape.
  void evict_bytecode_locked();

  std::size_t budget_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<TemplateSlot>> templates_;
  /// LRU list, most-recently-used first; plans_ maps key -> list position.
  std::list<PlanEntry> lru_;
  std::map<std::string, std::list<PlanEntry>::iterator> plans_;
  std::size_t bytes_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t template_hits_ = 0;
  std::size_t template_compiles_ = 0;
  std::size_t evictions_ = 0;
  std::uint64_t expand_ns_ = 0;
  /// Bytecode level: LRU list (most-recent first) + address index.
  std::list<BytecodeEntry> bc_lru_;
  std::map<const NetworkPlan*, std::list<BytecodeEntry>::iterator> bc_index_;
  std::size_t bc_bytes_ = 0;
  std::size_t bc_hits_ = 0;
  std::size_t bc_misses_ = 0;
  std::size_t bc_evictions_ = 0;
  std::size_t tapes_ = 0;
  std::size_t tape_bytes_ = 0;
  std::uint64_t lower_ns_ = 0;
};

}  // namespace systolize

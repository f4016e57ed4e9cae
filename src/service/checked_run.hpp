// The checked run both front ends share: seed the lanes, run them in one
// dispatch and compare each lane with the sequential baseline, or replay
// a faulted batch one instance at a time. `systolize run` and every serve
// run path (solo, batched, coalesced) call these, and word the outcome
// themselves. The seeding is make_seeded_store's: lane l of a batch
// carries instance l's data, so a solo run, a batch and a coalesced group
// check against the same baselines.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/instantiate.hpp"
#include "support/error.hpp"

namespace systolize::service {

/// The sizes of the front ends' --n and --m: size symbol "m" gets `m`,
/// every other size symbol gets `n`.
[[nodiscard]] Env sizes_of(const LoopNest& nest, Int n, Int m);

/// The plan shape of the front ends' --capacity, --merge-buffers and
/// --partition=G: G physical processors along each process-space
/// dimension, 0 for one processor per process.
[[nodiscard]] PlanShape plan_shape(const LoopNest& nest, Int capacity,
                                   bool merge_buffers, Int partition);

/// The engine a front end's --backend (or "backend" field) names: "" or
/// "auto", "interp", "bytecode"; nullopt for any other name.
[[nodiscard]] std::optional<Backend> backend_named(std::string_view name);

/// Engine options that run plans of `shape`.
[[nodiscard]] InstantiateOptions shaped_options(const PlanShape& shape);

/// The outcome of one checked dispatch.
struct CheckedRun {
  RunMetrics metrics;
  /// Per lane, first_divergence() from the lane's sequential baseline:
  /// "" when the lane matches or no check was asked for.
  std::vector<std::string> divergence;
};

/// Seeds lane l with make_seeded_store(nest, sizes, instances[l]), runs
/// all lanes in one execute_batch() and, when `check` is set, compares
/// each lane with run_sequential() of its seeding, one baseline per
/// distinct instance. A `wall_timeout_ms` > 0 arms a wall-clock deadline
/// over the dispatch (Error(Timeout) at a round boundary); the check runs
/// after it is disarmed.
[[nodiscard]] CheckedRun run_checked(const CompiledProgram& program,
                                     const LoopNest& nest, const Env& sizes,
                                     const std::vector<Int>& instances,
                                     InstantiateOptions options,
                                     Int wall_timeout_ms, bool check);

/// One instance of a faulted batch.
struct InstanceRun {
  RunMetrics metrics;          ///< when the instance ran to the end
  std::optional<Error> error;  ///< its classified failure otherwise
  std::string divergence;      ///< as CheckedRun::divergence
};

/// Runs instance b of `batch` on its own through execute(), seeded as
/// lane b and with `faults` reseeded to faults.seed() + b: a fault is a
/// verdict for one instance, never for the batch. An instance's Error,
/// from its run or its check, is its outcome; the next instance still
/// runs. The wall-clock deadline spans the whole replay.
[[nodiscard]] std::vector<InstanceRun> run_faulted(
    const CompiledProgram& program, const LoopNest& nest, const Env& sizes,
    std::size_t batch, const FaultPlan& faults, InstantiateOptions options,
    Int wall_timeout_ms, bool check);

}  // namespace systolize::service

#include "service/checked_run.hpp"

#include <map>

#include "baseline/sequential.hpp"
#include "service/executor.hpp"

namespace systolize::service {

namespace {

/// Arms `deadline` for `ms` (when > 0) as `options`'s cancel token.
void arm_deadline(DeadlineTimer& deadline, InstantiateOptions& options,
                  Int ms) {
  if (ms <= 0) return;
  deadline.arm(ms);
  options.watchdog.cancel = deadline.token();
  options.watchdog.cancel_kind = ErrorKind::Timeout;
  options.watchdog.cancel_reason =
      "wall-clock deadline of " + std::to_string(ms) + "ms exceeded";
}

/// The sequential run of instance `instance`'s seeding.
IndexedStore baseline(const LoopNest& nest, const Env& sizes, Int instance) {
  IndexedStore expected = make_seeded_store(nest, sizes, instance);
  run_sequential(nest, sizes, expected);
  return expected;
}

}  // namespace

Env sizes_of(const LoopNest& nest, Int n, Int m) {
  Env sizes;
  for (const Symbol& s : nest.sizes()) {
    sizes[s.name()] = Rational(s.name() == "m" ? m : n);
  }
  return sizes;
}

PlanShape plan_shape(const LoopNest& nest, Int capacity, bool merge_buffers,
                     Int partition) {
  return {capacity, merge_buffers,
          partition > 0 ? IntVec(std::vector<Int>(nest.depth() - 1, partition))
                        : IntVec()};
}

std::optional<Backend> backend_named(std::string_view name) {
  if (name.empty() || name == "auto") return Backend::Auto;
  if (name == "interp") return Backend::Interp;
  if (name == "bytecode") return Backend::Bytecode;
  return std::nullopt;
}

InstantiateOptions shaped_options(const PlanShape& shape) {
  InstantiateOptions options;
  options.channel_capacity = shape.channel_capacity;
  options.merge_internal_buffers = shape.merge_internal_buffers;
  options.partition_grid = shape.partition_grid;
  return options;
}

CheckedRun run_checked(const CompiledProgram& program, const LoopNest& nest,
                       const Env& sizes, const std::vector<Int>& instances,
                       InstantiateOptions options, Int wall_timeout_ms,
                       bool check) {
  DeadlineTimer deadline;
  arm_deadline(deadline, options, wall_timeout_ms);
  std::vector<IndexedStore> stores;
  stores.reserve(instances.size());
  for (const Int instance : instances) {
    stores.push_back(make_seeded_store(nest, sizes, instance));
  }
  CheckedRun run;
  run.metrics = execute_batch(program, nest, sizes, stores.data(),
                              stores.size(), options);
  deadline.disarm();
  run.divergence.resize(stores.size());
  if (!check) return run;
  // Lanes of one instance share a seeding, so they share one baseline.
  std::map<Int, IndexedStore> expected;
  for (std::size_t lane = 0; lane < stores.size(); ++lane) {
    auto [it, fresh] = expected.try_emplace(instances[lane]);
    if (fresh) it->second = baseline(nest, sizes, instances[lane]);
    run.divergence[lane] = first_divergence(nest, it->second, stores[lane]);
  }
  return run;
}

std::vector<InstanceRun> run_faulted(const CompiledProgram& program,
                                     const LoopNest& nest, const Env& sizes,
                                     std::size_t batch,
                                     const FaultPlan& faults,
                                     InstantiateOptions options,
                                     Int wall_timeout_ms, bool check) {
  DeadlineTimer deadline;
  arm_deadline(deadline, options, wall_timeout_ms);
  std::vector<InstanceRun> runs(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    FaultPlan instance_faults = faults;
    instance_faults.set_seed(faults.seed() + b);
    options.faults = &instance_faults;
    const auto instance = static_cast<Int>(b);
    IndexedStore store = make_seeded_store(nest, sizes, instance);
    try {
      runs[b].metrics = execute(program, nest, sizes, store, options);
      if (check) {
        runs[b].divergence =
            first_divergence(nest, baseline(nest, sizes, instance), store);
      }
    } catch (const Error& e) {
      runs[b].error = e;
    }
  }
  return runs;
}

}  // namespace systolize::service

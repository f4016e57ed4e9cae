#include "runtime/instantiate.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/verify.hpp"
#include "runtime/bytecode.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/vm.hpp"
#include "support/error.hpp"

namespace systolize {

namespace {

// Names the first option incompatible with the bytecode VM, or returns
// an empty string when the options are eligible. The VM executes pure
// rendezvous networks with flat-buffer I/O; everything it cannot do is
// a per-run attachment the coroutine scheduler handles.
std::string bytecode_blocker(const InstantiateOptions& options) {
  if (options.channel_capacity > 0) {
    return "buffered channels (channel capacity > 0)";
  }
  if (options.merge_internal_buffers) return "merged internal buffers";
  if (options.partition_grid.dim() != 0) return "partitioning";
  if (options.trace != nullptr) {
    return "tracing (trace order is engine-specific)";
  }
  if (options.faults != nullptr && !options.faults->empty()) {
    return "fault injection";
  }
  if (options.watchdog.max_blocked_rounds > 0) {
    return "per-process starvation bounds (--watchdog-blocked)";
  }
  return {};
}

// The plan a dispatch runs: served from the cache (or built), exported
// to `options.network`, passed through the static verification gate, and
// described in `metrics` (shape, cache outcome). The shared_ptr pins a
// cached plan for the whole run: LRU eviction by a concurrent lookup must
// not free it under us.
std::shared_ptr<const NetworkPlan> prepare_plan(
    const CompiledProgram& program, const LoopNest& nest, const Env& sizes,
    const InstantiateOptions& options, RunMetrics& metrics) {
  const PlanShape shape{options.channel_capacity,
                        options.merge_internal_buffers,
                        options.partition_grid};
  std::shared_ptr<const NetworkPlan> plan;
  PlanCache::LookupStats cache_stats;
  if (options.plan_cache != nullptr) {
    plan = options.plan_cache->lookup_or_build(program, nest, sizes, shape,
                                               &cache_stats);
    metrics.plan_cache_bytes = options.plan_cache->bytes();
    metrics.plan_cache_evictions = options.plan_cache->evictions();
  } else {
    plan = build_plan(program, nest, sizes, shape);
  }
  if (options.network != nullptr) *options.network = plan->graph;

  if (options.verify_plan) {
    // Static verification gate: prove the schedule, guards and channel
    // structure sound before a single process is spawned.
    VerifyReport rep = verify_program(program, nest);
    verify_plan_into(rep, *plan);
    if (rep.errors() != 0) {
      raise(ErrorKind::Validation,
            "static plan verification failed:\n" + rep.to_string(),
            rep.to_json());
    }
  }

  metrics.plan_reused = cache_stats.plan_hit;
  metrics.template_reused = cache_stats.template_hit;
  metrics.plan_expand_ns = static_cast<Int>(cache_stats.expand_ns);
  metrics.process_count = plan->procs.size();
  metrics.channel_count = plan->channels.size();
  metrics.computation_processes = plan->comp_count;
  metrics.io_processes = plan->io_count;
  metrics.buffer_processes = plan->buffer_count;
  metrics.physical_processors = options.partition_grid.dim() == 0
                                    ? plan->procs.size()
                                    : plan->clock_count;
  return plan;
}

// Per-stream transfer totals straight off the plan's channel->stream ids.
void fill_stream_transfers(RunMetrics& metrics, const NetworkPlan& plan,
                           const std::vector<Int>& channel_transfers) {
  for (const std::string& stream : plan.streams) {
    metrics.transfers_per_stream[stream] = 0;
  }
  for (std::size_t c = 0; c < plan.channels.size(); ++c) {
    metrics.transfers_per_stream[plan.streams[plan.channels[c].stream]] +=
        channel_transfers[c];
  }
}

// The VM: lower (or fetch) the program, run every instance as an SoA lane
// of one dispatch, and de-interleave the outputs back into the stores.
// Options must already have passed bytecode_blocker().
void run_on_vm(const std::shared_ptr<const NetworkPlan>& plan,
               IndexedStore* stores, std::size_t batch,
               const InstantiateOptions& options, RunMetrics& metrics) {
  std::shared_ptr<const BytecodeProgram> prog;
  PlanCache::BytecodeStats bc_stats;
  if (options.plan_cache != nullptr) {
    prog = options.plan_cache->lookup_or_lower(plan, &bc_stats);
  } else {
    const auto t0 = std::chrono::steady_clock::now();
    prog = lower_plan(*plan);
    bc_stats.lower_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  // Gather every instance's input pipes into one instance-major buffer:
  // element e of lane l at in[e * batch + l] (the VM's lane layout, so a
  // rendezvous moves all lanes with one dense copy).
  const std::size_t elem_count = plan->elems.size();
  std::vector<Value> in(elem_count * batch, 0);
  std::vector<Value> out(elem_count * batch, 0);
  std::vector<Value> row;
  for (const NetworkPlan::ProcSpec& spec : plan->procs) {
    if (spec.kind != NetworkPlan::ProcKind::Input) continue;
    const std::size_t n = spec.elem_end - spec.elem_begin;
    row.resize(n);
    for (std::size_t lane = 0; lane < batch; ++lane) {
      stores[lane].gather(plan->streams[spec.stream],
                          plan->elems.data() + spec.elem_begin, n,
                          row.data());
      for (std::size_t k = 0; k < n; ++k) {
        in[(spec.elem_begin + k) * batch + lane] = row[k];
      }
    }
  }

  VmRunOptions vopt;
  vopt.max_rounds = options.watchdog.max_rounds;
  vopt.cancel = options.watchdog.cancel;
  vopt.cancel_reason = options.watchdog.cancel_reason;
  vopt.cancel_kind = options.watchdog.cancel_kind;
  VmResult result =
      run_vm_batched(*prog, *plan, in.data(), out.data(), batch,
                     options.threads, options.worker_pool, vopt);

  for (const NetworkPlan::ProcSpec& spec : plan->procs) {
    if (spec.kind != NetworkPlan::ProcKind::Output) continue;
    const std::size_t n = spec.elem_end - spec.elem_begin;
    row.resize(n);
    for (std::size_t lane = 0; lane < batch; ++lane) {
      for (std::size_t k = 0; k < n; ++k) {
        row[k] = out[(spec.elem_begin + k) * batch + lane];
      }
      stores[lane].scatter(plan->streams[spec.stream],
                           plan->elems.data() + spec.elem_begin, n,
                           row.data());
    }
  }

  metrics.backend = "bytecode";
  metrics.bytecode_reused = bc_stats.hit;
  metrics.bytecode_lower_ns = static_cast<Int>(bc_stats.lower_ns);
  metrics.bytecode_instructions = prog->instruction_count();
  metrics.makespan = result.makespan;
  metrics.total_transfers = result.total_transfers;
  metrics.statements = result.statements;
  metrics.scheduler_rounds = result.rounds;
  fill_stream_transfers(metrics, *plan, result.channel_transfers);
}

// The interpreter: stand the network up on the coroutine scheduler and
// run one instance. Output processes write through to the store, so a
// faulted run's partial results stay observable.
void run_on_interp(const NetworkPlan& plan, IndexedStore& store,
                   const InstantiateOptions& options, RunMetrics& metrics) {
  // Gather every input pipe's values into one flat buffer up front;
  // outputs are only written during the run, so a bulk pre-run gather
  // reads exactly the values a pipe-by-pipe read would.
  std::vector<Value> in_values(plan.elems.size(), 0);
  for (const NetworkPlan::ProcSpec& spec : plan.procs) {
    if (spec.kind != NetworkPlan::ProcKind::Input) continue;
    store.gather(plan.streams[spec.stream],
                 plan.elems.data() + spec.elem_begin,
                 spec.elem_end - spec.elem_begin,
                 in_values.data() + spec.elem_begin);
  }

  Scheduler sched;
  std::optional<FaultInjector> injector;
  if (options.faults != nullptr && !options.faults->empty()) {
    injector.emplace(*options.faults);
    sched.set_fault_injector(&*injector);
  }
  sched.set_watchdog(options.watchdog);

  // Physical-processor clocks for partitioned runs; processes hold raw
  // pointers into this vector until the scheduler is destroyed.
  std::vector<Clock> clocks(plan.clock_count);
  std::vector<Channel*> chans;
  chans.reserve(plan.channels.size());
  for (const NetworkPlan::ChannelSpec& spec : plan.channels) {
    chans.push_back(&sched.make_channel(spec.name, spec.capacity));
  }
  PlanBindings bindings;
  bindings.plan = &plan;
  bindings.in_values = in_values.data();
  bindings.store = &store;
  bindings.trace = options.trace;
  std::vector<Process*> procs;
  procs.reserve(plan.procs.size());
  for (std::uint32_t pi = 0; pi < plan.procs.size(); ++pi) {
    procs.push_back(
        &spawn_plan_proc(sched, pi, chans.data(), clocks.data(), bindings));
  }
  // Declare both endpoints of every channel so deadlock forensics can
  // follow wait-for edges through processes that never touched them.
  for (std::size_t c = 0; c < plan.channels.size(); ++c) {
    const NetworkPlan::ChannelSpec& spec = plan.channels[c];
    if (spec.sender >= 0) chans[c]->declare_sender(*procs[spec.sender]);
    if (spec.receiver >= 0) chans[c]->declare_receiver(*procs[spec.receiver]);
  }

  sched.run();

  metrics.scheduler_rounds = sched.round();
  metrics.faults_injected = injector ? injector->injected() : 0;
  metrics.makespan = sched.makespan();
  metrics.total_transfers = sched.total_transfers();
  metrics.statements = 0;
  for (const Process& p : sched.processes()) metrics.statements += p.statements;
  std::vector<Int> channel_transfers;
  channel_transfers.reserve(chans.size());
  for (const Channel* chan : chans) {
    channel_transfers.push_back(chan->transfers());
  }
  fill_stream_transfers(metrics, plan, channel_transfers);
}

}  // namespace

// Instantiation is plan-driven: the symbolic program is lowered once into
// an interned NetworkPlan (runtime/plan_cache — dense process and channel
// ids, flat element slices, a fixed spawn order) and a dispatch only
// stands the network up and runs it. Without a PlanCache the plan is
// built by build_plan() (template compile plus one expansion); with one,
// the template is compiled once per (program, shape) and each new size
// costs only an integer expansion; repeated executions at a known size
// skip even that.
RunMetrics execute(const CompiledProgram& program, const LoopNest& nest,
                   const Env& sizes, IndexedStore& store,
                   const InstantiateOptions& options) {
  return execute_batch(program, nest, sizes, &store, 1, options);
}

RunMetrics execute_batch(const CompiledProgram& program, const LoopNest& nest,
                         const Env& sizes, IndexedStore* stores,
                         std::size_t batch,
                         const InstantiateOptions& options) {
  if (batch == 0) {
    raise(ErrorKind::Validation, "execute_batch requires batch >= 1");
  }
  if (batch > 1 && options.faults != nullptr && !options.faults->empty()) {
    raise(ErrorKind::Validation,
          "batched execution cannot inject faults: fault verdicts are per "
          "instance; run faulted instances individually through execute()");
  }
  const std::string blocker = bytecode_blocker(options);
  if (options.backend == Backend::Bytecode && !blocker.empty()) {
    raise(ErrorKind::Validation,
          "the bytecode backend cannot run with " + blocker +
              "; use --backend=interp");
  }
  RunMetrics metrics;
  metrics.batch = batch;
  const std::shared_ptr<const NetworkPlan> plan =
      prepare_plan(program, nest, sizes, options, metrics);
  if (options.backend != Backend::Interp && blocker.empty()) {
    run_on_vm(plan, stores, batch, options, metrics);
    return metrics;
  }
  // The interpreter runs a batch as `batch` independent instances of the
  // one plan; the schedule metrics are identical per instance.
  if (options.backend == Backend::Auto) metrics.fallback_reason = blocker;
  for (std::size_t i = 0; i < batch; ++i) {
    run_on_interp(*plan, stores[i], options, metrics);
  }
  return metrics;
}

}  // namespace systolize

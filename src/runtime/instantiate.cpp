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

// The plan a dispatch runs: served from the cache (or built), passed
// through the static verification gate, and described in `metrics`
// (shape, cache outcome). The shared_ptr pins a cached plan for the whole
// run: LRU eviction by a concurrent lookup must not free it under us.
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
  if (options.verify_plan) {
    // Static verification gate: the static pipeline's proof of the
    // schedule, guards, loading cover and channel structure, on the plan
    // about to run, before a single process is spawned.
    const VerifyReport rep =
        verify_design(program, nest, sizes, shape, plan.get());
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

// The lowered program both engines run: from the cache's bytecode level
// when a cache is attached, else lowered here.
std::shared_ptr<const BytecodeProgram> lowered(
    const std::shared_ptr<const NetworkPlan>& plan,
    const InstantiateOptions& options, PlanCache::BytecodeStats& stats) {
  if (options.plan_cache != nullptr) {
    return options.plan_cache->lookup_or_lower(plan, &stats);
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const BytecodeProgram> prog = lower_plan(*plan);
  stats.lower_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return prog;
}

// The VM: lower (or fetch) the program, run every instance as an SoA lane
// of one dispatch, and de-interleave the outputs back into the stores.
// With a cache attached, the dispatch replays the plan's recorded tape
// when one is stored and the round budget admits its recorded rounds;
// otherwise it walks, and a complete walk records the plan's tape if none
// is stored. Options must already have passed bytecode_blocker().
void run_on_vm(const std::shared_ptr<const NetworkPlan>& plan,
               IndexedStore* stores, std::size_t batch,
               const InstantiateOptions& options, RunMetrics& metrics) {
  PlanCache::BytecodeStats bc_stats;
  const std::shared_ptr<const BytecodeProgram> prog =
      lowered(plan, options, bc_stats);

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
  const VmTape* tape = bc_stats.tape.get();
  if (tape != nullptr &&
      (vopt.max_rounds == 0 || vopt.max_rounds >= tape->result.rounds)) {
    vopt.replay = tape;
    metrics.schedule = "replayed";
  }
  VmTape recorded;
  if (options.plan_cache != nullptr && tape == nullptr) {
    vopt.record = &recorded;
    vopt.max_tape_entries =
        options.plan_cache->byte_budget() / sizeof(VmTape::Entry);
  }
  VmResult result =
      run_vm_batched(*prog, *plan, in.data(), out.data(), batch,
                     options.threads, options.worker_pool, vopt);
  if (!recorded.empty()) {
    options.plan_cache->store_tape(
        *plan, std::make_shared<const VmTape>(std::move(recorded)));
  }

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

// What every process body of one interpreter run shares. It lives in
// run_on_interp's frame and outlives the scheduler run.
struct InterpRun {
  const BytecodeProgram* prog = nullptr;
  const NetworkPlan* plan = nullptr;
  Channel* const* chans = nullptr;  ///< by plan channel id
  const Value* in = nullptr;        ///< input values, aligned with plan->elems
  Value* regs = nullptr;            ///< the register file, prog->num_regs
  IndexedStore* store = nullptr;
  Trace* trace = nullptr;
};

// One process: step its slice of the lowered program through the
// scheduler's awaiters. Coroutine bodies take every datum BY VALUE so it
// is copied into the coroutine frame (lambda captures would dangle once
// spawn() returns); the run state they point to outlives the run.
Task process_body(Ctx ctx, const InterpRun* run, std::uint32_t pi) {
  using Op = BytecodeProgram::Op;
  const BytecodeProgram& prog = *run->prog;
  const NetworkPlan& plan = *run->plan;
  Channel* const* chans = run->chans;
  Value* regs = run->regs;
  const BytecodeProgram::ProcCode code = prog.procs[pi];
  // The par sets, built once over the process's slice of the par tables
  // (its recv table, then its send table) and reused by every repeater
  // iteration: only the send payloads are refreshed.
  std::vector<CommOp> par;
  std::int32_t par_base = 0;
  std::vector<Value> vals;  // the statement's operands, by stream id
  IntVec x;                 // the statement's point
  for (std::uint32_t pc = code.begin; pc < code.end; ++pc) {
    const BytecodeProgram::Insn& insn = prog.code[pc];
    if (insn.op == Op::Compute) {
      vals.assign(plan.streams.size(), 0);
      x = prog.comps[static_cast<std::size_t>(insn.a)].first_x;
    }
    if (insn.op != Op::ParRecv && insn.op != Op::ParSend) continue;
    if (par.empty()) par_base = insn.a;
    par.resize(static_cast<std::size_t>(insn.a + insn.b - par_base));
    for (std::int32_t j = insn.a; j < insn.a + insn.b; ++j) {
      const BytecodeProgram::ParEntry& e = prog.par[j];
      par[j - par_base] = insn.op == Op::ParRecv
                              ? ctx.recv_op(*chans[e.chan], regs[e.reg])
                              : ctx.send_op(*chans[e.chan], 0);
    }
  }
  Int loop_iter = 0;
  for (std::uint32_t pc = code.begin;;) {
    const BytecodeProgram::Insn& insn = prog.code[pc];
    switch (insn.op) {
      case Op::SendIn:
        for (Int i = 0; i < insn.count; ++i) {
          co_await ctx.send(*chans[insn.a], run->in[insn.b + i]);
        }
        break;
      case Op::RecvOut: {
        // Write through to the store, so a faulted run's partial results
        // stay observable.
        const std::string& var = plan.streams[plan.procs[pi].stream];
        for (Int i = 0; i < insn.count; ++i) {
          Value v = 0;
          co_await ctx.recv(*chans[insn.a], v);
          run->store->set(var, plan.elems[insn.b + i], v);
        }
        break;
      }
      case Op::Pass:
        for (Int i = 0; i < insn.count; ++i) {
          co_await ctx.recv(*chans[insn.a], regs[insn.c]);
          co_await ctx.send(*chans[insn.b], regs[insn.c]);
        }
        break;
      case Op::RecvReg:
        co_await ctx.recv(*chans[insn.a], regs[insn.c]);
        break;
      case Op::SendReg:
        co_await ctx.send(*chans[insn.a], regs[insn.c]);
        break;
      case Op::ParRecv:
        co_await ctx.par(par.data() + (insn.a - par_base),
                         static_cast<std::size_t>(insn.b));
        break;
      case Op::ParSend: {
        CommOp* ops = par.data() + (insn.a - par_base);
        for (std::int32_t j = 0; j < insn.b; ++j) {
          ops[j].value = regs[prog.par[insn.a + j].reg];
        }
        co_await ctx.par(ops, static_cast<std::size_t>(insn.b));
        break;
      }
      case Op::Compute: {
        const BytecodeProgram::CompMeta& meta =
            prog.comps[static_cast<std::size_t>(insn.a)];
        const std::size_t nslots = meta.slot_reg.size();
        for (std::size_t i = 0; i < nslots; ++i) {
          vals[meta.slot_stream[i]] = regs[meta.slot_reg[i]];
        }
        plan.body.apply(x, vals.data());
        for (std::size_t i = 0; i < nslots; ++i) {
          regs[meta.slot_reg[i]] = vals[meta.slot_stream[i]];
        }
        ctx.tick_statement();
        if (run->trace != nullptr) {
          run->trace->statements.push_back(StatementEvent{
              proc_place(plan, pi), loop_iter, ctx.process().time()});
        }
        x += plan.increment;
        break;
      }
      case Op::LoopEnd:
        if (++loop_iter < insn.count) {
          pc -= static_cast<std::uint32_t>(insn.b);
          continue;
        }
        loop_iter = 0;
        break;
      case Op::Halt:
        co_return;
    }
    ++pc;
  }
}

// The interpreter: stand the network up on the coroutine scheduler and
// run one instance of the lowered program. Output processes write
// through to the store, so a faulted run's partial results stay
// observable.
void run_on_interp(const BytecodeProgram& prog, const NetworkPlan& plan,
                   IndexedStore& store, const InstantiateOptions& options,
                   RunMetrics& metrics) {
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
  for (std::size_t c = 0; c < plan.channels.size(); ++c) {
    chans.push_back(
        &sched.make_channel(channel_name(plan, c), plan.channels[c].capacity));
  }
  std::vector<Value> regs(prog.num_regs, 0);
  const InterpRun run{&prog,       &plan,  chans.data(), in_values.data(),
                      regs.data(), &store, options.trace};
  std::vector<Process*> procs;
  procs.reserve(plan.procs.size());
  for (std::uint32_t pi = 0; pi < plan.procs.size(); ++pi) {
    const NetworkPlan::ProcSpec& spec = plan.procs[pi];
    Clock* clock = spec.clock >= 0 ? &clocks[spec.clock] : nullptr;
    procs.push_back(&sched.spawn(
        proc_name(plan, pi),
        [&run, pi](Ctx ctx) { return process_body(ctx, &run, pi); }, clock));
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
  // one lowered program; the schedule metrics are identical per instance.
  if (options.backend == Backend::Auto) metrics.fallback_reason = blocker;
  PlanCache::BytecodeStats bc_stats;
  const std::shared_ptr<const BytecodeProgram> prog =
      lowered(plan, options, bc_stats);
  for (std::size_t i = 0; i < batch; ++i) {
    run_on_interp(*prog, *plan, stores[i], options, metrics);
  }
  return metrics;
}

}  // namespace systolize

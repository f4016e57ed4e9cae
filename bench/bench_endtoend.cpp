// Experiment X-RUN (EXPERIMENTS.md): the Sect.-8 claim that the generated
// programs execute correctly on parallel machines, reproduced on the
// simulator substrate for every catalog design; throughput of the whole
// compile -> instantiate -> execute -> verify pipeline.
#include "analysis/cost.hpp"
#include "bench_util.hpp"
#include "fuzz/fuzz.hpp"
#include "runtime/plan_template.hpp"
#include "systolic/enumerate.hpp"
#include "runtime/scheduler.hpp"
#include "service/executor.hpp"

namespace systolize::bench {
namespace {

void endtoend(benchmark::State& state, const std::string& name, Int n) {
  Design design = design_by_name(name);
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, n);
  PlanCache cache;
  InstantiateOptions options;
  options.plan_cache = &cache;
  bool verified = false;
  RunMetrics last{};
  for (auto _ : state) {
    IndexedStore store = seeded_store(design, sizes);
    IndexedStore expected = store;
    run_sequential(design.nest, sizes, expected);
    last = execute(prog, design.nest, sizes, store, options);
    verified = true;
    for (const Stream& s : design.nest.streams()) {
      if (store.elements(s.name()) != expected.elements(s.name())) {
        verified = false;
      }
    }
    benchmark::DoNotOptimize(store);
  }
  if (!verified) state.SkipWithError("result mismatch against sequential");
  state.counters["n"] = static_cast<double>(n);
  state.counters["verified"] = verified ? 1.0 : 0.0;
  state.counters["processes"] = static_cast<double>(last.process_count);
  state.counters["makespan"] = static_cast<double>(last.makespan);
}

void BM_EndToEnd_Polyprod1(benchmark::State& s) { endtoend(s, "polyprod1", 16); }
void BM_EndToEnd_Polyprod2(benchmark::State& s) { endtoend(s, "polyprod2", 16); }
void BM_EndToEnd_Matmul1(benchmark::State& s) { endtoend(s, "matmul1", 6); }
void BM_EndToEnd_Matmul2(benchmark::State& s) { endtoend(s, "matmul2", 6); }
void BM_EndToEnd_Matmul3(benchmark::State& s) { endtoend(s, "matmul3", 6); }
void BM_EndToEnd_Convolution(benchmark::State& s) {
  endtoend(s, "convolution", 16);
}
void BM_EndToEnd_Correlation(benchmark::State& s) {
  endtoend(s, "correlation", 16);
}

BENCHMARK(BM_EndToEnd_Polyprod1);
BENCHMARK(BM_EndToEnd_Polyprod2);
BENCHMARK(BM_EndToEnd_Matmul1);
BENCHMARK(BM_EndToEnd_Matmul2);
BENCHMARK(BM_EndToEnd_Matmul3);
BENCHMARK(BM_EndToEnd_Convolution);
BENCHMARK(BM_EndToEnd_Correlation);

// ---------------------------------------------------------------------
// Native bytecode backend (docs/performance.md "Native backend &
// batching"): the same network, bit-identical results, no coroutines.
// BM_BytecodeVsInterp_* isolates the engine swap at batch 1;
// BM_BatchSweep measures SoA multi-instance batching (one schedule walk
// for N instances) against BM_BatchSweep_Interp's sequential
// run-them-one-by-one baseline — the per-instance gap at batch 8/64 is
// the headline number.

IndexedStore seeded_lane(const Design& design, const Env& sizes, Int b) {
  return make_initial_store(
      design.nest, sizes, [b](const std::string& var, const IntVec& p) {
        Value h = 1099511628211LL * (var.empty() ? 7 : var[0]);
        for (std::size_t i = 0; i < p.dim(); ++i) h = h * 31 + p[i];
        return (h + 13 * b) % 17 - 8;
      });
}

void bytecode_vs_interp(benchmark::State& state, Backend backend) {
  Design design = design_by_name("matmul2");
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 6);
  PlanCache cache;
  InstantiateOptions options;
  options.plan_cache = &cache;
  options.backend = backend;
  RunMetrics last{};
  for (auto _ : state) {
    IndexedStore store = seeded_store(design, sizes);
    last = execute(prog, design.nest, sizes, store, options);
    benchmark::DoNotOptimize(store);
  }
  state.counters["makespan"] = static_cast<double>(last.makespan);
}

void BM_BytecodeVsInterp_Interp(benchmark::State& s) {
  bytecode_vs_interp(s, Backend::Interp);
}
void BM_BytecodeVsInterp_Bytecode(benchmark::State& s) {
  bytecode_vs_interp(s, Backend::Bytecode);
}
BENCHMARK(BM_BytecodeVsInterp_Interp);
BENCHMARK(BM_BytecodeVsInterp_Bytecode);

void batch_sweep(benchmark::State& state, Backend backend) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  Design design = design_by_name("matmul2");
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 6);
  PlanCache cache;
  InstantiateOptions options;
  options.plan_cache = &cache;
  options.backend = backend;
  for (auto _ : state) {
    std::vector<IndexedStore> stores;
    stores.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      stores.push_back(seeded_lane(design, sizes, static_cast<Int>(b)));
    }
    RunMetrics m = execute_batch(prog, design.nest, sizes, stores.data(),
                                 batch, options);
    benchmark::DoNotOptimize(stores);
    benchmark::DoNotOptimize(m);
  }
  // items/s is instances per second — the cross-batch comparable rate.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch));
}

void BM_BatchSweep(benchmark::State& s) {
  batch_sweep(s, Backend::Bytecode);
}
void BM_BatchSweep_Interp(benchmark::State& s) {
  batch_sweep(s, Backend::Interp);
}
BENCHMARK(BM_BatchSweep)->Arg(1)->Arg(8)->Arg(64);
BENCHMARK(BM_BatchSweep_Interp)->Arg(1)->Arg(8)->Arg(64);

// ---------------------------------------------------------------------
// Differential fuzzing throughput (PR10): samples generated AND driven
// through the whole oracle — parse, compile, static verify, then both
// engines (interp, bytecode solo + batch=3) cross-checked against the
// sequential baseline. items/s is oracle verdicts per second; any
// disagreement fails the bench outright.

void BM_FuzzThroughput(benchmark::State& state) {
  fuzz::GeneratorOptions gen;
  fuzz::OracleOptions oracle;
  std::size_t index = 0;
  std::size_t disagreements = 0;
  for (auto _ : state) {
    const fuzz::FuzzSample sample = fuzz::generate_sample(99, index++, gen);
    const fuzz::OracleResult verdict = fuzz::classify(sample, oracle);
    if (fuzz::is_disagreement(verdict.outcome)) ++disagreements;
    benchmark::DoNotOptimize(verdict);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (disagreements != 0) {
    state.SkipWithError("fuzz oracle found a disagreement");
  }
}
BENCHMARK(BM_FuzzThroughput);

// ---------------------------------------------------------------------
// Plan-construction microbenchmarks: the integer-only
// expand_template per size (BM_PlanExpand_*), and the whole one-plan path
// that build_plan runs, compile_template plus one expansion
// (BM_PlanCompileExpand_*); their difference is the one-off template cost
// a PlanCache amortizes.

void plan_expand(benchmark::State& state, const std::string& name) {
  Design design = design_by_name(name);
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, state.range(0));
  auto tmpl = compile_template(prog, design.nest, PlanShape{});
  std::size_t procs = 0;
  for (auto _ : state) {
    auto plan = expand_template(*tmpl, sizes);
    procs = plan->procs.size();
    benchmark::DoNotOptimize(plan);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["processes"] = static_cast<double>(procs);
  state.counters["template_bytes"] = static_cast<double>(tmpl->memory_bytes());
}

void plan_compile_expand(benchmark::State& state, const std::string& name) {
  Design design = design_by_name(name);
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, state.range(0));
  for (auto _ : state) {
    auto tmpl = compile_template(prog, design.nest, PlanShape{});
    auto plan = expand_template(*tmpl, sizes);
    benchmark::DoNotOptimize(plan);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
}

void BM_PlanExpand_Polyprod1(benchmark::State& s) {
  plan_expand(s, "polyprod1");
}
void BM_PlanExpand_Matmul2(benchmark::State& s) { plan_expand(s, "matmul2"); }
void BM_PlanExpand_Convolution(benchmark::State& s) {
  plan_expand(s, "convolution");
}
void BM_PlanCompileExpand_Polyprod1(benchmark::State& s) {
  plan_compile_expand(s, "polyprod1");
}
void BM_PlanCompileExpand_Matmul2(benchmark::State& s) {
  plan_compile_expand(s, "matmul2");
}

BENCHMARK(BM_PlanExpand_Polyprod1)->Arg(16)->Arg(64);
BENCHMARK(BM_PlanExpand_Matmul2)->Arg(6)->Arg(10);
BENCHMARK(BM_PlanExpand_Convolution)->Arg(16);
BENCHMARK(BM_PlanCompileExpand_Polyprod1)->Arg(16);
BENCHMARK(BM_PlanCompileExpand_Matmul2)->Arg(6);

/// Cold-size serving loop: every request arrives with a size the plan
/// cache has never kept (a 1-byte budget evicts all but the newest
/// entry, and the sweep rotates through more sizes than that), so each
/// lookup pays one template expansion on the cached template.
void cold_size_sweep(benchmark::State& state, const std::string& name) {
  Design design = design_by_name(name);
  CompiledProgram prog = compile(design.nest, design.spec);
  std::vector<Env> sweep;
  const Int base = state.range(0);
  for (Int n = base; n < base + 12; ++n) {
    sweep.push_back(sizes_for(design, n));
  }
  PlanCache cache(1);  // evicts every plan except the newest
  std::size_t i = 0;
  for (auto _ : state) {
    const Env& sizes = sweep[i++ % sweep.size()];
    auto plan = cache.lookup_or_build(prog, design.nest, sizes, PlanShape{});
    benchmark::DoNotOptimize(plan);
  }
  state.counters["n"] = static_cast<double>(base);
  state.counters["template_compiles"] =
      static_cast<double>(cache.template_compiles());
  state.counters["evictions"] = static_cast<double>(cache.evictions());
}

void BM_ColdSizeSweep_Polyprod1(benchmark::State& s) {
  cold_size_sweep(s, "polyprod1");
}
void BM_ColdSizeSweep_Matmul2(benchmark::State& s) {
  cold_size_sweep(s, "matmul2");
}

BENCHMARK(BM_ColdSizeSweep_Polyprod1)->Arg(16);
BENCHMARK(BM_ColdSizeSweep_Matmul2)->Arg(6);

/// Raw substrate throughput: rendezvous transfers per second through a
/// long relay pipeline (sizes the simulator itself, independent of any
/// design).
void BM_SubstrateRelayChain(benchmark::State& state) {
  const Int stages = state.range(0);
  const Value values = 64;
  Int transfers = 0;
  for (auto _ : state) {
    Scheduler sched;
    std::vector<Channel*> chans;
    for (Int i = 0; i <= stages; ++i) {
      chans.push_back(
          &sched.make_channel(std::string("c").append(std::to_string(i))));
    }
    struct Bodies {
      static Task feed(Ctx ctx, Channel* out, Value count) {
        for (Value v = 0; v < count; ++v) co_await ctx.send(*out, v);
      }
      static Task relay(Ctx ctx, Channel* in, Channel* out, Value count) {
        for (Value v = 0; v < count; ++v) {
          Value x = 0;
          co_await ctx.recv(*in, x);
          co_await ctx.send(*out, x);
        }
      }
      static Task sink(Ctx ctx, Channel* in, Value count) {
        for (Value v = 0; v < count; ++v) {
          Value x = 0;
          co_await ctx.recv(*in, x);
          benchmark::DoNotOptimize(x);
        }
      }
    };
    Channel* head = chans.front();
    sched.spawn("feed", [head](Ctx c) { return Bodies::feed(c, head, values); });
    for (Int i = 0; i < stages; ++i) {
      Channel* in = chans[i];
      Channel* out = chans[i + 1];
      sched.spawn("relay" + std::to_string(i), [in, out](Ctx c) {
        return Bodies::relay(c, in, out, values);
      });
    }
    Channel* tail = chans.back();
    sched.spawn("sink", [tail](Ctx c) { return Bodies::sink(c, tail, values); });
    sched.run();
    transfers = sched.total_transfers();
  }
  state.counters["transfers_per_run"] = static_cast<double>(transfers);
  state.SetItemsProcessed(state.iterations() * transfers);
}
BENCHMARK(BM_SubstrateRelayChain)->Arg(16)->Arg(64)->Arg(256);

// ------------------------------------------------------------ service path
// What a daemon buys over one-shot invocation: a warm serve request rides
// the shared compile cache (stable program generation) and plan cache
// (template + plan hits), while a cold request — the CLI model — pays
// compile + template + expansion every time. Same request, same engine;
// the delta is the daemon's amortization. Recorded in BENCH_runtime.json
// via `tools/bench.sh PR6-serve --benchmark_filter=BM_Serve`.
void BM_ServeWarmRequest(benchmark::State& state) {
  service::ExecutorConfig cfg;
  cfg.default_wall_timeout_ms = 0;  // no deadline thread in the hot loop
  service::Executor executor(cfg);
  service::Request req;
  req.op = "run";
  req.design = "matmul2";
  req.n = state.range(0);
  (void)executor.handle(req);  // prime compile + template + plan caches
  for (auto _ : state) {
    service::Response r = executor.handle(req);
    if (r.status != "ok") state.SkipWithError(r.message.c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["plan_hits"] =
      static_cast<double>(executor.plan_cache().hits());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeWarmRequest)->Arg(4)->Arg(6);

void BM_ServeColdRequest(benchmark::State& state) {
  service::Request req;
  req.op = "run";
  req.design = "matmul2";
  req.n = state.range(0);
  for (auto _ : state) {
    // A fresh executor per request: every cache is cold, exactly the
    // work a one-shot `systolize run` does (minus process startup).
    service::ExecutorConfig cfg;
    cfg.default_wall_timeout_ms = 0;
    service::Executor executor(cfg);
    service::Response r = executor.handle(req);
    if (r.status != "ok") state.SkipWithError(r.message.c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeColdRequest)->Arg(4)->Arg(6);

// -------------------------------------------------------- static analysis
// The PR8 cost model and design-space search. BM_AnalyzeCost is the cold
// `systolize analyze` path (formulas + plan interning + metrics, zero
// scheduler rounds); BM_ExploreMatmul2 is the `--same-projection` search
// the CI smoke runs — enumerate, prune, compile, verify and rank every
// candidate sharing matmul2's projection. Recorded in BENCH_runtime.json
// as 'PR8-explore'.
void BM_AnalyzeCost(benchmark::State& state) {
  Design design = design_by_name("matmul2");
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, state.range(0));
  Int processes = 0;
  for (auto _ : state) {
    CostReport report = analyze_cost(prog, design.nest, {sizes});
    processes = report.at.back().metrics.processes;
    benchmark::DoNotOptimize(report);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["processes"] = static_cast<double>(processes);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyzeCost)->Arg(6)->Arg(10);

void BM_ExploreMatmul2(benchmark::State& state) {
  Design design = design_by_name("matmul2");
  EnumerateOptions options;
  options.same_projection = true;
  Env sizes = sizes_for(design, state.range(0));
  options.sizes = {sizes};
  std::size_t survivors = 0;
  bool seed_first = true;
  for (auto _ : state) {
    ExploreResult result =
        enumerate_designs(design.nest, &design.spec, options);
    survivors = result.stats.survivors;
    seed_first = !result.ranked.empty() && result.ranked.front().matches_seed;
    benchmark::DoNotOptimize(result);
  }
  if (!seed_first) {
    state.SkipWithError("seed design did not rank first in its own space");
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["survivors"] = static_cast<double>(survivors);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExploreMatmul2)->Arg(4);

}  // namespace
}  // namespace systolize::bench

BENCHMARK_MAIN();

// PlanCache behaviour: generation-id keying (no address aliasing), LRU
// byte-budget eviction, and thread-safety of the two cache levels —
// including the guarantee that a template is compiled exactly once per
// (program, shape) key no matter how many threads race for it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "runtime/instantiate.hpp"
#include "runtime/plan_template.hpp"
#include "scheme/compiler.hpp"

namespace systolize {
namespace {

Env sizes_for(const Design& design, Int n) {
  Env env{{"n", Rational(n)}};
  for (const Symbol& s : design.nest.sizes()) {
    if (!env.contains(s.name())) {
      env[s.name()] = Rational(std::max<Int>(1, n / 2));
    }
  }
  return env;
}

// Regression for the keying footgun the address-based cache documented
// ("don't feed one cache two different programs at the same address and
// name"): polyprod1 and polyprod2 share the nest (so program name and
// depth agree), and reassigning `prog` reuses the same storage — the old
// (address, name, depth) key collides, the generation id does not.
TEST(PlanCache, ProgramsReusingAnAddressDoNotAlias) {
  Design d1 = design_by_name("polyprod1");
  Design d2 = design_by_name("polyprod2");
  PlanCache cache;
  Env sizes = sizes_for(d1, 6);

  CompiledProgram prog = compile(d1.nest, d1.spec);
  ASSERT_EQ(prog.name, compile(d2.nest, d2.spec).name)
      << "designs must share a name for the regression to bite";
  auto first = cache.lookup_or_build(prog, d1.nest, sizes, PlanShape{});

  prog = compile(d2.nest, d2.spec);  // same address, same name, new program
  auto second = cache.lookup_or_build(prog, d2.nest, sizes, PlanShape{});

  EXPECT_EQ(cache.misses(), 2u) << "second program must not hit the first's"
                                   " entry";
  EXPECT_EQ(cache.template_compiles(), 2u);
  // And the plan served for the second program is really the second
  // design's network, not a stale alias.
  auto reference = build_plan(prog, d2.nest, sizes, PlanShape{});
  ASSERT_EQ(second->procs.size(), reference->procs.size());
  for (std::size_t i = 0; i < reference->procs.size(); ++i) {
    EXPECT_EQ(proc_name(*second, i), proc_name(*reference, i)) << i;
  }
  EXPECT_NE(first.get(), second.get());
}

// Copies keep their generation (same derivation => same cache identity).
TEST(PlanCache, CopiedProgramSharesCacheEntries) {
  Design design = design_by_name("matmul2");
  PlanCache cache;
  Env sizes = sizes_for(design, 4);
  CompiledProgram prog = compile(design.nest, design.spec);
  CompiledProgram copy = prog;
  EXPECT_EQ(prog.generation, copy.generation);
  (void)cache.lookup_or_build(prog, design.nest, sizes, PlanShape{});
  (void)cache.lookup_or_build(copy, design.nest, sizes, PlanShape{});
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PlanCache, LruEvictsUnderByteBudgetAndKeepsHandedOutPlansValid) {
  Design design = design_by_name("polyprod1");
  CompiledProgram prog = compile(design.nest, design.spec);

  // Budget sized to roughly two plans of the sweep: the third insert must
  // evict the least recently used entry.
  Env probe_sizes = sizes_for(design, 8);
  const std::size_t one_plan =
      build_plan(prog, design.nest, probe_sizes, PlanShape{})->memory_bytes();
  PlanCache cache(2 * one_plan + one_plan / 2);

  auto p8 = cache.lookup_or_build(prog, design.nest, probe_sizes, PlanShape{});
  const std::size_t p8_procs = p8->procs.size();
  const std::string p8_front = proc_name(*p8, 0);
  (void)cache.lookup_or_build(prog, design.nest, sizes_for(design, 9),
                              PlanShape{});
  (void)cache.lookup_or_build(prog, design.nest, sizes_for(design, 10),
                              PlanShape{});

  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_LE(cache.size(), 2u);
  EXPECT_LE(cache.bytes(), cache.byte_budget());
  EXPECT_EQ(cache.template_compiles(), 1u)
      << "eviction is plan-level only; the template survives";

  // The evicted n=8 plan we still hold remains fully usable.
  EXPECT_EQ(p8->procs.size(), p8_procs);
  EXPECT_EQ(proc_name(*p8, 0), p8_front);

  // Re-requesting the evicted size is a plan miss but a template hit.
  const std::size_t misses_before = cache.misses();
  PlanCache::LookupStats stats;
  (void)cache.lookup_or_build(prog, design.nest, probe_sizes, PlanShape{},
                              &stats);
  EXPECT_EQ(cache.misses(), misses_before + 1);
  EXPECT_FALSE(stats.plan_hit);
  EXPECT_TRUE(stats.template_hit);
}

TEST(PlanCache, DefaultBudgetSeesNoEvictions) {
  Design design = design_by_name("matmul2");
  CompiledProgram prog = compile(design.nest, design.spec);
  PlanCache cache;
  for (Int n = 2; n <= 8; ++n) {
    (void)cache.lookup_or_build(prog, design.nest, sizes_for(design, n),
                                PlanShape{});
  }
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.size(), 7u);
  EXPECT_LT(cache.bytes(), cache.byte_budget());
}

TEST(PlanCache, MetricsSurfaceCacheOutcomes) {
  Design design = design_by_name("convolution");
  CompiledProgram prog = compile(design.nest, design.spec);
  PlanCache cache;
  InstantiateOptions opt;
  opt.plan_cache = &cache;
  Env sizes = sizes_for(design, 6);
  IndexedStore store = make_initial_store(
      design.nest, sizes,
      [](const std::string&, const IntVec&) { return 1; });
  IndexedStore again = store;

  RunMetrics cold = execute(prog, design.nest, sizes, store, opt);
  EXPECT_FALSE(cold.plan_reused);
  EXPECT_FALSE(cold.template_reused);
  EXPECT_GT(cold.plan_expand_ns, 0);
  EXPECT_GT(cold.plan_cache_bytes, 0u);

  RunMetrics warm = execute(prog, design.nest, sizes, again, opt);
  EXPECT_TRUE(warm.plan_reused);
  EXPECT_TRUE(warm.template_reused);
  EXPECT_EQ(warm.plan_expand_ns, 0);

  IndexedStore cold2_store = make_initial_store(
      design.nest, sizes_for(design, 7),
      [](const std::string&, const IntVec&) { return 1; });
  RunMetrics cold_size = execute(prog, design.nest, sizes_for(design, 7),
                                 cold2_store, opt);
  EXPECT_FALSE(cold_size.plan_reused);
  EXPECT_TRUE(cold_size.template_reused)
      << "a never-seen size reuses the compiled template";
}

// N threads hammer one cache with mixed designs and mixed sizes. Every
// (program, shape) key must compile its template exactly once, and every
// plan handed out must be complete and internally consistent. Run under
// SYSTOLIZE_SANITIZE=thread for the TSAN proof.
TEST(PlanCache, ConcurrentHammeringCompilesEachTemplateOnce) {
  struct Case {
    Design design;
    CompiledProgram prog;
    std::vector<std::size_t> expected_procs;  // per size
  };
  const std::vector<std::string> names = {"polyprod1", "matmul2",
                                          "correlation"};
  const std::vector<Int> ns = {3, 4, 5, 6};
  std::vector<Case> cases;
  for (const std::string& name : names) {
    Design design = design_by_name(name);
    CompiledProgram prog = compile(design.nest, design.spec);
    std::vector<std::size_t> expected;
    for (Int n : ns) {
      expected.push_back(
          build_plan(prog, design.nest, sizes_for(design, n), PlanShape{})
              ->procs.size());
    }
    cases.push_back(Case{std::move(design), std::move(prog), expected});
  }

  PlanCache cache;
  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t ci = (t + i) % cases.size();
        const std::size_t si = (t * 7 + i) % ns.size();
        const Case& c = cases[ci];
        auto plan = cache.lookup_or_build(
            c.prog, c.design.nest, sizes_for(c.design, ns[si]), PlanShape{});
        if (plan == nullptr ||
            plan->procs.size() != c.expected_procs[si]) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  EXPECT_EQ(cache.template_compiles(), names.size())
      << "duplicate template compilation detected";
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::size_t>(kThreads) * kIters);
  EXPECT_EQ(cache.size(), names.size() * ns.size());
}

// Two workers racing the first run of one plan both walk and both try to
// publish a tape: the first insert wins, one tape is stored, and every run
// — walked or replayed — matches the sequential baseline.
TEST(PlanCache, RacingFirstRunsStoreOneTape) {
  Design design = design_by_name("matmul2");
  CompiledProgram prog = compile(design.nest, design.spec);
  const Env sizes = sizes_for(design, 5);
  IndexedStore expected = make_initial_store(
      design.nest, sizes, [](const std::string&, const IntVec& p) {
        return p.dim() > 0 ? p[0] + 2 : 1;
      });
  IndexedStore seed = expected;
  run_sequential(design.nest, sizes, expected);
  for (int round = 0; round < 8; ++round) {
    PlanCache cache;
    InstantiateOptions opt;
    opt.plan_cache = &cache;
    constexpr int kThreads = 2;
    constexpr int kRuns = 3;
    std::atomic<int> ready{0};
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (int r = 0; r < kRuns; ++r) {
          IndexedStore store = seed;
          (void)execute(prog, design.nest, sizes, store, opt);
          if (!(store == expected)) ++mismatches[t];
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
    EXPECT_EQ(cache.tapes(), 1u);
    EXPECT_EQ(cache.bytecode_size(), 1u);
  }
}

// The daemon's worst case: many client threads, several distinct program
// generations (fresh compiles of the same designs), and a byte budget so
// small that plans churn through the LRU constantly. Every lookup must
// still return a correct, self-contained plan — eviction only drops the
// cache's reference, never a handed-out one.
TEST(PlanCache, ConcurrentMultiClientMixedGenerationsUnderTinyBudget) {
  const std::vector<std::string> names = {"polyprod1", "matmul2"};
  struct Variant {
    Design design;
    CompiledProgram prog;  // each carries its own generation
  };
  std::vector<Variant> variants;
  for (const std::string& name : names) {
    for (int copy = 0; copy < 2; ++copy) {  // two generations per design
      Design design = design_by_name(name);
      CompiledProgram prog = compile(design.nest, design.spec);
      variants.push_back(Variant{std::move(design), std::move(prog)});
    }
  }
  const std::vector<Int> ns = {3, 4, 5};
  std::vector<std::vector<std::size_t>> expected(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (Int n : ns) {
      expected[v].push_back(build_plan(variants[v].prog, variants[v].design.nest,
                                       sizes_for(variants[v].design, n),
                                       PlanShape{})
                                ->procs.size());
    }
  }

  PlanCache cache(16 * 1024);  // tiny: a couple of plans at most
  constexpr int kThreads = 8;
  constexpr int kIters = 30;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t vi = (t * 3 + i) % variants.size();
        const std::size_t si = (t + i * 5) % ns.size();
        const Variant& v = variants[vi];
        auto plan = cache.lookup_or_build(
            v.prog, v.design.nest, sizes_for(v.design, ns[si]), PlanShape{});
        if (plan == nullptr || plan->procs.size() != expected[vi][si]) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  // Four generations (two per design), templates never evicted: exactly
  // one template compile per generation despite the churn below.
  EXPECT_EQ(cache.template_compiles(), variants.size());
  EXPECT_GT(cache.evictions(), 0u) << "budget was meant to force churn";
  EXPECT_LE(cache.bytes(), std::size_t{16} * 1024 + (1u << 20))
      << "bytes may overshoot by at most one plan (the keep->=1 rule)";
}

// The degradation lever raced against lookups: shrinking and restoring
// the byte budget mid-traffic must neither crash, nor corrupt accounting,
// nor invalidate plans already handed out.
TEST(PlanCache, SetByteBudgetRacesWithLookupsSafely) {
  Design design = design_by_name("polyprod1");
  CompiledProgram prog = compile(design.nest, design.spec);
  const std::vector<Int> ns = {3, 4, 5, 6, 7};
  std::vector<std::size_t> expected;
  for (Int n : ns) {
    expected.push_back(
        build_plan(prog, design.nest, sizes_for(design, n), PlanShape{})
            ->procs.size());
  }

  PlanCache cache;  // start at the default budget
  std::atomic<bool> stop{false};
  std::thread resizer([&] {
    // Oscillate between generous and starving budgets.
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      cache.set_byte_budget(i % 2 == 0 ? 4 * 1024 : 64 * 1024 * 1024);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  constexpr int kThreads = 6;
  constexpr int kIters = 60;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t si = (t + i) % ns.size();
        auto plan = cache.lookup_or_build(
            prog, design.nest, sizes_for(design, ns[si]), PlanShape{});
        if (plan == nullptr || plan->procs.size() != expected[si]) {
          ++failures[t];
          continue;
        }
        // Touch the plan after (possibly) being evicted underneath us:
        // handed-out shared_ptrs stay fully valid.
        if (plan->channels.empty() || plan->elems.empty()) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  resizer.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  // Accounting stayed coherent through the churn.
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::size_t>(kThreads) * kIters);
  cache.set_byte_budget(1);  // final shrink: at most one survivor
  EXPECT_LE(cache.size(), 1u);
}

}  // namespace
}  // namespace systolize

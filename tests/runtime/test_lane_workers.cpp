// Lane workers: InstantiateOptions::threads and worker_pool split the SoA
// lanes of a batched VM dispatch (run_vm_batched) into chunks, one per
// worker. Every chunk replays the whole schedule over its own lanes, so
// results and schedule metrics are bit-identical to a one-worker batch.
// A solo run has one lane and runs on the caller. Under TSan these tests
// double as the race check of the pool hand-off and the chunk claim loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "runtime/instantiate.hpp"
#include "runtime/worker_pool.hpp"
#include "scheme/compiler.hpp"

namespace systolize {
namespace {

Env sizes_for(const Design& design, Int n) {
  Env env{{"n", Rational(n)}};
  for (const Symbol& s : design.nest.sizes()) {
    if (!env.contains(s.name())) {
      env[s.name()] = Rational(std::max<Int>(1, n - 1));
    }
  }
  return env;
}

/// `lanes` stores, lane b perturbed by b so no two lanes agree.
std::vector<IndexedStore> seeded_lanes(const Design& design, const Env& sizes,
                                       std::size_t lanes) {
  std::vector<IndexedStore> stores;
  for (std::size_t b = 0; b < lanes; ++b) {
    stores.push_back(make_initial_store(
        design.nest, sizes, [b](const std::string& var, const IntVec& p) {
          Value h = var.empty() ? 1 : var[0];
          for (std::size_t i = 0; i < p.dim(); ++i) h = h * 31 + p[i];
          return (h + 13 * static_cast<Value>(b)) % 23 - 11;
        }));
  }
  return stores;
}

void expect_same_lanes(const Design& design,
                       const std::vector<IndexedStore>& a,
                       const std::vector<IndexedStore>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t lane = 0; lane < a.size(); ++lane) {
    for (const Stream& s : design.nest.streams()) {
      EXPECT_EQ(a[lane].elements(s.name()), b[lane].elements(s.name()))
          << what << " lane " << lane << " stream " << s.name();
    }
  }
}

void expect_same_schedule(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_transfers, b.total_transfers);
  EXPECT_EQ(a.statements, b.statements);
  EXPECT_EQ(a.scheduler_rounds, b.scheduler_rounds);
  EXPECT_EQ(a.transfers_per_stream, b.transfers_per_stream);
}

TEST(LaneWorkers, WorkerPoolIsReusedAcrossRuns) {
  Design design = design_by_name("matmul2");
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 4);
  constexpr std::size_t kLanes = 8;
  std::vector<IndexedStore> one_worker = seeded_lanes(design, sizes, kLanes);
  const std::vector<IndexedStore> base = one_worker;
  RunMetrics seq = execute_batch(prog, design.nest, sizes, one_worker.data(),
                                 kLanes, {});
  ASSERT_EQ(seq.backend, "bytecode");
  WorkerPool pool(4);
  for (int rep = 0; rep < 6; ++rep) {
    std::vector<IndexedStore> pooled = base;
    InstantiateOptions opt;
    opt.threads = 4;
    opt.worker_pool = &pool;
    RunMetrics par = execute_batch(prog, design.nest, sizes, pooled.data(),
                                   kLanes, opt);
    expect_same_lanes(design, one_worker, pooled, "pooled");
    expect_same_schedule(seq, par);
  }
  // The run borrows its extra workers from the pool; the caller is
  // worker 0, so at most capacity() threads ever get spawned, once.
  EXPECT_LE(pool.spawned(), pool.capacity());
}

TEST(LaneWorkers, PoolSmallerThanRequestStillCompletes) {
  // A saturated pool hands a run fewer live workers than requested; the
  // caller-as-worker-0 rule plus the chunk claim loop means every chunk
  // still runs and the batch finishes with the right answer.
  Design design = design_by_name("matmul2");
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 3);
  constexpr std::size_t kLanes = 8;
  std::vector<IndexedStore> one_worker = seeded_lanes(design, sizes, kLanes);
  std::vector<IndexedStore> pooled = one_worker;
  RunMetrics seq = execute_batch(prog, design.nest, sizes, one_worker.data(),
                                 kLanes, {});
  WorkerPool pool(1);  // one pool thread for an 8-worker request
  InstantiateOptions opt;
  opt.threads = 8;
  opt.worker_pool = &pool;
  RunMetrics par =
      execute_batch(prog, design.nest, sizes, pooled.data(), kLanes, opt);
  expect_same_lanes(design, one_worker, pooled, "starved-pool");
  expect_same_schedule(seq, par);
  // And every lane is right, not merely consistent across worker counts.
  std::vector<IndexedStore> expected = seeded_lanes(design, sizes, kLanes);
  for (IndexedStore& e : expected) run_sequential(design.nest, sizes, e);
  expect_same_lanes(design, expected, pooled, "vs sequential");
}

TEST(LaneWorkers, SoloRunIgnoresThreads) {
  // A solo run is one lane: it runs on the caller whatever `threads`
  // says, with the same results and schedule as an unthreaded run.
  Design design = design_by_name("polyprod1");
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 8);
  std::vector<IndexedStore> plain = seeded_lanes(design, sizes, 1);
  std::vector<IndexedStore> threaded = plain;
  RunMetrics a = execute(prog, design.nest, sizes, plain.front(), {});
  WorkerPool pool(2);
  InstantiateOptions opt;
  opt.threads = 2;
  opt.worker_pool = &pool;
  RunMetrics b = execute(prog, design.nest, sizes, threaded.front(), opt);
  expect_same_lanes(design, plain, threaded, "threads=2 solo");
  expect_same_schedule(a, b);
  EXPECT_EQ(b.backend, "bytecode");
  EXPECT_EQ(b.batch, 1u);
  EXPECT_EQ(pool.spawned(), 0u);
}

}  // namespace
}  // namespace systolize

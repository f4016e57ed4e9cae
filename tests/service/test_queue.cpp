// Admission control: shed-at-the-door semantics, tenant fairness, drain.
#include "service/request_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace systolize::service {
namespace {

Job job_for(const std::string& tenant) {
  Job j;
  j.req.op = "ping";
  j.req.tenant = tenant;
  j.respond = [](const Response&) {};
  return j;
}

/// Tenant "t<i>" (built by append: GCC 12 -O3 flags "t" + temporary with
/// a -Wrestrict false positive).
std::string tenant(int i) { return std::string("t").append(std::to_string(i)); }

TEST(RequestQueue, AdmitsUpToDepthThenSheds) {
  RequestQueue q(2, 0);
  EXPECT_TRUE(q.try_push(job_for("a")).admitted);
  EXPECT_TRUE(q.try_push(job_for("a")).admitted);
  Admission shed = q.try_push(job_for("a"));
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, "queue full");
  EXPECT_GT(shed.retry_after_ms, 0);
  EXPECT_EQ(q.admitted(), 2u);
  EXPECT_EQ(q.shed_queue_full(), 1u);
}

TEST(RequestQueue, TenantCapShedsTheHotTenantOnly) {
  RequestQueue q(16, 2);
  EXPECT_TRUE(q.try_push(job_for("hot")).admitted);
  EXPECT_TRUE(q.try_push(job_for("hot")).admitted);
  Admission shed = q.try_push(job_for("hot"));
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, "tenant cap");
  // A different tenant still fits while the hot one is capped.
  EXPECT_TRUE(q.try_push(job_for("cold")).admitted);
  EXPECT_EQ(q.shed_tenant_cap(), 1u);
}

TEST(RequestQueue, TenantStaysInFlightUntilFinish) {
  // Admission counts queued + executing: popping a job does NOT free the
  // tenant's slot — only finish() does. This is what stops a tenant from
  // monopolizing the workers with a short queue.
  RequestQueue q(16, 1);
  ASSERT_TRUE(q.try_push(job_for("t")).admitted);
  auto job = q.pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_FALSE(q.try_push(job_for("t")).admitted);  // still executing
  q.finish("t");
  EXPECT_TRUE(q.try_push(job_for("t")).admitted);
}

TEST(RequestQueue, CloseRejectsNewAndDrainsOld) {
  RequestQueue q(16, 0);
  ASSERT_TRUE(q.try_push(job_for("a")).admitted);
  q.close();
  Admission shed = q.try_push(job_for("b"));
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, "shutting down");
  EXPECT_EQ(q.shed_closed(), 1u);
  // The already-admitted job still drains.
  auto job = q.pop();
  ASSERT_TRUE(job.has_value());
  q.finish("a");
  // After the drain, pop unblocks with "no more work".
  EXPECT_FALSE(q.pop().has_value());
}

TEST(RequestQueue, PopBlocksUntilWorkOrClose) {
  RequestQueue q(16, 0);
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    auto job = q.pop();
    got.store(job.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(q.try_push(job_for("x")).admitted);
  waiter.join();
  EXPECT_TRUE(got.load());
}

TEST(RequestQueue, WaitIdleIsADrainBarrier) {
  RequestQueue q(64, 0);
  constexpr int kJobs = 20;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(q.try_push(job_for("t")).admitted);
  }
  std::atomic<int> done{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        auto job = q.pop();
        if (!job.has_value()) return;
        ++done;
        q.finish(job->req.tenant);
      }
    });
  }
  q.close();
  q.wait_idle();
  EXPECT_EQ(done.load(), kJobs);  // the barrier held until all finished
  for (auto& w : workers) w.join();
  EXPECT_EQ(q.in_flight(), 0u);
  EXPECT_EQ(q.high_water(), static_cast<std::size_t>(kJobs));
}

TEST(RequestQueue, ConcurrentPushPopKeepsCountsConsistent) {
  RequestQueue q(32, 8);
  std::atomic<int> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        auto job = q.pop();
        if (!job.has_value()) return;
        ++completed;
        q.finish(job->req.tenant);
      }
    });
  }
  std::vector<std::thread> producers;
  std::atomic<int> pushed{0};
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < 50; ++i) {
        if (q.try_push(job_for("tenant" + std::to_string(p))).admitted) {
          ++pushed;
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  q.close();
  q.wait_idle();
  for (auto& w : workers) w.join();
  (void)stop;
  EXPECT_EQ(completed.load(), pushed.load());
  EXPECT_EQ(q.admitted(), static_cast<std::size_t>(pushed.load()));
}

Job run_job(const std::string& tenant, const std::string& design, Int n,
            Int batch = 1, const std::string& backend = "") {
  Job j;
  j.req.op = "run";
  j.req.tenant = tenant;
  j.req.design = design;
  j.req.n = n;
  j.req.batch = batch;
  j.req.backend = backend;
  j.respond = [](const Response&) {};
  return j;
}

TEST(Coalescing, KeyMatchesExecutionOptionsNotIdentity) {
  Request a = run_job("t1", "matmul2", 6).req;
  Request b = run_job("t2", "matmul2", 6, 8, "").req;
  b.id = 99;
  // Different tenant, id and batch still coalesce — lanes add up and
  // each job finishes against its own tenant bucket.
  EXPECT_TRUE(requests_coalesce(a, b));

  Request c = a;
  c.n = 8;
  EXPECT_FALSE(requests_coalesce(a, c));  // different expanded plan
  c = a;
  c.backend = "interp";
  EXPECT_FALSE(requests_coalesce(a, c));  // different engine
  c = a;
  c.verify = true;
  EXPECT_FALSE(requests_coalesce(a, c));
  c = a;
  c.inject = "seed=1;stall=0.5:3";
  EXPECT_FALSE(requests_coalesce(a, c));  // faulted: per-instance verdicts
  c = a;
  c.fail_attempts = 1;
  EXPECT_FALSE(requests_coalesce(a, c));  // must hit the retry path
  Request ping = job_for("t").req;
  EXPECT_FALSE(coalescible(ping));  // only run ops batch
}

TEST(Coalescing, PopGroupSweepsMatchesAndPreservesFifo) {
  RequestQueue q(16, 0);
  ASSERT_TRUE(q.try_push(run_job("a", "matmul2", 6)).admitted);
  ASSERT_TRUE(q.try_push(run_job("b", "polyprod1", 4)).admitted);
  ASSERT_TRUE(q.try_push(run_job("c", "matmul2", 6, 4)).admitted);
  ASSERT_TRUE(q.try_push(run_job("d", "matmul2", 6)).admitted);

  std::vector<Job> group = q.pop_group(64);
  ASSERT_EQ(group.size(), 3u);  // both matmul2/n=6 jobs rode along
  EXPECT_EQ(group[0].req.tenant, "a");
  EXPECT_EQ(group[1].req.tenant, "c");
  EXPECT_EQ(group[2].req.tenant, "d");

  // The non-matching job kept its place at the front of the queue.
  std::vector<Job> rest = q.pop_group(64);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].req.design, "polyprod1");
}

TEST(Coalescing, GroupCapBoundsTheSweep) {
  RequestQueue q(16, 0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.try_push(run_job(tenant(i), "matmul2", 4))
                    .admitted);
  }
  EXPECT_EQ(q.pop_group(2).size(), 2u);
  EXPECT_EQ(q.pop_group(2).size(), 2u);
  EXPECT_EQ(q.pop_group(2).size(), 1u);
}

TEST(Coalescing, GroupCapOfOneNeverSweeps) {
  // max_group=1 degenerates to plain pop(): each job leaves alone even
  // when the whole backlog would coalesce with the front.
  RequestQueue q(16, 0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.try_push(run_job(tenant(i), "matmul2", 4))
                    .admitted);
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<Job> group = q.pop_group(1);
    ASSERT_EQ(group.size(), 1u);
    EXPECT_EQ(group[0].req.tenant, tenant(i));
  }
}

TEST(Coalescing, GroupCapEqualToMatchCountTakesAllInOneSweep) {
  RequestQueue q(16, 0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.try_push(run_job(tenant(i), "matmul2", 4))
                    .admitted);
  }
  EXPECT_EQ(q.pop_group(4).size(), 4u);  // exactly at the cap — no split
  for (int i = 0; i < 4; ++i) q.finish(tenant(i));
  q.close();
  EXPECT_TRUE(q.pop_group(4).empty());  // nothing left behind
}

TEST(Coalescing, MixedBackendSweepSkipsNonAdjacentMismatches) {
  // Interleave bytecode and interp requests for the same design/n. The
  // sweep must gather the front's backend across gaps while the skipped
  // interp jobs keep their relative order.
  RequestQueue q(16, 0);
  ASSERT_TRUE(q.try_push(run_job("a", "matmul2", 6, 1, "bytecode")).admitted);
  ASSERT_TRUE(q.try_push(run_job("b", "matmul2", 6, 1, "interp")).admitted);
  ASSERT_TRUE(q.try_push(run_job("c", "matmul2", 6, 1, "bytecode")).admitted);
  ASSERT_TRUE(q.try_push(run_job("d", "matmul2", 6, 1, "interp")).admitted);
  ASSERT_TRUE(q.try_push(run_job("e", "matmul2", 6, 1, "bytecode")).admitted);

  std::vector<Job> group = q.pop_group(64);
  ASSERT_EQ(group.size(), 3u);
  EXPECT_EQ(group[0].req.tenant, "a");
  EXPECT_EQ(group[1].req.tenant, "c");
  EXPECT_EQ(group[2].req.tenant, "e");

  std::vector<Job> rest = q.pop_group(64);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].req.tenant, "b");
  EXPECT_EQ(rest[1].req.tenant, "d");
}

TEST(Coalescing, DefaultBackendDoesNotGroupWithExplicitInterp) {
  // "" means "server picks"; it may resolve to interp, but the key must
  // treat them as distinct engines — never merged into one dispatch.
  RequestQueue q(16, 0);
  ASSERT_TRUE(q.try_push(run_job("a", "matmul2", 6, 1, "")).admitted);
  ASSERT_TRUE(q.try_push(run_job("b", "matmul2", 6, 1, "interp")).admitted);
  EXPECT_EQ(q.pop_group(64).size(), 1u);
  EXPECT_EQ(q.pop_group(64).size(), 1u);
}

TEST(Coalescing, NonCoalescibleFrontPopsAlone) {
  RequestQueue q(16, 0);
  Job faulted = run_job("a", "matmul2", 6);
  faulted.req.inject = "seed=1;stall=0.5:3";
  ASSERT_TRUE(q.try_push(std::move(faulted)).admitted);
  ASSERT_TRUE(q.try_push(run_job("b", "matmul2", 6)).admitted);
  EXPECT_EQ(q.pop_group(64).size(), 1u);  // faulted never groups
  EXPECT_EQ(q.pop_group(64).size(), 1u);
}

TEST(Coalescing, PopGroupEmptyMeansClosedAndDrained) {
  RequestQueue q(16, 0);
  ASSERT_TRUE(q.try_push(run_job("a", "matmul2", 6)).admitted);
  q.close();
  EXPECT_EQ(q.pop_group(64).size(), 1u);  // admitted work still drains
  q.finish("a");
  EXPECT_TRUE(q.pop_group(64).empty());  // worker-exit signal
}

}  // namespace
}  // namespace systolize::service

// The request engine: never throws, classifies everything, retries
// transients, cancels wedged runs at their deadline, shares one plan
// cache and one compiled-program generation across requests.
#include "service/executor.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/verify.hpp"
#include "frontend/parser.hpp"
#include "service/checked_run.hpp"
#include "service/json.hpp"

#ifndef SYSTOLIZE_DESIGN_DIR
#define SYSTOLIZE_DESIGN_DIR "designs"
#endif

namespace systolize::service {
namespace {

ExecutorConfig fast_config() {
  ExecutorConfig cfg;
  cfg.default_wall_timeout_ms = 30'000;  // tests pick tighter ones per-request
  cfg.max_retries = 2;
  cfg.backoff_base_ms = 1;
  cfg.backoff_cap_ms = 4;
  return cfg;
}

Request run_req(const std::string& design, Int n = 4) {
  Request req;
  req.op = "run";
  req.design = design;
  req.n = n;
  req.m = 3;
  return req;
}

TEST(Executor, PingAndStatsAlwaysSucceed) {
  Executor ex(fast_config());
  Request ping;
  ping.op = "ping";
  Response r = ex.handle(ping);
  EXPECT_EQ(r.status, "ok");
  EXPECT_TRUE(definite_verdict(r));

  Request stats;
  stats.op = "stats";
  r = ex.handle(stats);
  EXPECT_EQ(r.status, "ok");
  // The stats payload is valid JSON with the documented sections.
  Json doc = Json::parse(r.data_json);
  EXPECT_NE(doc.get("plan_cache"), nullptr);
  EXPECT_NE(doc.get("degradation"), nullptr);
  EXPECT_NE(doc.get("requests"), nullptr);
  EXPECT_NE(doc.get("bytecode"), nullptr);
}

TEST(Executor, SoloRunsTakeTheVmUnderTheDaemonDefaults) {
  // The daemon's default round budget and deadline keep a solo run on the
  // VM; an option the VM cannot honour falls back to the interpreter and
  // says which one.
  Executor ex(fast_config());
  Request req = run_req("matmul2");
  req.verify = true;
  Response r = ex.handle(req);
  ASSERT_EQ(r.status, "ok") << r.message;
  Json metrics = Json::parse(r.metrics_json);
  EXPECT_EQ(metrics.str_or("backend", ""), "bytecode") << r.metrics_json;
  EXPECT_EQ(metrics.int_or("batch", 0), 1);
  EXPECT_EQ(metrics.str_or("fallback_reason", "?"), "");

  req.capacity = 1;
  r = ex.handle(req);
  ASSERT_EQ(r.status, "ok") << r.message;
  metrics = Json::parse(r.metrics_json);
  EXPECT_EQ(metrics.str_or("backend", ""), "interp") << r.metrics_json;
  EXPECT_NE(metrics.str_or("fallback_reason", "").find("capacity"),
            std::string::npos)
      << r.metrics_json;

  Request stats;
  stats.op = "stats";
  Json doc = Json::parse(ex.handle(stats).data_json);
  const Json* bc = doc.get("bytecode");
  ASSERT_NE(bc, nullptr);
  EXPECT_EQ(bc->int_or("runs", 0), 1);
  EXPECT_EQ(doc.get("substrate"), nullptr);
}

TEST(Executor, RunSucceedsWithMetricsAndVerify) {
  Executor ex(fast_config());
  Request req = run_req("matmul2");
  req.verify = true;
  Response r = ex.handle(req);
  ASSERT_EQ(r.status, "ok") << r.message;
  EXPECT_EQ(r.verdict, "success");
  Json metrics = Json::parse(r.metrics_json);
  EXPECT_GT(metrics.int_or("makespan", 0), 0);
  EXPECT_GT(metrics.int_or("total_transfers", 0), 0);
}

TEST(Executor, CompileCacheKeepsOneGenerationPerDesign) {
  // The PlanCache templates key on CompiledProgram::generation; a daemon
  // that recompiled per request would never hit its own template cache.
  Executor ex(fast_config());
  Request req;
  req.op = "compile";
  req.design = "matmul2";
  Response first = ex.handle(req);
  Response second = ex.handle(req);
  ASSERT_EQ(first.status, "ok");
  ASSERT_EQ(second.status, "ok");
  Json a = Json::parse(first.data_json);
  Json b = Json::parse(second.data_json);
  EXPECT_FALSE(a.bool_or("cached", true));
  EXPECT_TRUE(b.bool_or("cached", false));
  EXPECT_EQ(a.int_or("generation", -1), b.int_or("generation", -2));
}

TEST(Executor, WarmRunsHitTheSharedPlanCache) {
  Executor ex(fast_config());
  (void)ex.handle(run_req("matmul2"));
  const std::size_t misses = ex.plan_cache().misses();
  (void)ex.handle(run_req("matmul2"));
  EXPECT_EQ(ex.plan_cache().misses(), misses);  // second run: pure hit
  EXPECT_GE(ex.plan_cache().hits(), 1u);
}

TEST(Executor, WarmRunsReplayTheRecordedScheduleAndStatsCountIt) {
  // The first run of a plan walks and records its tape; every later run,
  // solo or batched, replays it, and the stats count each replay.
  Executor ex(fast_config());
  Request req = run_req("matmul2");
  req.verify = true;
  std::vector<std::string> schedules;
  for (Int batch : {1, 1, 1, 5}) {
    req.batch = batch;
    Response r = ex.handle(req);
    ASSERT_EQ(r.status, "ok") << r.message;
    schedules.push_back(Json::parse(r.metrics_json).str_or("schedule", ""));
  }
  EXPECT_EQ(schedules, (std::vector<std::string>{"walked", "replayed",
                                                 "replayed", "replayed"}));
  Request stats;
  stats.op = "stats";
  Json doc = Json::parse(ex.handle(stats).data_json);
  const Json* pc = doc.get("plan_cache");
  ASSERT_NE(pc, nullptr);
  EXPECT_EQ(pc->int_or("tapes", 0), 1);
  EXPECT_GT(pc->int_or("tape_bytes", 0), 0);
  EXPECT_EQ(pc->int_or("replays", 0), 3);
}

TEST(Executor, ExpandReportsPlanShapeAndCacheOutcome) {
  Executor ex(fast_config());
  Request req;
  req.op = "expand";
  req.design = "polyprod1";
  req.n = 5;
  Response r = ex.handle(req);
  ASSERT_EQ(r.status, "ok") << r.message;
  Json data = Json::parse(r.data_json);
  EXPECT_GT(data.int_or("processes", 0), 0);
  EXPECT_GT(data.int_or("channels", 0), 0);
  EXPECT_FALSE(data.bool_or("plan_hit", true));
  r = ex.handle(req);
  EXPECT_TRUE(Json::parse(r.data_json).bool_or("plan_hit", false));
}

TEST(Executor, UnknownDesignClassifiesAsTerminalError) {
  Executor ex(fast_config());
  Response r = ex.handle(run_req("no-such-design"));
  EXPECT_EQ(r.status, "error");
  EXPECT_FALSE(r.retryable);
  EXPECT_TRUE(definite_verdict(r));
  EXPECT_EQ(r.retries, 0);  // terminal: no attempts wasted
}

TEST(Executor, NearOverflowSizeClassifiesAsOverflow) {
  // 2^62: the store's box volume overflows Int, so seeding refuses the
  // request before allocating; solo and batched runs alike, then the
  // executor serves the next request.
  Executor ex(fast_config());
  for (Int batch : {1, 4}) {
    Request req = run_req("matmul2", Int{1} << 62);
    req.batch = batch;
    Response r = ex.handle(req);
    EXPECT_EQ(r.status, "error") << r.message;
    EXPECT_EQ(r.kind, "Overflow") << r.message;
    EXPECT_FALSE(r.retryable);
    EXPECT_NE(r.message.find("stream '"), std::string::npos) << r.message;
  }
  EXPECT_EQ(ex.handle(run_req("matmul2")).status, "ok");
}

TEST(Executor, TransientFailuresRetryToSuccess) {
  Executor ex(fast_config());
  Request req = run_req("polyprod1");
  req.fail_attempts = 2;  // test hook: first two attempts fail retryably
  Response r = ex.handle(req);
  ASSERT_EQ(r.status, "ok") << r.message;
  EXPECT_EQ(r.verdict, "retried-success");
  EXPECT_EQ(r.retries, 2);
}

TEST(Executor, RetryBudgetExhaustionClassifiesTheTransient) {
  Executor ex(fast_config());
  Request req = run_req("polyprod1");
  req.fail_attempts = 99;  // more than the server will ever retry
  Response r = ex.handle(req);
  EXPECT_EQ(r.status, "error");
  EXPECT_EQ(r.kind, "Io");
  EXPECT_TRUE(r.retryable);  // still classified transient — client's call
  EXPECT_EQ(r.retries, fast_config().max_retries);
  EXPECT_TRUE(definite_verdict(r));
}

TEST(Executor, InjectedStallTripsTheWatchdogWithForensics) {
  ExecutorConfig cfg = fast_config();
  cfg.max_retries = 1;  // deterministic fault: retry once, then classify
  Executor ex(cfg);
  Request req = run_req("polyprod1");
  req.inject = "kill@comp:(1)=1";  // killed process => stalled partners
  req.round_budget = 200;
  Response r = ex.handle(req);
  EXPECT_EQ(r.status, "error");
  EXPECT_TRUE(r.kind == "Timeout" || r.kind == "Runtime") << r.kind;
  EXPECT_TRUE(definite_verdict(r));
  // The DeadlockReport forensics ride along as machine-readable JSON.
  ASSERT_FALSE(r.diagnostic_json.empty());
  Json report = Json::parse(r.diagnostic_json);
  EXPECT_NE(report.get("reason"), nullptr);
  // The deterministic failure burned the whole retry budget.
  EXPECT_EQ(r.retries, 1);
}

TEST(Executor, WallClockDeadlineCancelsAWedgedRun) {
  ExecutorConfig cfg = fast_config();
  cfg.max_retries = 0;  // measure one attempt
  Executor ex(cfg);
  // Injected stalls/delays advance *simulated* time — the scheduler
  // fast-forwards past them — so they cannot wedge the wall clock. What
  // the wall deadline exists for is a run that is simply too big for its
  // budget: a large-size run takes longer than its 150 ms deadline
  // while rounds keep turning, and the cancel token is polled at every
  // round boundary.
  Request req = run_req("matmul2", 64);
  req.round_budget = 2'000'000'000;  // rounds alone would never trip
  req.wall_timeout_ms = 150;
  const auto before = std::chrono::steady_clock::now();
  Response r = ex.handle(req);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - before);
  EXPECT_EQ(r.status, "error");
  EXPECT_EQ(r.kind, "Timeout") << r.message;
  EXPECT_TRUE(r.retryable);
  EXPECT_TRUE(definite_verdict(r));
  EXPECT_NE(r.message.find("wall-clock"), std::string::npos) << r.message;
  // Cancelled promptly — not after the run's natural multi-second span.
  EXPECT_LT(elapsed.count(), 10'000);
  // The cancellation forensics name every process state at abort time.
  EXPECT_FALSE(r.diagnostic_json.empty());
}

TEST(Executor, WorkerSurvivesAWedgedRunAndServesTheNext) {
  ExecutorConfig cfg = fast_config();
  cfg.max_retries = 0;
  Executor ex(cfg);
  Request wedged = run_req("matmul2", 64);
  wedged.round_budget = 2'000'000'000;
  wedged.wall_timeout_ms = 150;
  Response dead = ex.handle(wedged);
  EXPECT_EQ(dead.kind, "Timeout");
  // Fault isolation: the same executor immediately serves a clean run.
  Request clean = run_req("matmul2", 4);
  clean.verify = true;
  Response r = ex.handle(clean);
  EXPECT_EQ(r.status, "ok") << r.message;
  EXPECT_EQ(r.verdict, "success");
}

TEST(Executor, VerifyOpRunsTheStaticPipeline) {
  Executor ex(fast_config());
  Request req;
  req.op = "verify";
  req.design = "matmul2";
  req.n = 4;
  Response r = ex.handle(req);
  ASSERT_EQ(r.status, "ok") << r.message;
  EXPECT_EQ(r.verdict, "clean");
  Json report = Json::parse(r.data_json);
  EXPECT_NE(report.get("findings"), nullptr);
}

TEST(Executor, VerifyOpReturnsThePipelinesFindingsOnRejectedDesigns) {
  // The serve verify op and `systolize verify` run one static pipeline:
  // on every deliberately broken fixture and every fuzz reproducer the op
  // answers verdict "findings" with exactly the pipeline's report.
  Executor ex(fast_config());
  std::size_t files = 0;
  for (const char* dir : {"/broken", "/fuzz-corpus"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(SYSTOLIZE_DESIGN_DIR) + dir)) {
      if (entry.path().extension() != ".sa") continue;
      ++files;
      std::ifstream in(entry.path());
      std::ostringstream text;
      text << in.rdbuf();
      Request req;
      req.op = "verify";
      req.source = text.str();
      req.n = 3;
      req.m = 3;
      const Response r = ex.handle(req);
      ASSERT_EQ(r.status, "ok") << entry.path() << ": " << r.message;
      EXPECT_EQ(r.verdict, "findings") << entry.path();
      const Design d = frontend::parse_design(req.source);
      EXPECT_EQ(r.data_json,
                verify_design(d.nest, d.spec, sizes_of(d.nest, 3, 3))
                    .to_json())
          << entry.path();
    }
  }
  EXPECT_EQ(files, 9u);
}

TEST(Executor, AnalyzeOpReturnsCostReportAndReusesCompileCache) {
  Executor ex(fast_config());
  Request req;
  req.op = "analyze";
  req.design = "matmul2";
  req.n = 4;
  Response r = ex.handle(req);
  ASSERT_EQ(r.status, "ok") << r.message;
  EXPECT_EQ(r.verdict, "success");
  EXPECT_TRUE(definite_verdict(r));
  Json report = Json::parse(r.data_json);
  ASSERT_NE(report.get("formulas"), nullptr) << r.data_json;
  const Json* at = report.get("at");
  ASSERT_NE(at, nullptr) << r.data_json;
  // The metrics are the cost model's goldens (tests/analysis/test_cost).
  EXPECT_NE(r.data_json.find("\"processes\":191"), std::string::npos)
      << r.data_json;
  EXPECT_NE(r.data_json.find("\"makespan\":12"), std::string::npos);

  // A follow-up analyze (and a verify) ride the same compiled program —
  // the compile cache must not miss again for this design.
  Request stats;
  stats.op = "stats";
  Json before = Json::parse(ex.handle(stats).data_json);
  (void)ex.handle(req);
  Json after = Json::parse(ex.handle(stats).data_json);
  const Json* cc_before = before.get("compile_cache");
  const Json* cc_after = after.get("compile_cache");
  ASSERT_NE(cc_before, nullptr);
  ASSERT_NE(cc_after, nullptr);
  EXPECT_EQ(cc_after->int_or("misses", -1), cc_before->int_or("misses", -2));
  EXPECT_GT(cc_after->int_or("hits", 0), cc_before->int_or("hits", 0));
}

TEST(Executor, AnalyzeOpOnBrokenSourceReturnsFindings) {
  // A spec the verifier rejects has no meaningful cost: the analyze op
  // must come back ok/"findings" with the findings JSON, not an error.
  Executor ex(fast_config());
  Request req;
  req.op = "analyze";
  req.source =
      "design broken_inline\n"
      "sizes n >= 1\n"
      "loop i = 0 .. n\n"
      "loop j = 0 .. n\n"
      "stream a[i] read dims [0 .. n]\n"
      "stream c[i+j] update dims [0 .. 2*n]\n"
      "body c := c + a\n"
      "step i + j\n"
      "place (j)\n";
  Response r = ex.handle(req);
  ASSERT_EQ(r.status, "ok") << r.message;
  EXPECT_EQ(r.verdict, "findings");
  EXPECT_TRUE(definite_verdict(r));
  Json report = Json::parse(r.data_json);
  EXPECT_NE(report.get("findings"), nullptr) << r.data_json;
  EXPECT_GT(report.int_or("errors", 0), 0) << r.data_json;
}

TEST(Executor, InlineSourceCompilesAndRuns) {
  // The convolution design as inline .sa text exercises the source path
  // (and its compile-cache key).
  Executor ex(fast_config());
  Request req;
  req.op = "run";
  req.source =
      "design convolution_inline\n"
      "sizes n >= 1, m >= 1\n"
      "loop i = 0 .. n\n"
      "loop j = 0 .. m\n"
      "stream w[j]   read   dims [0 .. m]\n"
      "stream x[i+j] read   dims [0 .. n + m]\n"
      "stream y[i]   update dims [0 .. n]\n"
      "body y := y + w * x\n"
      "step i + 2*j\n"
      "place (i)\n"
      "load y = (1)\n";
  req.n = 6;
  req.m = 3;
  req.verify = true;
  Response r = ex.handle(req);
  ASSERT_EQ(r.status, "ok") << r.message;
  EXPECT_EQ(r.verdict, "success");
}

TEST(Executor, BatchedRunRidesTheBytecodeBackendAndCountsInStats) {
  Executor ex(fast_config());
  Request req = run_req("matmul2");
  req.batch = 8;
  req.verify = true;  // every lane checked against the sequential baseline
  Response r = ex.handle(req);
  ASSERT_EQ(r.status, "ok") << r.message;
  EXPECT_EQ(r.verdict, "success");
  Json metrics = Json::parse(r.metrics_json);
  EXPECT_EQ(metrics.str_or("backend", ""), "bytecode") << r.metrics_json;
  EXPECT_EQ(metrics.int_or("batch", 0), 8);
  EXPECT_GT(metrics.int_or("bytecode_instructions", 0), 0);

  Request stats;
  stats.op = "stats";
  Json doc = Json::parse(ex.handle(stats).data_json);
  const Json* bc = doc.get("bytecode");
  ASSERT_NE(bc, nullptr);
  EXPECT_EQ(bc->int_or("runs", 0), 1);
  EXPECT_EQ(bc->int_or("batched_instances", 0), 8);
  EXPECT_EQ(bc->int_or("max_batch", 0), 8);
  const Json* pc = doc.get("plan_cache");
  ASSERT_NE(pc, nullptr);
  EXPECT_GE(pc->int_or("bytecode_programs", 0), 1);

  // The lowered program is shared: a second batched run is a pure hit.
  Response again = ex.handle(req);
  ASSERT_EQ(again.status, "ok") << again.message;
  EXPECT_TRUE(Json::parse(again.metrics_json)
                  .bool_or("bytecode_reused", false));
}

TEST(Executor, ForcedBackendsAreHonoured) {
  Executor ex(fast_config());
  Request req = run_req("polyprod1");
  req.backend = "interp";
  req.batch = 3;
  Response r = ex.handle(req);
  ASSERT_EQ(r.status, "ok") << r.message;
  EXPECT_EQ(Json::parse(r.metrics_json).str_or("backend", ""), "interp");

  req.backend = "bytecode";
  req.batch = 1;
  r = ex.handle(req);
  ASSERT_EQ(r.status, "ok") << r.message;
  EXPECT_EQ(Json::parse(r.metrics_json).str_or("backend", ""), "bytecode");

  // Forcing the VM onto an incompatible request is a terminal error
  // naming the blocker, not a silent fallback.
  req.inject = "seed=1;stall=0.5:3";
  r = ex.handle(req);
  EXPECT_EQ(r.status, "error");
  EXPECT_EQ(r.kind, "Validation");
  EXPECT_NE(r.message.find("bytecode backend"), std::string::npos)
      << r.message;
}

TEST(Executor, BatchedFaultedRunReportsPerInstanceVerdicts) {
  ExecutorConfig cfg = fast_config();
  cfg.max_retries = 0;
  Executor ex(cfg);
  Request req = run_req("polyprod1");
  req.batch = 4;
  req.inject = "kill@comp:(1)=1";  // deterministic: every instance dies
  req.round_budget = 200;
  Response r = ex.handle(req);
  // A kill is a verdict for one instance, never for the batch: the
  // request itself comes back ok with per-instance verdicts in data.
  ASSERT_EQ(r.status, "ok") << r.message;
  EXPECT_EQ(r.verdict, "instance-failures");
  Json data = Json::parse(r.data_json);
  EXPECT_EQ(data.int_or("batch", 0), 4);
  EXPECT_EQ(data.int_or("failures", 0), 4);
  const Json* instances = data.get("instances");
  ASSERT_NE(instances, nullptr) << r.data_json;
  // Each instance entry names its index and a classified verdict.
  for (Int b = 0; b < 4; ++b) {
    EXPECT_NE(r.data_json.find("\"instance\":" + std::to_string(b)),
              std::string::npos)
        << r.data_json;
  }
  EXPECT_NE(r.data_json.find("\"verdict\":"), std::string::npos);

  // A seeded probabilistic stall recovers: all instances succeed.
  req.inject = "seed=7;stall=0.05:2";
  req.round_budget = 0;
  Response clean = ex.handle(req);
  ASSERT_EQ(clean.status, "ok") << clean.message;
  EXPECT_EQ(clean.verdict, "success");
  EXPECT_EQ(Json::parse(clean.data_json).int_or("failures", -1), 0);
}

TEST(Executor, HandleGroupCoalescesWarmRequestsIntoOneDispatch) {
  Executor ex(fast_config());
  std::vector<Request> reqs;
  for (Int i = 0; i < 3; ++i) {
    Request req = run_req("matmul2");
    req.id = 10 + i;
    req.tenant = "t" + std::to_string(i);
    req.batch = i + 1;  // 1 + 2 + 3 = 6 lanes
    req.verify = true;
    reqs.push_back(req);
  }
  std::vector<Response> rs = ex.handle_group(reqs);
  ASSERT_EQ(rs.size(), 3u);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].status, "ok") << rs[i].message;
    EXPECT_EQ(rs[i].id, reqs[i].id);  // responses keep request order
    Json data = Json::parse(rs[i].data_json);
    EXPECT_TRUE(data.bool_or("coalesced", false)) << rs[i].data_json;
    EXPECT_EQ(data.int_or("group", 0), 3);
    EXPECT_EQ(data.int_or("lanes", 0), 6);
  }
  Request stats;
  stats.op = "stats";
  Json doc = Json::parse(ex.handle(stats).data_json);
  const Json* bc = doc.get("bytecode");
  ASSERT_NE(bc, nullptr);
  EXPECT_EQ(bc->int_or("coalesced_groups", 0), 1);
  EXPECT_EQ(bc->int_or("coalesced_requests", 0), 3);
  EXPECT_EQ(bc->int_or("runs", 0), 1);  // ONE dispatch for all three
  EXPECT_EQ(bc->int_or("batched_instances", 0), 6);
}

TEST(Executor, GroupDispatchFailureFallsBackToIndependentHandling) {
  // An unknown design makes the group dispatch throw; every request must
  // still get its own definite (error) verdict through the fallback.
  Executor ex(fast_config());
  std::vector<Request> reqs;
  for (Int i = 0; i < 3; ++i) {
    Request req = run_req("does-not-exist");
    req.id = i;
    reqs.push_back(req);
  }
  std::vector<Response> rs = ex.handle_group(reqs);
  ASSERT_EQ(rs.size(), 3u);
  for (const Response& r : rs) {
    EXPECT_EQ(r.status, "error");
    EXPECT_TRUE(definite_verdict(r));
  }
  Request stats;
  stats.op = "stats";
  Json doc = Json::parse(ex.handle(stats).data_json);
  const Json* bc = doc.get("bytecode");
  ASSERT_NE(bc, nullptr);
  EXPECT_EQ(bc->int_or("coalesced_groups", 0), 0);  // no shared dispatch
}

TEST(Executor, FaultedGroupFallsBackAndMembersRetryIndependently) {
  // The queue never coalesces fail_attempts requests, but handle_group
  // must still be safe if handed one (a caller-built group): the injected
  // failure faults the shared dispatch, and each member re-runs through
  // its own retry loop to an individual "retried-success".
  Executor ex(fast_config());
  std::vector<Request> reqs;
  for (Int i = 0; i < 3; ++i) {
    Request req = run_req("matmul2");
    req.id = 20 + i;
    req.tenant = "t" + std::to_string(i);
    req.fail_attempts = 1;
    reqs.push_back(req);
  }
  std::vector<Response> rs = ex.handle_group(reqs);
  ASSERT_EQ(rs.size(), 3u);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].status, "ok") << rs[i].message;
    EXPECT_EQ(rs[i].id, reqs[i].id);
    EXPECT_EQ(rs[i].verdict, "retried-success");
    EXPECT_EQ(rs[i].retries, 1);
  }
  Request stats;
  stats.op = "stats";
  Json doc = Json::parse(ex.handle(stats).data_json);
  const Json* bc = doc.get("bytecode");
  ASSERT_NE(bc, nullptr);
  EXPECT_EQ(bc->int_or("coalesced_groups", 0), 0);  // dispatch never landed
  EXPECT_EQ(bc->int_or("coalesced_requests", 0), 0);
}

TEST(Executor, ConcurrentMixedRequestsAllGetDefiniteVerdicts) {
  // A miniature in-process soak: clean runs, faulted runs, bad designs
  // and retry-hook requests race on one executor; every one must come
  // back with a definite verdict and the executor must stay consistent.
  Executor ex(fast_config());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::vector<std::thread> threads;
  std::vector<std::vector<Response>> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Request req;
        switch ((t + i) % 4) {
          case 0:
            req = run_req("matmul2");
            req.verify = true;
            break;
          case 1:
            req = run_req("polyprod1");
            req.fail_attempts = 1;
            break;
          case 2:
            req = run_req("polyprod1");
            req.inject = "kill@comp:(1)=1";
            req.round_budget = 200;
            break;
          default: req = run_req("does-not-exist"); break;
        }
        results[t].push_back(ex.handle(req));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& per_thread : results) {
    for (const Response& r : per_thread) {
      EXPECT_TRUE(definite_verdict(r))
          << r.status << " " << r.kind << " " << r.message;
    }
  }
}

}  // namespace
}  // namespace systolize::service

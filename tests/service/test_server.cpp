// End-to-end daemon tests over a real Unix-domain socket: concurrency,
// admission, fault isolation under soak, and graceful drain. These are
// the in-process versions of the ci.sh serve smoke stage.
#include "service/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "support/error.hpp"

namespace systolize::service {
namespace {

std::string temp_socket(const std::string& tag) {
  return "/tmp/systolize-test-" + std::to_string(::getpid()) + "-" + tag +
         ".sock";
}

ServerConfig fast_server(const std::string& tag) {
  ServerConfig cfg;
  cfg.socket_path = temp_socket(tag);
  cfg.workers = 4;
  cfg.queue_depth = 64;
  cfg.tenant_cap = 32;
  cfg.executor.max_retries = 1;
  cfg.executor.backoff_base_ms = 1;
  cfg.executor.backoff_cap_ms = 4;
  cfg.executor.default_wall_timeout_ms = 30'000;
  return cfg;
}

Request run_req(Int id, const std::string& design = "matmul2") {
  Request req;
  req.id = id;
  req.op = "run";
  req.design = design;
  req.n = 4;
  req.m = 3;
  return req;
}

TEST(Server, ServesPipelinedRequestsOnOneConnection) {
  Server server(fast_server("pipeline"));
  server.start();
  Client client(temp_socket("pipeline"));
  for (Int i = 1; i <= 6; ++i) client.send(run_req(i));
  std::vector<bool> seen(7, false);
  for (int i = 0; i < 6; ++i) {
    Response r = client.recv();
    EXPECT_EQ(r.status, "ok") << r.message;
    ASSERT_GE(r.id, 1);
    ASSERT_LE(r.id, 6);
    EXPECT_FALSE(seen[static_cast<std::size_t>(r.id)]);  // ids correlate
    seen[static_cast<std::size_t>(r.id)] = true;
  }
  server.shutdown();
  server.wait();
  EXPECT_FALSE(server.final_stats().empty());
}

TEST(Server, MalformedLinesGetErrorResponsesNotDisconnects) {
  Server server(fast_server("malformed"));
  server.start();
  // Drive the raw protocol: garbage lines then a real request, all on
  // one connection — the server classifies each line, drops none.
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::string path = temp_socket("malformed");
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string lines =
      "this is not json\n"
      "{\"op\":\"frobnicate\"}\n"
      "{\"id\":3,\"op\":\"ping\"}\n";
  ASSERT_EQ(::send(fd, lines.data(), lines.size(), 0),
            static_cast<ssize_t>(lines.size()));
  std::string buf;
  char chunk[4096];
  while (std::count(buf.begin(), buf.end(), '\n') < 3) {
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    ASSERT_GT(n, 0);
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  std::istringstream in(buf);
  std::string line;
  std::getline(in, line);
  Response r1 = parse_response(line);
  EXPECT_EQ(r1.status, "error");
  EXPECT_EQ(r1.kind, "Parse");
  EXPECT_EQ(r1.id, 0);  // not an object: no id to echo
  std::getline(in, line);
  Response r2 = parse_response(line);
  EXPECT_EQ(r2.status, "error");
  EXPECT_EQ(r2.kind, "Validation");
  EXPECT_EQ(r2.op, "frobnicate");
  std::getline(in, line);
  Response r3 = parse_response(line);
  EXPECT_EQ(r3.status, "ok");
  EXPECT_EQ(r3.id, 3);
  ::close(fd);
  server.shutdown();
  server.wait();
}

// A refused request is answered under its own id and op, so a client
// that pipelines requests can tell which one was refused.
TEST(Server, RefusedRequestsEchoTheirIdAndOp) {
  Server server(fast_server("refused"));
  server.start();
  Client client(temp_socket("refused"));
  Request bad_backend = run_req(7);
  bad_backend.backend = "foo";
  Response r = client.call(bad_backend);
  EXPECT_EQ(r.status, "error");
  EXPECT_EQ(r.kind, "Validation") << r.message;
  EXPECT_EQ(r.id, 7);
  EXPECT_EQ(r.op, "run");
  Request unknown = run_req(8);
  unknown.op = "frobnicate";
  r = client.call(unknown);
  EXPECT_EQ(r.kind, "Validation") << r.message;
  EXPECT_EQ(r.id, 8);
  EXPECT_EQ(r.op, "frobnicate");
  Response next = client.call(run_req(9));
  EXPECT_EQ(next.status, "ok") << next.message;
  EXPECT_EQ(next.id, 9);
  server.shutdown();
  server.wait();
}

TEST(Server, NearOverflowRunGetsAnErrorReplyAndServingContinues) {
  Server server(fast_server("overflow"));
  server.start();
  Client client(temp_socket("overflow"));
  Request huge = run_req(1);
  huge.n = Int{1} << 62;
  Response r = client.call(huge);
  EXPECT_EQ(r.status, "error") << r.message;
  EXPECT_EQ(r.kind, "Overflow") << r.message;
  EXPECT_EQ(r.id, 1);
  Response next = client.call(run_req(2));
  EXPECT_EQ(next.status, "ok") << next.message;
  EXPECT_EQ(next.id, 2);
  server.shutdown();
  server.wait();
}

TEST(Server, QueueFullYieldsRetryableRejectionsWithHints) {
  ServerConfig cfg = fast_server("overload");
  cfg.workers = 1;
  cfg.queue_depth = 1;
  Server server(cfg);
  server.start();

  constexpr int kClients = 6;
  std::atomic<int> rejected{0};
  std::atomic<int> succeeded{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(temp_socket("overload"));
      Response r = client.call(run_req(c + 1, "matmul2"));
      if (r.status == "rejected") {
        EXPECT_TRUE(r.retryable);
        EXPECT_GE(r.retry_after_ms, 0);
        EXPECT_TRUE(definite_verdict(r));
        ++rejected;
      } else if (r.status == "ok") {
        ++succeeded;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_GE(succeeded.load(), 1);
  // With depth 1 and one worker, six simultaneous runs cannot all fit;
  // under scheduler-timing luck they might still drain fast enough, so
  // only assert the accounting matches what the server reports.
  Client stats_client(temp_socket("overload"));
  Request stats;
  stats.id = 99;
  stats.op = "stats";
  Response sr = stats_client.call(stats);
  EXPECT_EQ(sr.status, "ok");
  EXPECT_EQ(rejected.load() + succeeded.load(), kClients);
  server.shutdown();
  server.wait();
}

TEST(Server, PerTenantCapShedsOnlyTheHotTenant) {
  ServerConfig cfg = fast_server("tenant");
  cfg.workers = 1;
  cfg.queue_depth = 32;
  cfg.tenant_cap = 1;
  Server server(cfg);
  server.start();
  Client hog(temp_socket("tenant"));
  // One slow-ish request occupies tenant "hog"'s single slot...
  Request first = run_req(1);
  first.tenant = "hog";
  first.n = 6;
  hog.send(first);
  // ... so a second "hog" request sheds, while "polite" is admitted.
  Client prober(temp_socket("tenant"));
  bool hog_shed = false;
  for (int i = 0; i < 50; ++i) {
    Request second = run_req(2);
    second.tenant = "hog";
    Response r = prober.call(second);
    if (r.status == "rejected") {
      EXPECT_EQ(r.message, "tenant cap");
      hog_shed = true;
      break;
    }
    // The first run already finished; re-prime and try again.
    hog.send(first);
  }
  EXPECT_TRUE(hog_shed);
  Request polite = run_req(3);
  polite.tenant = "polite";
  Response r = prober.call_with_retry(polite);
  EXPECT_EQ(r.status, "ok") << r.message;
  (void)hog.call_with_retry(run_req(4));  // flush
  server.shutdown();
  server.wait();
}

// The acceptance-criteria soak: >= 100 concurrent requests with seeded
// stall/kill/delay faults, every one terminating with a definite verdict
// (success, retried-success, or classified error + forensics), no hangs,
// no crashes, and the worker pool alive at the end.
TEST(Server, SoakWithInjectedFaultsYieldsOnlyDefiniteVerdicts) {
  ServerConfig cfg = fast_server("soak");
  cfg.workers = 8;
  cfg.queue_depth = 128;
  Server server(cfg);
  server.start();

  constexpr int kClients = 8;
  constexpr int kPerClient = 14;  // 112 requests total
  std::vector<std::vector<Response>> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(temp_socket("soak"));
      for (int i = 0; i < kPerClient; ++i) {
        Request req = run_req(c * 100 + i, i % 2 == 0 ? "matmul2"
                                                      : "polyprod1");
        req.tenant = "client" + std::to_string(c);
        switch (i % 5) {
          case 0: break;  // clean run
          case 1:
            // Seeded stalls: recoverable slowness, still succeeds.
            req.inject = "seed=" + std::to_string(c * 31 + i) +
                         ";stall=0.05:3";
            break;
          case 2:
            // A killed process deadlocks its partners: the round budget
            // turns that into Timeout + DeadlockReport.
            req.inject = "kill@comp:(1)=1";
            req.round_budget = 300;
            break;
          case 3:
            // Seeded delays: recoverable.
            req.inject = "seed=" + std::to_string(c * 17 + i) +
                         ";delay=0.05:2";
            break;
          default:
            // Transient-failure hook: must come back retried-success.
            req.fail_attempts = 1;
            break;
        }
        results[c].push_back(client.call_with_retry(req));
      }
    });
  }
  for (auto& c : clients) c.join();

  int successes = 0, retried = 0, classified_errors = 0;
  for (const auto& per_client : results) {
    ASSERT_EQ(per_client.size(), static_cast<std::size_t>(kPerClient));
    for (const Response& r : per_client) {
      EXPECT_TRUE(definite_verdict(r))
          << r.status << "/" << r.kind << ": " << r.message;
      if (r.status == "ok" && r.verdict == "success") ++successes;
      if (r.status == "ok" && r.verdict == "retried-success") ++retried;
      if (r.status == "error") {
        ++classified_errors;
        EXPECT_FALSE(r.kind.empty());
        // Deadlocked runs carry their forensics.
        if (r.kind == "Timeout" || r.kind == "Runtime") {
          EXPECT_FALSE(r.diagnostic_json.empty()) << r.message;
        }
      }
    }
  }
  EXPECT_GT(successes, 0);
  EXPECT_GT(retried, 0);           // the fail_attempts hook fired
  EXPECT_GT(classified_errors, 0); // the kill-fault runs classified

  // Worker pool survived the faults: a clean request still succeeds.
  Client survivor(temp_socket("soak"));
  Response r = survivor.call(run_req(9999));
  EXPECT_EQ(r.status, "ok") << r.message;
  server.shutdown();
  server.wait();
  EXPECT_FALSE(server.final_stats().empty());
}

// PR 5's 112-request soak, re-aimed at the coalescing path: few workers,
// heavily pipelined identical warm requests so the backlog builds and
// warm groups share batched dispatches, mixed with faulted and
// transient-hook requests that must NOT coalesce. Every response is a
// definite verdict and the final stats show shared dispatches happened.
TEST(Server, CoalescingSoakSharesDispatchesAndStaysDefinite) {
  ServerConfig cfg = fast_server("coalesce");
  cfg.workers = 2;  // small pool => real backlog => groups actually form
  cfg.queue_depth = 256;
  cfg.tenant_cap = 64;
  Server server(cfg);
  server.start();

  // Warm the caches so the coalesced dispatches are pure execution.
  {
    Client warm(temp_socket("coalesce"));
    Response r = warm.call(run_req(1));
    ASSERT_EQ(r.status, "ok") << r.message;
  }

  constexpr int kClients = 8;
  constexpr int kPerClient = 14;  // 112 requests total
  std::vector<std::vector<Response>> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(temp_socket("coalesce"));
      // Pipeline the whole burst before reading: identical warm requests
      // pile up behind the two workers and ride shared dispatches.
      int sent = 0;
      for (int i = 0; i < kPerClient; ++i) {
        Request req = run_req(c * 100 + i);
        req.tenant = "client" + std::to_string(c);
        switch (i % 7) {
          case 5:
            // Faulted: must run per instance, never coalesce.
            req.inject = "seed=" + std::to_string(c * 31 + i) +
                         ";stall=0.05:3";
            break;
          case 6:
            req.fail_attempts = 1;  // must hit the per-request retry path
            break;
          default:
            req.batch = 1 + (i % 3);  // identical coalescible warm runs
            req.verify = true;
            break;
        }
        client.send(req);
        ++sent;
      }
      for (int i = 0; i < sent; ++i) results[c].push_back(client.recv());
    });
  }
  for (auto& c : clients) c.join();

  int coalesced_responses = 0;
  for (const auto& per_client : results) {
    ASSERT_EQ(per_client.size(), static_cast<std::size_t>(kPerClient));
    for (const Response& r : per_client) {
      EXPECT_TRUE(definite_verdict(r))
          << r.status << "/" << r.kind << ": " << r.message;
      if (r.data_json.find("\"coalesced\":true") != std::string::npos) {
        ++coalesced_responses;
      }
    }
  }

  // The accounting is authoritative even if scheduling luck varied how
  // many groups formed: stats must agree with what the responses said.
  Client stats_client(temp_socket("coalesce"));
  Request stats;
  stats.id = 9999;
  stats.op = "stats";
  Response sr = stats_client.call(stats);
  ASSERT_EQ(sr.status, "ok");
  const std::string& s = sr.data_json;
  EXPECT_NE(s.find("\"bytecode\":{"), std::string::npos) << s;
  EXPECT_NE(s.find("\"coalesced_groups\":"), std::string::npos) << s;
  // Two workers against 112 pipelined requests: shared dispatches are
  // effectively guaranteed; this pins the path actually exercised.
  EXPECT_GT(coalesced_responses, 0);

  server.shutdown();
  server.wait();
  EXPECT_FALSE(server.final_stats().empty());
}

TEST(Server, ShutdownMidFlightDrainsAdmittedWork) {
  ServerConfig cfg = fast_server("drain");
  cfg.workers = 2;
  cfg.queue_depth = 64;
  Server server(cfg);
  server.start();

  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::atomic<int> definite{0};
  std::atomic<int> total{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(temp_socket("drain"));
      for (int i = 0; i < kPerClient; ++i) {
        Request req = run_req(c * 100 + i);
        ++total;
        try {
          Response r = client.call(req);
          // Admitted => a real verdict; shed during shutdown => a
          // definite "shutting-down". Both satisfy the drain contract.
          if (definite_verdict(r)) ++definite;
        } catch (const Error&) {
          // Connection torn down after the drain: also a definite end —
          // the server never leaves a request hanging forever.
          ++definite;
        }
      }
    });
  }
  // Let some requests land, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.shutdown();
  server.wait();  // must return: drain may not hang
  for (auto& c : clients) c.join();
  EXPECT_EQ(definite.load(), total.load());
  EXPECT_FALSE(server.final_stats().empty());
  // The socket is gone after a clean drain.
  Client late(temp_socket("drain"));
  EXPECT_THROW(late.connect(), Error);
}

}  // namespace
}  // namespace systolize::service

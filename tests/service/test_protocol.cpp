// Wire protocol: request/response serialization, validation, verdicts.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace systolize::service {
namespace {

TEST(Protocol, RequestRoundTripsThroughJson) {
  Request req;
  req.id = 42;
  req.op = "run";
  req.tenant = "team-a";
  req.design = "matmul2";
  req.n = 6;
  req.m = 4;
  req.capacity = 2;
  req.verify = true;
  req.inject = "seed=7;stall=0.1:4";
  req.round_budget = 500;
  req.wall_timeout_ms = 2000;
  req.fail_attempts = 1;
  req.backend = "bytecode";
  req.batch = 16;

  Request back = parse_request(req.to_json());
  EXPECT_EQ(back.id, 42);
  EXPECT_EQ(back.op, "run");
  EXPECT_EQ(back.tenant, "team-a");
  EXPECT_EQ(back.design, "matmul2");
  EXPECT_EQ(back.n, 6);
  EXPECT_EQ(back.m, 4);
  EXPECT_EQ(back.capacity, 2);
  EXPECT_TRUE(back.verify);
  EXPECT_EQ(back.inject, "seed=7;stall=0.1:4");
  EXPECT_EQ(back.round_budget, 500);
  EXPECT_EQ(back.wall_timeout_ms, 2000);
  EXPECT_EQ(back.fail_attempts, 1);
  EXPECT_EQ(back.backend, "bytecode");
  EXPECT_EQ(back.batch, 16);
}

TEST(Protocol, BackendAndBatchDefaultsStayOffTheWire) {
  Request req;
  req.op = "run";
  req.design = "matmul2";
  const std::string json = req.to_json();
  EXPECT_EQ(json.find("backend"), std::string::npos);
  EXPECT_EQ(json.find("batch"), std::string::npos);
  Request back = parse_request(json);
  EXPECT_EQ(back.backend, "");
  EXPECT_EQ(back.batch, 1);
}

TEST(Protocol, BackendNamesMatchTheCli) {
  // The wire takes the names `systolize run --backend` takes.
  for (const char* name : {"auto", "interp", "bytecode"}) {
    const Request req = parse_request(
        std::string("{\"op\":\"run\",\"design\":\"x\",\"backend\":\"") +
        name + "\"}");
    EXPECT_EQ(req.backend, name);
  }
  try {
    (void)parse_request("{\"op\":\"run\",\"design\":\"x\",\"backend\":\"jit\"}");
    FAIL() << "expected rejection of backend \"jit\"";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Validation);
    const std::string what = e.what();
    for (const char* name : {"\"auto\"", "\"interp\"", "\"bytecode\""}) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(Protocol, RequestValidationRejectsGarbage) {
  struct Case {
    const char* line;
    ErrorKind kind;
  };
  for (const Case& c : {
           Case{"not json at all", ErrorKind::Parse},
           Case{"{\"op\":\"frobnicate\"}", ErrorKind::Validation},
           Case{"{\"id\":1}", ErrorKind::Validation},  // missing op
           Case{"{\"op\":\"run\",\"design\":\"x\",\"n\":0}",
                ErrorKind::Validation},  // size < 1
           Case{"{\"op\":\"run\"}", ErrorKind::Validation},  // no design/source
           Case{"{\"op\":\"analyze\"}", ErrorKind::Validation},  // ditto
           Case{"{\"op\":\"run\",\"design\":\"x\",\"round_budget\":-5}",
                ErrorKind::Validation},
           Case{"{\"op\":\"run\",\"design\":5}", ErrorKind::Validation},
           Case{"{\"op\":\"run\",\"design\":\"x\",\"batch\":0}",
                ErrorKind::Validation},
           Case{"{\"op\":\"run\",\"design\":\"x\",\"batch\":-3}",
                ErrorKind::Validation},
           Case{"{\"op\":\"run\",\"design\":\"x\",\"backend\":\"jit\"}",
                ErrorKind::Validation},
       }) {
    try {
      (void)parse_request(c.line);
      FAIL() << "expected rejection of: " << c.line;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), c.kind) << c.line;
    }
  }
}

TEST(Protocol, AnalyzeOpParsesWithDesignOrSource) {
  Request req = parse_request("{\"op\":\"analyze\",\"design\":\"matmul2\"}");
  EXPECT_EQ(req.op, "analyze");
  EXPECT_EQ(req.design, "matmul2");
  req = parse_request("{\"op\":\"analyze\",\"source\":\"design x...\"}");
  EXPECT_EQ(req.source, "design x...");
}

TEST(Protocol, ResponseRoundTripsIncludingRawPayloads) {
  Response r;
  r.id = 7;
  r.op = "run";
  r.status = "error";
  r.verdict = "Timeout";
  r.kind = "Timeout";
  r.retryable = true;
  r.retries = 2;
  r.message = "wall-clock deadline of 100ms exceeded";
  r.diagnostic_json = R"({"reason":"deadline","blocked":[1,2]})";

  Response back = parse_response(r.to_json());
  EXPECT_EQ(back.id, 7);
  EXPECT_EQ(back.status, "error");
  EXPECT_EQ(back.kind, "Timeout");
  EXPECT_TRUE(back.retryable);
  EXPECT_EQ(back.retries, 2);
  EXPECT_EQ(back.message, r.message);
  // The diagnostic payload survives as JSON (re-serialized, same content).
  EXPECT_NE(back.diagnostic_json.find("\"reason\":\"deadline\""),
            std::string::npos);
  EXPECT_NE(back.diagnostic_json.find("[1,2]"), std::string::npos);
}

TEST(Protocol, RetryAfterHintIsOmittedWhenNegative) {
  Response r;
  r.id = 1;
  r.op = "run";
  // A std::string temporary: assigning "ok" here trips a GCC 12 -O3
  // -Wmaybe-uninitialized false positive.
  r.status = std::string("ok");
  r.verdict = "success";
  EXPECT_EQ(r.to_json().find("retry_after_ms"), std::string::npos);
  r.retry_after_ms = 50;
  EXPECT_NE(r.to_json().find("\"retry_after_ms\":50"), std::string::npos);
}

TEST(Protocol, DefiniteVerdictCoversTheSoakContract) {
  Response ok;
  ok.status = "ok";
  ok.verdict = "success";
  EXPECT_TRUE(definite_verdict(ok));
  ok.verdict = "retried-success";
  EXPECT_TRUE(definite_verdict(ok));
  ok.verdict = "";  // ok without a verdict is NOT definite
  EXPECT_FALSE(definite_verdict(ok));

  Response err;
  err.status = "error";
  err.kind = "Timeout";
  EXPECT_TRUE(definite_verdict(err));
  err.kind = "";
  EXPECT_FALSE(definite_verdict(err));

  Response shed;
  shed.status = "rejected";
  EXPECT_TRUE(definite_verdict(shed));
  shed.status = "shutting-down";
  EXPECT_TRUE(definite_verdict(shed));
  shed.status = "weird";
  EXPECT_FALSE(definite_verdict(shed));
}

}  // namespace
}  // namespace systolize::service

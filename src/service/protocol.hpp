// Wire protocol of the systolize service: newline-delimited JSON objects
// over a Unix-domain stream socket. One request line in, one response
// line out, correlated by the client-chosen `id`; responses may arrive
// out of order when a client pipelines requests (workers finish in
// whatever order the runs take).
//
// Request fields (all optional except op):
//   id               integer correlation id (echoed back)
//   op               "ping" | "compile" | "expand" | "run" | "verify"
//                    | "analyze" | "stats" | "shutdown"
//   tenant           admission-control bucket; "" = anonymous bucket
//   design           catalog name (see `systolize list`)
//   source           inline .sa program text (overrides design)
//   n, m             problem sizes (defaults 8, 3 — the CLI's defaults)
//   capacity         channel slack (default 0 = rendezvous)
//   partition        processors per PS dimension (default 0 = off)
//   merge_buffers    realize internal buffers as channel capacity
//   threads          lane workers of a batched VM dispatch (the batch's
//                    SoA lanes split into up to this many chunks; a
//                    solo run has one lane and ignores it)
//   verify           run op: differential-check against the sequential
//                    baseline (the CLI's "verify: OK")
//   inject           fault plan, FaultPlan::parse syntax
//   backend          "" or "auto" | "interp" | "bytecode" — execution engine
//   batch            independent problem instances per run (default 1);
//                    eligible runs execute as SoA lanes of one bytecode
//                    dispatch, faulted ones replay per instance with
//                    derived seeds and per-instance verdicts
//   round_budget     watchdog round budget (0 = server default)
//   wall_timeout_ms  wall-clock deadline (0 = server default)
//   fail_attempts    TEST HOOK: fail the first N execution attempts with
//                    a retryable Io error, to exercise the retry path
//                    deterministically
//
// Response fields:
//   id, op           echoed from the request
//   status           "ok" | "error" | "rejected" | "shutting-down"
//   verdict          definite per-request outcome: "success",
//                    "retried-success", "clean"/"findings" (verify), or
//                    the ErrorKind name of the classified failure
//   kind             ErrorKind name (error/rejected responses)
//   retryable        classification of `kind` (error_kind_retryable)
//   retries          server-side attempts beyond the first
//   retry_after_ms   backoff hint (rejected responses)
//   message          human-readable detail
//   diagnostic       machine-readable payload (DeadlockReport JSON,
//                    verify findings JSON) when the failure carries one
//   metrics          RunMetrics JSON (successful run ops)
//   data             op-specific payload (stats, expand, compile)
#pragma once

#include <string>

#include "numeric/checked.hpp"

namespace systolize::service {

struct Request {
  Int id = 0;
  std::string op;
  std::string tenant;
  std::string design;
  std::string source;
  Int n = 8;
  Int m = 3;
  Int capacity = 0;
  Int partition = 0;
  bool merge_buffers = false;
  Int threads = 0;
  bool verify = false;
  std::string inject;
  std::string backend;  ///< "" = auto
  Int batch = 1;
  Int round_budget = 0;
  Int wall_timeout_ms = 0;
  Int fail_attempts = 0;

  /// Serialize to one request line (no trailing newline).
  [[nodiscard]] std::string to_json() const;
};

/// Parse one request line. Throws Error(Parse) on malformed JSON and
/// Error(Validation) on a structurally valid object with bad fields
/// (unknown op, wrong field type); both carry messages suitable for an
/// error response.
[[nodiscard]] Request parse_request(const std::string& line);
/// parse_request() into `req`, which gets the line's "id" and "op" before
/// any other field is read or validated: when this throws on a JSON
/// object, `req` still holds the id and op it sent (an unknown op as
/// sent), so the error reply can name the request it answers.
void parse_request_into(const std::string& line, Request& req);

struct Response {
  Int id = 0;
  std::string op;
  std::string status;
  std::string verdict;
  std::string kind;
  bool retryable = false;
  Int retries = 0;
  Int retry_after_ms = -1;  ///< < 0 = omit
  std::string message;
  std::string diagnostic_json;  ///< raw JSON (already serialized), may be ""
  std::string metrics_json;     ///< raw JSON, may be ""
  std::string data_json;        ///< raw JSON, may be ""

  /// Serialize to one response line (no trailing newline).
  [[nodiscard]] std::string to_json() const;
};

/// Parse a response line back into the struct (client side, tests).
[[nodiscard]] Response parse_response(const std::string& line);

/// True when `verdict` is one of the protocol's definite outcomes: the
/// request finished and was classified — the soak harness's liveness
/// criterion ("every request terminates with a definite verdict").
[[nodiscard]] bool definite_verdict(const Response& r);

}  // namespace systolize::service

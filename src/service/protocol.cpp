#include "service/protocol.hpp"

#include <sstream>

#include "service/checked_run.hpp"
#include "service/json.hpp"
#include "support/error.hpp"

namespace systolize::service {

namespace {

bool known_op(const std::string& op) {
  return op == "ping" || op == "compile" || op == "expand" || op == "run" ||
         op == "verify" || op == "analyze" || op == "stats" ||
         op == "shutdown";
}

}  // namespace

std::string Request::to_json() const {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"op\":" << json_quote(op);
  if (!tenant.empty()) os << ",\"tenant\":" << json_quote(tenant);
  if (!design.empty()) os << ",\"design\":" << json_quote(design);
  if (!source.empty()) os << ",\"source\":" << json_quote(source);
  os << ",\"n\":" << n << ",\"m\":" << m;
  if (capacity != 0) os << ",\"capacity\":" << capacity;
  if (partition != 0) os << ",\"partition\":" << partition;
  if (merge_buffers) os << ",\"merge_buffers\":true";
  if (threads != 0) os << ",\"threads\":" << threads;
  if (verify) os << ",\"verify\":true";
  if (!inject.empty()) os << ",\"inject\":" << json_quote(inject);
  if (!backend.empty()) os << ",\"backend\":" << json_quote(backend);
  if (batch != 1) os << ",\"batch\":" << batch;
  if (round_budget != 0) os << ",\"round_budget\":" << round_budget;
  if (wall_timeout_ms != 0) os << ",\"wall_timeout_ms\":" << wall_timeout_ms;
  if (fail_attempts != 0) os << ",\"fail_attempts\":" << fail_attempts;
  os << '}';
  return os.str();
}

Request parse_request(const std::string& line) {
  Request req;
  parse_request_into(line, req);
  return req;
}

void parse_request_into(const std::string& line, Request& req) {
  Json doc = Json::parse(line);
  if (!doc.is_object()) {
    raise(ErrorKind::Validation, "request must be a JSON object");
  }
  req.id = doc.int_or("id", 0);
  req.op = doc.str_or("op", "");
  if (req.op.empty()) {
    raise(ErrorKind::Validation, "request is missing \"op\"");
  }
  if (!known_op(req.op)) {
    raise(ErrorKind::Validation, "unknown op \"" + req.op + "\"");
  }
  req.tenant = doc.str_or("tenant", "");
  req.design = doc.str_or("design", "");
  req.source = doc.str_or("source", "");
  req.n = doc.int_or("n", 8);
  req.m = doc.int_or("m", 3);
  req.capacity = doc.int_or("capacity", 0);
  req.partition = doc.int_or("partition", 0);
  req.merge_buffers = doc.bool_or("merge_buffers", false);
  req.threads = doc.int_or("threads", 0);
  req.verify = doc.bool_or("verify", false);
  req.inject = doc.str_or("inject", "");
  req.backend = doc.str_or("backend", "");
  req.batch = doc.int_or("batch", 1);
  req.round_budget = doc.int_or("round_budget", 0);
  req.wall_timeout_ms = doc.int_or("wall_timeout_ms", 0);
  req.fail_attempts = doc.int_or("fail_attempts", 0);
  if (req.n < 1 || req.m < 1) {
    raise(ErrorKind::Validation, "sizes must be >= 1");
  }
  if (req.round_budget < 0 || req.wall_timeout_ms < 0 ||
      req.fail_attempts < 0 || req.threads < 0 || req.capacity < 0 ||
      req.partition < 0) {
    raise(ErrorKind::Validation, "numeric request fields must be >= 0");
  }
  if (req.batch < 1) {
    raise(ErrorKind::Validation, "\"batch\" must be >= 1");
  }
  if (!backend_named(req.backend).has_value()) {
    raise(ErrorKind::Validation,
          "unknown backend \"" + req.backend +
              "\" (expected \"auto\", \"interp\" or \"bytecode\")");
  }
  const bool needs_design = req.op == "compile" || req.op == "expand" ||
                            req.op == "run" || req.op == "verify" ||
                            req.op == "analyze";
  if (needs_design && req.design.empty() && req.source.empty()) {
    raise(ErrorKind::Validation,
          "op \"" + req.op + "\" needs a \"design\" or \"source\"");
  }
}

std::string Response::to_json() const {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"op\":" << json_quote(op)
     << ",\"status\":" << json_quote(status);
  if (!verdict.empty()) os << ",\"verdict\":" << json_quote(verdict);
  if (!kind.empty()) {
    os << ",\"kind\":" << json_quote(kind)
       << ",\"retryable\":" << (retryable ? "true" : "false");
  }
  if (retries > 0) os << ",\"retries\":" << retries;
  if (retry_after_ms >= 0) os << ",\"retry_after_ms\":" << retry_after_ms;
  if (!message.empty()) os << ",\"message\":" << json_quote(message);
  if (!diagnostic_json.empty()) os << ",\"diagnostic\":" << diagnostic_json;
  if (!metrics_json.empty()) os << ",\"metrics\":" << metrics_json;
  if (!data_json.empty()) os << ",\"data\":" << data_json;
  os << '}';
  return os.str();
}

namespace {

/// Re-serialize a parsed subtree, for round-tripping raw payload fields.
std::string dump(const Json& v) {
  switch (v.type()) {
    case Json::Type::Null: return "null";
    case Json::Type::Bool: return v.as_bool() ? "true" : "false";
    case Json::Type::Number: {
      std::ostringstream os;
      if (v.as_double() == static_cast<double>(v.as_int())) {
        os << v.as_int();
      } else {
        os << v.as_double();
      }
      return os.str();
    }
    case Json::Type::String: return json_quote(v.as_string());
    case Json::Type::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out += ',';
        out += dump(v.at(i));
      }
      return out + "]";
    }
    case Json::Type::Object: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, child] : v.fields()) {
        if (!first) out += ',';
        first = false;
        out += json_quote(key) + ":" + dump(child);
      }
      return out + "}";
    }
  }
  return "null";
}

}  // namespace

Response parse_response(const std::string& line) {
  Json doc = Json::parse(line);
  if (!doc.is_object()) {
    raise(ErrorKind::Validation, "response must be a JSON object");
  }
  Response r;
  r.id = doc.int_or("id", 0);
  r.op = doc.str_or("op", "");
  r.status = doc.str_or("status", "");
  r.verdict = doc.str_or("verdict", "");
  r.kind = doc.str_or("kind", "");
  r.retryable = doc.bool_or("retryable", false);
  r.retries = doc.int_or("retries", 0);
  r.retry_after_ms = doc.int_or("retry_after_ms", -1);
  r.message = doc.str_or("message", "");
  if (const Json* d = doc.get("diagnostic")) r.diagnostic_json = dump(*d);
  if (const Json* m = doc.get("metrics")) r.metrics_json = dump(*m);
  if (const Json* x = doc.get("data")) r.data_json = dump(*x);
  return r;
}

bool definite_verdict(const Response& r) {
  if (r.status == "ok") return !r.verdict.empty();
  if (r.status == "error") return !r.kind.empty();
  if (r.status == "rejected" || r.status == "shutting-down") return true;
  return false;
}

}  // namespace systolize::service

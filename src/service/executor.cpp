#include "service/executor.hpp"

#include <algorithm>
#include <chrono>
#include <new>
#include <sstream>

#include "analysis/cost.hpp"
#include "analysis/verify.hpp"
#include "baseline/sequential.hpp"
#include "frontend/parser.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"
#include "service/json.hpp"
#include "service/request_queue.hpp"
#include "support/error.hpp"

namespace systolize::service {

namespace {

Env sizes_of(const Design& design, const Request& req) {
  Env sizes;
  for (const Symbol& s : design.nest.sizes()) {
    if (s.name() == "m") {
      sizes["m"] = Rational(req.m);
    } else {
      sizes[s.name()] = Rational(req.n);
    }
  }
  return sizes;
}

PlanShape shape_of(const Design& design, const Request& req) {
  PlanShape shape;
  shape.channel_capacity = req.capacity;
  shape.merge_internal_buffers = req.merge_buffers;
  if (req.partition > 0) {
    std::vector<Int> comps(design.nest.depth() - 1, req.partition);
    shape.partition_grid = IntVec(comps);
  }
  return shape;
}

Backend backend_of(const Request& req) {
  if (req.backend == "interp") return Backend::Interp;
  if (req.backend == "bytecode") return Backend::Bytecode;
  return Backend::Auto;  // parse_request already rejected anything else
}

Response error_response(const Request& req, const Error& e, Int retries) {
  Response r;
  r.id = req.id;
  r.op = req.op;
  r.status = "error";
  r.kind = error_kind_name(e.kind());
  r.retryable = e.retryable();
  r.retries = retries;
  r.verdict = r.kind;  // the classified kind IS the definite verdict
  r.message = e.what();
  r.diagnostic_json = e.diagnostic();
  return r;
}

}  // namespace

void DeadlineTimer::arm(Int ms) {
  if (ms <= 0) return;
  disarm();
  fired_.store(false, std::memory_order_relaxed);
  stop_ = false;
  thread_ = std::thread([this, ms] {
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, std::chrono::milliseconds(ms),
                     [this] { return stop_; })) {
      return;  // disarmed before the deadline
    }
    fired_.store(true, std::memory_order_relaxed);
  });
}

void DeadlineTimer::disarm() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

Executor::Executor(ExecutorConfig config)
    : config_(config),
      plan_cache_(config.cache_budget),
      degradation_(
          DegradationConfig{config.cache_budget, config.reduced_cache_budget,
                            config.recovery_successes},
          plan_cache_) {}

std::shared_ptr<const Executor::CompiledEntry> Executor::compiled_for(
    const Request& req, bool* cached) {
  // Inline source keys on the text itself, catalog designs on the name.
  // The compile happens under the lock: compilation is cheap (symbolic,
  // no network construction) and a single cached CompiledProgram per key
  // is what keeps its generation — and with it the PlanCache template —
  // stable across requests.
  const std::string key =
      req.source.empty() ? "design:" + req.design : "source:" + req.source;
  std::lock_guard<std::mutex> lock(compile_mu_);
  auto it = compiled_.find(key);
  if (it != compiled_.end()) {
    if (cached != nullptr) *cached = true;
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++compile_cache_hits_;
    }
    return it->second;
  }
  if (cached != nullptr) *cached = false;
  Design design = req.source.empty() ? design_by_name(req.design)
                                     : frontend::parse_design(req.source);
  CompiledProgram prog = compile(design.nest, design.spec);
  auto entry =
      std::make_shared<CompiledEntry>(std::move(design), std::move(prog));
  compiled_.emplace(key, entry);
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++compile_cache_misses_;
  }
  return entry;
}

Response Executor::handle(const Request& req) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++op_counts_[req.op];
  }
  Response r;
  try {
    r = dispatch(req);
  } catch (const Error& e) {
    r = error_response(req, e, 0);
  } catch (const std::bad_alloc&) {
    degradation_.on_pressure();
    Error e(ErrorKind::Overload,
            "out of memory; server degraded to " +
                std::string(degrade_level_name(degradation_.level())));
    r = error_response(req, e, 0);
  } catch (const std::exception& e) {
    Error wrapped(ErrorKind::Internal, e.what());
    r = error_response(req, wrapped, 0);
  }
  count_outcome(r);
  return r;
}

void Executor::count_outcome(const Response& r) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (r.status == "ok") {
    ++ok_;
    if (r.verdict == "retried-success") ++retried_successes_;
  } else {
    ++errors_;
    if (r.kind == "Timeout") ++timeouts_;
  }
  retries_ += static_cast<std::size_t>(r.retries);
}

Response Executor::dispatch(const Request& req) {
  Response r;
  r.id = req.id;
  r.op = req.op;
  if (req.op == "ping" || req.op == "shutdown") {
    r.status = "ok";
    r.verdict = "success";
    return r;
  }
  if (req.op == "stats") {
    r.status = "ok";
    r.verdict = "success";
    r.data_json = stats_json();
    return r;
  }
  if (req.op == "compile") return handle_compile(req);
  if (req.op == "expand") return handle_expand(req);
  if (req.op == "run") return handle_run(req);
  if (req.op == "verify") return handle_verify(req);
  if (req.op == "analyze") return handle_analyze(req);
  raise(ErrorKind::Validation, "unknown op \"" + req.op + "\"");
}

Response Executor::handle_compile(const Request& req) {
  bool cached = false;
  auto ce = compiled_for(req, &cached);
  Response r;
  r.id = req.id;
  r.op = req.op;
  r.status = "ok";
  r.verdict = "success";
  std::ostringstream data;
  data << "{\"name\":" << json_quote(ce->prog.name)
       << ",\"generation\":" << ce->prog.generation
       << ",\"depth\":" << ce->prog.depth
       << ",\"cached\":" << (cached ? "true" : "false") << '}';
  r.data_json = data.str();
  return r;
}

Response Executor::handle_expand(const Request& req) {
  auto ce = compiled_for(req, nullptr);
  Env sizes = sizes_of(ce->design, req);
  PlanCache::LookupStats stats;
  auto plan = plan_cache_.lookup_or_build(ce->prog, ce->design.nest, sizes,
                                          shape_of(ce->design, req), &stats);
  Response r;
  r.id = req.id;
  r.op = req.op;
  r.status = "ok";
  r.verdict = "success";
  std::ostringstream data;
  data << "{\"processes\":" << plan->procs.size()
       << ",\"channels\":" << plan->channels.size()
       << ",\"comp\":" << plan->comp_count
       << ",\"bytes\":" << plan->memory_bytes()
       << ",\"plan_hit\":" << (stats.plan_hit ? "true" : "false")
       << ",\"template_hit\":" << (stats.template_hit ? "true" : "false")
       << '}';
  r.data_json = data.str();
  return r;
}

InstantiateOptions Executor::run_options(const Design& design,
                                        const Request& req,
                                        DeadlineTimer& deadline) {
  const PlanShape shape = shape_of(design, req);
  InstantiateOptions iopt;
  iopt.channel_capacity = shape.channel_capacity;
  iopt.merge_internal_buffers = shape.merge_internal_buffers;
  iopt.partition_grid = shape.partition_grid;
  iopt.plan_cache = &plan_cache_;
  iopt.backend = backend_of(req);
  if (req.threads > 1) {
    iopt.threads = static_cast<unsigned>(req.threads);
    iopt.worker_pool = &pool_;
  }
  iopt.watchdog.max_rounds =
      req.round_budget > 0 ? req.round_budget : config_.default_round_budget;
  const Int wall_ms = req.wall_timeout_ms > 0 ? req.wall_timeout_ms
                                              : config_.default_wall_timeout_ms;
  if (wall_ms > 0) {
    deadline.arm(wall_ms);
    iopt.watchdog.cancel = deadline.token();
    iopt.watchdog.cancel_kind = ErrorKind::Timeout;
    iopt.watchdog.cancel_reason =
        "wall-clock deadline of " + std::to_string(wall_ms) + "ms exceeded";
  }
  return iopt;
}

Response Executor::run_attempt(const CompiledEntry& ce, const Request& req) {
  Env sizes = sizes_of(ce.design, req);
  DeadlineTimer deadline;
  InstantiateOptions iopt = run_options(ce.design, req, deadline);
  FaultPlan plan;
  if (!req.inject.empty()) {
    plan = FaultPlan::parse(req.inject);
    iopt.faults = &plan;
  }

  const std::size_t batch = static_cast<std::size_t>(req.batch);

  if (batch > 1 && iopt.faults != nullptr) {
    // Faulted batches have per-instance semantics: a kill is a verdict
    // for ONE instance, never for the batch. Replay each instance
    // through the interpreter with its own derived fault seed and report
    // a verdict per instance in the data payload.
    std::ostringstream instances;
    std::size_t failures = 0;
    Int faults_total = 0;
    for (std::size_t b = 0; b < batch; ++b) {
      FaultPlan per_plan = FaultPlan::parse(req.inject);
      per_plan.set_seed(per_plan.seed() + b);
      InstantiateOptions per = iopt;
      per.faults = &per_plan;
      IndexedStore store =
          make_seeded_store(ce.design.nest, sizes, static_cast<Int>(b));
      std::string verdict = "success";
      std::string detail;
      try {
        RunMetrics m =
            execute(ce.prog, ce.design.nest, sizes, store, per);
        faults_total += m.faults_injected;
        if (req.verify) {
          IndexedStore expected =
              make_seeded_store(ce.design.nest, sizes, static_cast<Int>(b));
          run_sequential(ce.design.nest, sizes, expected);
          const std::string diff =
              first_divergence(ce.design.nest, expected, store);
          if (!diff.empty()) {
            verdict = "Inconsistent";
            detail = "differential check failed for " + diff;
            ++failures;
          }
        }
      } catch (const Error& e) {
        verdict = error_kind_name(e.kind());
        const std::string what = e.what();
        detail = what.substr(0, what.find('\n'));
        ++failures;
      }
      if (b != 0) instances << ',';
      instances << "{\"instance\":" << b << ",\"verdict\":"
                << json_quote(verdict);
      if (!detail.empty()) instances << ",\"message\":" << json_quote(detail);
      instances << '}';
    }
    deadline.disarm();
    Response r;
    r.id = req.id;
    r.op = req.op;
    r.status = "ok";
    r.verdict = failures == 0 ? "success" : "instance-failures";
    std::ostringstream data;
    data << "{\"batch\":" << batch << ",\"failures\":" << failures
         << ",\"faults_injected\":" << faults_total << ",\"instances\":["
         << instances.str() << "]}";
    r.data_json = data.str();
    return r;
  }

  if (batch > 1) {
    std::vector<IndexedStore> stores;
    stores.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      stores.push_back(
          make_seeded_store(ce.design.nest, sizes, static_cast<Int>(b)));
    }
    RunMetrics metrics = execute_batch(ce.prog, ce.design.nest, sizes,
                                       stores.data(), batch, iopt);
    deadline.disarm();
    note_run_metrics(metrics);
    if (req.verify) {
      for (std::size_t b = 0; b < batch; ++b) {
        IndexedStore expected =
            make_seeded_store(ce.design.nest, sizes, static_cast<Int>(b));
        run_sequential(ce.design.nest, sizes, expected);
        const std::string diff =
            first_divergence(ce.design.nest, expected, stores[b]);
        if (!diff.empty()) {
          raise(ErrorKind::Inconsistent,
                "differential check failed for instance " +
                    std::to_string(b) + ", " + diff +
                    " (batched run disagrees with sequential baseline)");
        }
      }
    }
    Response r;
    r.id = req.id;
    r.op = req.op;
    r.status = "ok";
    r.verdict = "success";
    r.metrics_json = metrics.to_json();
    return r;
  }

  IndexedStore store = make_seeded_store(ce.design.nest, sizes);
  RunMetrics metrics = execute(ce.prog, ce.design.nest, sizes, store, iopt);
  deadline.disarm();
  note_run_metrics(metrics);

  if (req.verify) {
    IndexedStore expected = make_seeded_store(ce.design.nest, sizes);
    run_sequential(ce.design.nest, sizes, expected);
    const std::string diff = first_divergence(ce.design.nest, expected, store);
    if (!diff.empty()) {
      raise(ErrorKind::Inconsistent,
            "differential check failed for " + diff +
                " (parallel run disagrees with sequential baseline)");
    }
  }

  Response r;
  r.id = req.id;
  r.op = req.op;
  r.status = "ok";
  r.verdict = "success";
  r.metrics_json = metrics.to_json();
  return r;
}

void Executor::note_run_metrics(const RunMetrics& metrics) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (metrics.backend == "bytecode") {
    ++bytecode_runs_;
    bytecode_instances_ += metrics.batch;
    max_batch_ = std::max(max_batch_, metrics.batch);
  }
}

std::vector<Response> Executor::handle_group(
    const std::vector<Request>& reqs) {
  if (reqs.empty()) return {};
  if (reqs.size() == 1) return {handle(reqs.front())};
  try {
    std::vector<Response> rs = group_attempt(reqs);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      for (const Request& req : reqs) ++op_counts_[req.op];
      ++coalesced_groups_;
      coalesced_requests_ += reqs.size();
    }
    for (const Response& r : rs) count_outcome(r);
    degradation_.on_success();
    return rs;
  } catch (...) {
    // Coalescing is an optimization, never a semantic change: on ANY
    // group-dispatch failure, serve each request independently — that
    // path carries the full retry/degradation/classification machinery.
    std::vector<Response> rs;
    rs.reserve(reqs.size());
    for (const Request& req : reqs) rs.push_back(handle(req));
    return rs;
  }
}

std::vector<Response> Executor::group_attempt(
    const std::vector<Request>& reqs) {
  const Request& proto = reqs.front();
  if (proto.fail_attempts > 0) {
    // The solo path's transient-failure hook (handle_run): the group
    // attempt has no retry loop of its own, so an injected failure always
    // faults the whole batch and exercises handle_group's fall-back —
    // every member re-runs independently through the full retry
    // machinery.
    raise(ErrorKind::Io, "injected transient failure (test hook), group");
  }
  auto ce = compiled_for(proto, nullptr);
  Env sizes = sizes_of(ce->design, proto);

  // Lanes are request-major: request j's instances are contiguous, each
  // seeded exactly as they would be in a solo run of that request — a
  // coalesced response is bit-identical to an uncoalesced one.
  std::size_t lanes = 0;
  for (const Request& r : reqs) lanes += static_cast<std::size_t>(r.batch);
  std::vector<IndexedStore> stores;
  stores.reserve(lanes);
  for (const Request& r : reqs) {
    for (Int b = 0; b < r.batch; ++b) {
      stores.push_back(make_seeded_store(ce->design.nest, sizes, b));
    }
  }

  DeadlineTimer deadline;
  const InstantiateOptions iopt = run_options(ce->design, proto, deadline);
  RunMetrics metrics = execute_batch(ce->prog, ce->design.nest, sizes,
                                     stores.data(), lanes, iopt);
  deadline.disarm();
  note_run_metrics(metrics);

  if (proto.verify) {
    // Only req.batch distinct seedings exist across the group; verify
    // each distinct instance index once against the sequential baseline,
    // then compare every lane against its index's expectation.
    std::map<Int, IndexedStore> expected_by_instance;
    std::size_t lane = 0;
    for (const Request& r : reqs) {
      for (Int b = 0; b < r.batch; ++b, ++lane) {
        auto it = expected_by_instance.find(b);
        if (it == expected_by_instance.end()) {
          IndexedStore expected =
              make_seeded_store(ce->design.nest, sizes, b);
          run_sequential(ce->design.nest, sizes, expected);
          it = expected_by_instance.emplace(b, std::move(expected)).first;
        }
        const std::string diff =
            first_divergence(ce->design.nest, it->second, stores[lane]);
        if (!diff.empty()) {
          raise(ErrorKind::Inconsistent,
                "differential check failed for coalesced lane " +
                    std::to_string(lane) + ", " + diff);
        }
      }
    }
  }

  std::ostringstream coalesced;
  coalesced << "{\"coalesced\":true,\"group\":" << reqs.size()
            << ",\"lanes\":" << lanes << '}';
  std::vector<Response> rs;
  rs.reserve(reqs.size());
  for (const Request& req : reqs) {
    Response r;
    r.id = req.id;
    r.op = req.op;
    r.status = "ok";
    r.verdict = "success";
    r.metrics_json = metrics.to_json();
    r.data_json = coalesced.str();
    rs.push_back(std::move(r));
  }
  return rs;
}

Response Executor::handle_run(const Request& req) {
  auto ce = compiled_for(req, nullptr);
  Int attempt = 0;
  for (;;) {
    try {
      if (attempt < req.fail_attempts) {
        raise(ErrorKind::Io,
              "injected transient failure (test hook), attempt " +
                  std::to_string(attempt));
      }
      Response r = run_attempt(*ce, req);
      r.retries = attempt;
      if (attempt > 0) r.verdict = "retried-success";
      degradation_.on_success();
      return r;
    } catch (const std::bad_alloc&) {
      degradation_.on_pressure();
      Error e(ErrorKind::Overload,
              "out of memory during run; server degraded to " +
                  std::string(degrade_level_name(degradation_.level())));
      if (attempt >= config_.max_retries) return error_response(req, e, attempt);
    } catch (const Error& e) {
      if (!e.retryable() || attempt >= config_.max_retries) {
        return error_response(req, e, attempt);
      }
    }
    // Capped exponential backoff before the next attempt.
    Int delay = config_.backoff_base_ms;
    for (Int i = 0; i < attempt && delay < config_.backoff_cap_ms; ++i) {
      delay *= 2;
    }
    if (delay > config_.backoff_cap_ms) delay = config_.backoff_cap_ms;
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    ++attempt;
  }
}

Response Executor::handle_verify(const Request& req) {
  auto ce = compiled_for(req, nullptr);
  VerifyReport rep;
  rep.design = req.design.empty() ? ce->prog.name : req.design;
  verify_spec_into(rep, ce->design.nest, ce->design.spec);
  if (rep.errors() == 0) {
    verify_program_into(rep, ce->prog, ce->design.nest);
    if (rep.errors() == 0) {
      Env sizes = sizes_of(ce->design, req);
      auto plan = plan_cache_.lookup_or_build(ce->prog, ce->design.nest, sizes,
                                              shape_of(ce->design, req));
      verify_plan_into(rep, *plan);
    }
  }
  Response r;
  r.id = req.id;
  r.op = req.op;
  r.status = "ok";
  r.verdict = rep.errors() == 0 ? "clean" : "findings";
  r.data_json = rep.to_json();
  return r;
}

Response Executor::handle_analyze(const Request& req) {
  Response r;
  r.id = req.id;
  r.op = req.op;
  r.status = "ok";
  // Verifier-first, like the CLI: a design the verifier rejects has no
  // meaningful cost — return its findings under the "findings" verdict.
  // The spec rules run before compilation so a broken design cannot
  // throw out of compile() and classify as a request error.
  Design design = req.source.empty() ? design_by_name(req.design)
                                     : frontend::parse_design(req.source);
  VerifyReport rep;
  rep.design = req.design.empty() ? design.nest.name() : req.design;
  verify_spec_into(rep, design.nest, design.spec);
  if (rep.errors() > 0) {
    r.verdict = "findings";
    r.data_json = rep.to_json();
    return r;
  }
  auto ce = compiled_for(req, nullptr);
  verify_program_into(rep, ce->prog, ce->design.nest);
  if (rep.errors() > 0) {
    r.verdict = "findings";
    r.data_json = rep.to_json();
    return r;
  }
  const CostReport cost =
      analyze_cost(ce->prog, ce->design.nest, {sizes_of(ce->design, req)},
                   shape_of(ce->design, req), &plan_cache_);
  r.verdict = "success";
  r.data_json = cost.to_json();
  return r;
}

std::string Executor::stats_json() const {
  std::ostringstream os;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    os << "{\"requests\":{";
    bool first = true;
    for (const auto& [op, count] : op_counts_) {
      if (!first) os << ',';
      first = false;
      os << json_quote(op) << ':' << count;
    }
    os << "},\"ok\":" << ok_ << ",\"errors\":" << errors_
       << ",\"retries\":" << retries_
       << ",\"retried_successes\":" << retried_successes_
       << ",\"timeouts\":" << timeouts_
       << ",\"compile_cache\":{\"hits\":" << compile_cache_hits_
       << ",\"misses\":" << compile_cache_misses_ << '}'
       << ",\"bytecode\":{\"runs\":" << bytecode_runs_
       << ",\"batched_instances\":" << bytecode_instances_
       << ",\"max_batch\":" << max_batch_
       << ",\"coalesced_groups\":" << coalesced_groups_
       << ",\"coalesced_requests\":" << coalesced_requests_ << '}';
  }
  os << ",\"plan_cache\":{\"plans\":" << plan_cache_.size()
     << ",\"hits\":" << plan_cache_.hits()
     << ",\"misses\":" << plan_cache_.misses()
     << ",\"template_hits\":" << plan_cache_.template_hits()
     << ",\"template_compiles\":" << plan_cache_.template_compiles()
     << ",\"evictions\":" << plan_cache_.evictions()
     << ",\"bytes\":" << plan_cache_.bytes()
     << ",\"budget\":" << plan_cache_.byte_budget()
     << ",\"bytecode_programs\":" << plan_cache_.bytecode_size()
     << ",\"bytecode_hits\":" << plan_cache_.bytecode_hits()
     << ",\"bytecode_misses\":" << plan_cache_.bytecode_misses()
     << ",\"bytecode_evictions\":" << plan_cache_.bytecode_evictions()
     << ",\"bytecode_bytes\":" << plan_cache_.bytecode_bytes() << '}';
  os << ",\"degradation\":" << degradation_.to_json();
  if (queue_ != nullptr) {
    os << ",\"admission\":{\"admitted\":" << queue_->admitted()
       << ",\"shed_queue_full\":" << queue_->shed_queue_full()
       << ",\"shed_tenant_cap\":" << queue_->shed_tenant_cap()
       << ",\"shed_closed\":" << queue_->shed_closed()
       << ",\"high_water\":" << queue_->high_water()
       << ",\"queued\":" << queue_->queued()
       << ",\"in_flight\":" << queue_->in_flight() << '}';
  }
  os << '}';
  return os.str();
}

}  // namespace systolize::service

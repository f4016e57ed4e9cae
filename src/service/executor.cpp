#include "service/executor.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "analysis/cost.hpp"
#include "analysis/verify.hpp"
#include "frontend/parser.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"
#include "service/checked_run.hpp"
#include "service/json.hpp"
#include "service/request_queue.hpp"
#include "support/error.hpp"

namespace systolize::service {

namespace {


/// The compile cache's key: inline source keys on the text itself,
/// catalog designs on the name.
std::string compile_key(const Request& req) {
  return req.source.empty() ? "design:" + req.design : "source:" + req.source;
}

/// The request's design: the catalog's, or its inline source parsed.
Design design_of(const Request& req) {
  return req.source.empty() ? design_by_name(req.design)
                            : frontend::parse_design(req.source);
}

Response ok_response(const Request& req, std::string verdict) {
  Response r;
  r.id = req.id;
  r.op = req.op;
  r.status = "ok";
  r.verdict = std::move(verdict);
  return r;
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

/// The one timer thread behind every DeadlineTimer: a queue of (deadline,
/// token) ordered by deadline. The thread sleeps until the earliest
/// deadline it knows of, sets every token that is due, and drops those
/// entries; tokens are set under the queue's lock, so once cancel()
/// returns the entry can never fire. A cancel never wakes the thread (it
/// wakes at the old time, finds nothing due and sleeps on), and a
/// schedule wakes it only for a deadline earlier than its wake-up time.
class DeadlineQueue {
 public:
  using Clock = std::chrono::steady_clock;

  static DeadlineQueue& instance() {
    static DeadlineQueue queue;  // destroyed, and its thread joined, at exit
    return queue;
  }

  ~DeadlineQueue() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void schedule(Clock::time_point when, std::atomic<bool>* token) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!thread_.joinable()) thread_ = std::thread([this] { loop(); });
    queue_.emplace(when, token);
    if (when < wake_at_) {
      wake_at_ = when;
      cv_.notify_one();
    }
  }

  void cancel(Clock::time_point when, std::atomic<bool>* token) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.erase({when, token});
  }

 private:
  DeadlineQueue() = default;

  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      const Clock::time_point now = Clock::now();
      while (!queue_.empty() && queue_.begin()->first <= now) {
        queue_.begin()->second->store(true, std::memory_order_relaxed);
        queue_.erase(queue_.begin());
      }
      if (queue_.empty()) {
        wake_at_ = Clock::time_point::max();
        cv_.wait(lock);
      } else {
        wake_at_ = queue_.begin()->first;
        cv_.wait_until(lock, wake_at_);
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::pair<Clock::time_point, std::atomic<bool>*>> queue_;
  /// When the thread next wakes on its own (max: only when notified).
  Clock::time_point wake_at_ = Clock::time_point::max();
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

void DeadlineTimer::arm(Int ms) {
  if (ms <= 0) return;
  disarm();
  fired_.store(false, std::memory_order_relaxed);
  // About 31 years: far enough to never fire, near enough that the
  // steady clock's nanosecond count cannot overflow.
  constexpr Int kMaxMs = Int{1'000'000'000'000};
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(std::min(ms, kMaxMs));
  DeadlineQueue::instance().schedule(deadline_, &fired_);
  armed_ = true;
}

void DeadlineTimer::disarm() {
  if (!armed_) return;
  DeadlineQueue::instance().cancel(deadline_, &fired_);
  armed_ = false;
}

Executor::Executor(ExecutorConfig config)
    : config_(config),
      plan_cache_(config.cache_budget),
      degradation_(
          DegradationConfig{config.cache_budget, config.reduced_cache_budget,
                            config.recovery_successes},
          plan_cache_) {}

std::shared_ptr<const Executor::CompiledEntry> Executor::cached_locked(
    const std::string& key) {
  auto it = compiled_.find(key);
  if (it == compiled_.end()) return nullptr;
  std::lock_guard<std::mutex> slock(stats_mu_);
  ++compile_cache_hits_;
  return it->second;
}

std::shared_ptr<const Executor::CompiledEntry> Executor::compiled_for(
    const Request& req, bool* cached, const Design* parsed) {
  // The compile happens under the lock: compilation is cheap (symbolic,
  // no network construction) and a single cached CompiledProgram per key
  // is what keeps its generation — and with it the PlanCache template —
  // stable across requests.
  const std::string key = compile_key(req);
  std::lock_guard<std::mutex> lock(compile_mu_);
  if (auto hit = cached_locked(key)) {
    if (cached != nullptr) *cached = true;
    return hit;
  }
  if (cached != nullptr) *cached = false;
  Design design = parsed != nullptr ? *parsed : design_of(req);
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
  if (req.op == "ping" || req.op == "shutdown") {
    return ok_response(req, "success");
  }
  if (req.op == "stats") {
    Response r = ok_response(req, "success");
    r.data_json = stats_json();
    return r;
  }
  if (req.op == "compile") return handle_compile(req);
  if (req.op == "expand") return handle_expand(req);
  if (req.op == "run") return handle_run(req);
  if (req.op == "verify" || req.op == "analyze") return handle_static(req);
  raise(ErrorKind::Validation, "unknown op \"" + req.op + "\"");
}

Response Executor::handle_compile(const Request& req) {
  bool cached = false;
  auto ce = compiled_for(req, &cached);
  Response r = ok_response(req, "success");
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
  const LoopNest& nest = ce->design.nest;
  PlanCache::LookupStats stats;
  auto plan = plan_cache_.lookup_or_build(
      ce->prog, nest, sizes_of(nest, req.n, req.m),
      plan_shape(nest, req.capacity, req.merge_buffers, req.partition),
      &stats);
  Response r = ok_response(req, "success");
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
                                        const Request& req) {
  InstantiateOptions iopt = shaped_options(plan_shape(
      design.nest, req.capacity, req.merge_buffers, req.partition));
  iopt.plan_cache = &plan_cache_;
  // parse_request already rejected any other name.
  iopt.backend = backend_named(req.backend).value_or(Backend::Auto);
  if (req.threads > 1) {
    iopt.threads = static_cast<unsigned>(req.threads);
    iopt.worker_pool = &pool_;
  }
  iopt.watchdog.max_rounds =
      req.round_budget > 0 ? req.round_budget : config_.default_round_budget;
  return iopt;
}

Int Executor::wall_ms(const Request& req) const {
  return req.wall_timeout_ms > 0 ? req.wall_timeout_ms
                                 : config_.default_wall_timeout_ms;
}

Response Executor::faulted_attempt(const CompiledEntry& ce,
                                   const Request& req) {
  // Faulted batches have per-instance semantics: a kill is a verdict for
  // ONE instance, never for the batch. Each instance replays on its own
  // with a derived fault seed, and the data payload carries a verdict per
  // instance.
  const std::size_t batch = static_cast<std::size_t>(req.batch);
  const LoopNest& nest = ce.design.nest;
  const std::vector<InstanceRun> runs = run_faulted(
      ce.prog, nest, sizes_of(nest, req.n, req.m), batch,
      FaultPlan::parse(req.inject), run_options(ce.design, req),
      wall_ms(req), req.verify);
  std::ostringstream instances;
  std::size_t failures = 0;
  Int faults_total = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    const InstanceRun& run = runs[b];
    std::string verdict = "success";
    std::string detail;
    if (run.error.has_value()) {
      verdict = error_kind_name(run.error->kind());
      const std::string what = run.error->what();
      detail = what.substr(0, what.find('\n'));
      ++failures;
    } else {
      faults_total += run.metrics.faults_injected;
      if (!run.divergence.empty()) {
        verdict = "Inconsistent";
        detail = "differential check failed for " + run.divergence;
        ++failures;
      }
    }
    if (b != 0) instances << ',';
    instances << "{\"instance\":" << b << ",\"verdict\":"
              << json_quote(verdict);
    if (!detail.empty()) instances << ",\"message\":" << json_quote(detail);
    instances << '}';
  }
  Response r =
      ok_response(req, failures == 0 ? "success" : "instance-failures");
  std::ostringstream data;
  data << "{\"batch\":" << batch << ",\"failures\":" << failures
       << ",\"faults_injected\":" << faults_total << ",\"instances\":["
       << instances.str() << "]}";
  r.data_json = data.str();
  return r;
}

void Executor::note_run_metrics(const RunMetrics& metrics) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (metrics.backend == "bytecode") {
    ++bytecode_runs_;
    bytecode_instances_ += metrics.batch;
    max_batch_ = std::max(max_batch_, metrics.batch);
    if (metrics.schedule == "replayed") ++replays_;
  }
}

std::vector<Response> Executor::handle_group(
    const std::vector<Request>& reqs) {
  if (reqs.empty()) return {};
  if (reqs.size() == 1) return {handle(reqs.front())};
  try {
    if (reqs.front().fail_attempts > 0) {
      // The solo path's transient-failure hook (handle_run): the group
      // attempt has no retry loop of its own, so an injected failure
      // always faults the whole batch and exercises the fall-back below —
      // every member re-runs independently through the full retry
      // machinery.
      raise(ErrorKind::Io, "injected transient failure (test hook), group");
    }
    std::vector<Response> rs =
        run_group(*compiled_for(reqs.front(), nullptr), reqs);
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

std::vector<Response> Executor::run_group(const CompiledEntry& ce,
                                          const std::vector<Request>& reqs) {
  const Request& proto = reqs.front();
  InstantiateOptions iopt = run_options(ce.design, proto);
  FaultPlan faults;  // the queue never coalesces faulted requests
  if (!proto.inject.empty()) {
    faults = FaultPlan::parse(proto.inject);
    iopt.faults = &faults;
  }
  // Lanes are request-major: request j's instances are contiguous, each
  // seeded exactly as they would be in a solo run of that request — a
  // coalesced response is bit-identical to an uncoalesced one.
  std::vector<Int> instances;
  for (const Request& r : reqs) {
    for (Int b = 0; b < r.batch; ++b) instances.push_back(b);
  }
  const LoopNest& nest = ce.design.nest;
  const CheckedRun run =
      run_checked(ce.prog, nest, sizes_of(nest, proto.n, proto.m), instances,
                  iopt, wall_ms(proto), proto.verify);
  note_run_metrics(run.metrics);
  for (std::size_t lane = 0; lane < instances.size(); ++lane) {
    const std::string& diff = run.divergence[lane];
    if (diff.empty()) continue;
    if (reqs.size() > 1) {
      raise(ErrorKind::Inconsistent,
            "differential check failed for coalesced lane " +
                std::to_string(lane) + ", " + diff);
    }
    if (proto.batch > 1) {
      raise(ErrorKind::Inconsistent,
            "differential check failed for instance " +
                std::to_string(lane) + ", " + diff +
                " (batched run disagrees with sequential baseline)");
    }
    raise(ErrorKind::Inconsistent,
          "differential check failed for " + diff +
              " (parallel run disagrees with sequential baseline)");
  }

  std::string coalesced;  // a solo request's response carries none
  if (reqs.size() > 1) {
    coalesced = "{\"coalesced\":true,\"group\":" +
                std::to_string(reqs.size()) +
                ",\"lanes\":" + std::to_string(instances.size()) + "}";
  }
  std::vector<Response> rs;
  rs.reserve(reqs.size());
  for (const Request& req : reqs) {
    Response r = ok_response(req, "success");
    r.metrics_json = run.metrics.to_json();
    r.data_json = coalesced;
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
      // A faulted batch replays instance by instance; anything else runs
      // as a group of one.
      Response r = req.batch > 1 && !req.inject.empty()
                       ? faulted_attempt(*ce, req)
                       : run_group(*ce, {req}).front();
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

Response Executor::handle_static(const Request& req) {
  // verify and analyze run the static pipeline on the request's design,
  // parsed at most once: the compile cache's copy when it holds the
  // request's key, else parsed here and — once the spec rules pass —
  // compiled from that parse through the cache.
  std::shared_ptr<const CompiledEntry> entry;
  {
    std::lock_guard<std::mutex> lock(compile_mu_);
    entry = cached_locked(compile_key(req));
  }
  std::optional<Design> parsed;
  const Design& design =
      entry != nullptr ? entry->design : parsed.emplace(design_of(req));
  PipelineOptions options;
  options.shape =
      plan_shape(design.nest, req.capacity, req.merge_buffers, req.partition);
  options.plan_cache = &plan_cache_;
  options.compile = [&]() -> const CompiledProgram& {
    if (entry == nullptr) entry = compiled_for(req, nullptr, &design);
    return entry->prog;
  };
  const Env sizes = sizes_of(design.nest, req.n, req.m);
  CostReport cost;
  VerifyReport rep =
      req.op == "verify"
          ? verify_design(design.nest, design.spec, sizes, options)
          : analyze_design(design.nest, design.spec, {sizes}, options, cost);
  rep.design = req.design.empty() ? design.nest.name() : req.design;
  // A design the pipeline rejects answers with its findings; analyze has
  // no meaningful cost for it.
  if (rep.errors() > 0 || req.op == "verify") {
    Response r = ok_response(req, rep.errors() > 0 ? "findings" : "clean");
    r.data_json = rep.to_json();
    return r;
  }
  Response r = ok_response(req, "success");
  r.data_json = cost.to_json();
  return r;
}

std::string Executor::stats_json() const {
  std::ostringstream os;
  std::size_t replays = 0;
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
    replays = replays_;
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
     << ",\"bytecode_bytes\":" << plan_cache_.bytecode_bytes()
     << ",\"tapes\":" << plan_cache_.tapes()
     << ",\"tape_bytes\":" << plan_cache_.tape_bytes()
     << ",\"replays\":" << replays << '}';
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

// The service's request engine: everything between a parsed Request and
// a definite Response, independent of sockets and threads so tests and
// benchmarks can drive it directly.
//
// Fault isolation contract: handle() NEVER throws. Every failure mode —
// parse errors, validation, watchdog trips, wall-clock deadlines,
// injected faults, even std::bad_alloc — is caught at this boundary and
// classified into an error Response (stable ErrorKind name + retryable
// bit + forensic diagnostic when one exists). A wedged run is cancelled
// by the deadline timer through the scheduler's cooperative cancel token
// and reported with its DeadlockReport; the worker thread survives to
// take the next job.
//
// Retry policy: failures whose kind is retryable (error_kind_retryable)
// are re-attempted up to `max_retries` times with capped exponential
// backoff; terminal kinds return immediately. A request that succeeds
// after retries reports verdict "retried-success" so callers can see the
// transient. Deterministic failures (an injected kill, a structural
// deadlock) reproduce the same forensics on every attempt and then
// classify as errors — retry makes transients invisible, not faults.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "designs/catalog.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/worker_pool.hpp"
#include "scheme/types.hpp"
#include "service/degradation.hpp"
#include "service/protocol.hpp"

namespace systolize {
struct InstantiateOptions;
struct RunMetrics;
}

namespace systolize::service {

class RequestQueue;

/// One-shot wall-clock deadline: arm(ms) starts a timer thread that sets
/// the cancel token when the deadline passes; the scheduler polls the
/// token at round boundaries (WatchdogConfig::cancel) and turns it into a
/// structured Error. Destruction (or disarm) joins the thread without
/// firing. One timer per run attempt.
class DeadlineTimer {
 public:
  DeadlineTimer() = default;
  ~DeadlineTimer() { disarm(); }
  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  void arm(Int ms);
  void disarm();
  [[nodiscard]] const std::atomic<bool>* token() const { return &fired_; }
  [[nodiscard]] bool fired() const {
    return fired_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> fired_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

struct ExecutorConfig {
  /// Watchdog round budget applied when the request does not choose one
  /// (0 = unbounded). Generous: the largest catalog runs take thousands
  /// of rounds, a wedged one spins forever without this.
  Int default_round_budget = 2'000'000;
  /// Wall-clock deadline applied when the request does not choose one
  /// (0 = none).
  Int default_wall_timeout_ms = 10'000;
  /// Attempts beyond the first for retryable failures.
  Int max_retries = 2;
  /// Capped exponential backoff: base * 2^attempt, capped.
  Int backoff_base_ms = 5;
  Int backoff_cap_ms = 100;
  /// Plan-cache budgets (Normal / degraded — see DegradationConfig).
  std::size_t cache_budget = PlanCache::kDefaultByteBudget;
  std::size_t reduced_cache_budget = std::size_t{1} * 1024 * 1024;
  std::size_t recovery_successes = 32;
};

class Executor {
 public:
  explicit Executor(ExecutorConfig config = {});

  /// Serve one request; never throws. (`shutdown` and admission are the
  /// server's business — handle() treats an incoming "shutdown" op as a
  /// plain acknowledgement.)
  [[nodiscard]] Response handle(const Request& req);

  /// Serve a coalesced group of run requests (RequestQueue::pop_group)
  /// with ONE batched dispatch: the requests' instances become SoA lanes
  /// of a single bytecode run, so k warm requests pay one schedule
  /// instead of k. Every request gets its own response (same order as
  /// `reqs`), marked with a "coalesced" data payload. Coalescing is an
  /// optimization, never a semantic change: any group-dispatch failure
  /// falls back to independent handle() calls, preserving per-request
  /// retry and degradation behaviour. Never throws.
  [[nodiscard]] std::vector<Response> handle_group(
      const std::vector<Request>& reqs);

  /// Optional: let the stats op report admission counters too.
  void set_queue(const RequestQueue* queue) { queue_ = queue; }

  [[nodiscard]] PlanCache& plan_cache() { return plan_cache_; }
  [[nodiscard]] Degradation& degradation() { return degradation_; }
  [[nodiscard]] const ExecutorConfig& config() const { return config_; }

  /// Stats payload (the stats op's data field): request counters, plan
  /// cache, compile cache, degradation, admission (when a queue is set).
  [[nodiscard]] std::string stats_json() const;

 private:
  /// Compiled-program cache entry. Programs are cached per design name /
  /// source text so repeated requests reuse one CompiledProgram
  /// generation — the PlanCache templates key on that generation, so
  /// without this cache every request would recompile its template.
  struct CompiledEntry {
    CompiledEntry(Design d, CompiledProgram p)
        : design(std::move(d)), prog(std::move(p)) {}
    Design design;
    CompiledProgram prog;
  };

  /// The cached entry under `key`, counted as a hit; null when absent.
  /// Caller holds compile_mu_.
  [[nodiscard]] std::shared_ptr<const CompiledEntry> cached_locked(
      const std::string& key);
  /// The request's compiled design, compiled (from `parsed` when given,
  /// else from the request) and cached on a miss.
  [[nodiscard]] std::shared_ptr<const CompiledEntry> compiled_for(
      const Request& req, bool* cached, const Design* parsed = nullptr);
  [[nodiscard]] Response dispatch(const Request& req);
  [[nodiscard]] Response handle_compile(const Request& req);
  [[nodiscard]] Response handle_expand(const Request& req);
  [[nodiscard]] Response handle_run(const Request& req);
  /// The engine options of one run request (solo or a coalesced group's
  /// prototype): plan shape, cache, backend, lane workers and round
  /// budget.
  [[nodiscard]] InstantiateOptions run_options(const Design& design,
                                               const Request& req);
  /// The request's wall-clock deadline in ms (0 = none).
  [[nodiscard]] Int wall_ms(const Request& req) const;
  /// A faulted batch, replayed instance by instance.
  [[nodiscard]] Response faulted_attempt(const CompiledEntry& ce,
                                         const Request& req);
  /// One checked dispatch of every request's instances as lanes; a
  /// divergence raises Error(Inconsistent).
  [[nodiscard]] std::vector<Response> run_group(
      const CompiledEntry& ce, const std::vector<Request>& reqs);
  /// The verify and analyze ops: the static pipeline (analysis/verify.hpp)
  /// on the request's design.
  [[nodiscard]] Response handle_static(const Request& req);
  void count_outcome(const Response& r);
  /// Accumulate bytecode-backend counters off a run.
  void note_run_metrics(const RunMetrics& metrics);

  const ExecutorConfig config_;
  PlanCache plan_cache_;
  Degradation degradation_;
  /// Shared across requests: batched VM dispatches borrow their lane
  /// workers here instead of spawning threads per run (warm-serve
  /// latency).
  WorkerPool pool_;
  const RequestQueue* queue_ = nullptr;

  mutable std::mutex compile_mu_;
  std::map<std::string, std::shared_ptr<const CompiledEntry>> compiled_;

  mutable std::mutex stats_mu_;
  std::map<std::string, std::size_t> op_counts_;
  std::size_t ok_ = 0;
  std::size_t errors_ = 0;
  std::size_t retries_ = 0;           ///< total extra attempts spent
  std::size_t retried_successes_ = 0;
  std::size_t timeouts_ = 0;          ///< error responses with kind Timeout
  std::size_t compile_cache_hits_ = 0;
  std::size_t compile_cache_misses_ = 0;
  /// Bytecode backend and request-coalescing counters.
  std::size_t bytecode_runs_ = 0;       ///< dispatches the VM executed
  std::size_t bytecode_instances_ = 0;  ///< SoA lanes across those runs
  std::size_t max_batch_ = 0;           ///< widest single dispatch seen
  std::size_t coalesced_groups_ = 0;    ///< shared dispatches (group > 1)
  std::size_t coalesced_requests_ = 0;  ///< requests riding those groups
};

}  // namespace systolize::service

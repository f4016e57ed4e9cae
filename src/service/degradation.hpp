// Graceful degradation under memory pressure: a two-level state machine
// that trades throughput for survival instead of dying.
//
//   Normal        — full plan-cache budget.
//   ReducedCache  — the plan cache is shrunk to a small budget (templates
//                   are never evicted, so warm requests degrade to one
//                   integer expansion each, not to re-derivation).
//
// Escalation is driven by observed pressure (std::bad_alloc caught at the
// executor boundary); recovery steps back one level after a run of
// consecutive successes, so a single transient spike does not pin the
// server in degraded mode forever.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>

#include "runtime/plan_cache.hpp"

namespace systolize::service {

enum class DegradeLevel { Normal = 0, ReducedCache = 1 };

[[nodiscard]] const char* degrade_level_name(DegradeLevel level) noexcept;

struct DegradationConfig {
  /// Budget restored to the plan cache at Normal.
  std::size_t cache_budget = PlanCache::kDefaultByteBudget;
  /// Budget applied at ReducedCache.
  std::size_t reduced_cache_budget = std::size_t{1} * 1024 * 1024;
  /// Consecutive successful requests required to step back one level.
  std::size_t recovery_successes = 32;
};

class Degradation {
 public:
  Degradation(DegradationConfig config, PlanCache& cache)
      : config_(config), cache_(cache) {}

  /// Record a memory-pressure event: escalate to ReducedCache (if not
  /// there already) and apply its cache budget immediately.
  void on_pressure();

  /// Record a successfully completed request; after
  /// `recovery_successes` in a row, step back one level.
  void on_success();

  [[nodiscard]] DegradeLevel level() const;

  [[nodiscard]] std::size_t escalations() const;
  [[nodiscard]] std::size_t recoveries() const;

  /// {"level":"Normal","escalations":0,"recoveries":0} — spliced into the
  /// stats op's payload.
  [[nodiscard]] std::string to_json() const;

 private:
  void apply_level_locked();

  const DegradationConfig config_;
  PlanCache& cache_;
  mutable std::mutex mu_;
  DegradeLevel level_ = DegradeLevel::Normal;
  std::size_t successes_since_pressure_ = 0;
  std::size_t escalations_ = 0;
  std::size_t recoveries_ = 0;
};

}  // namespace systolize::service

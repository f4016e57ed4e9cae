// Deterministic fault injection for the process-network runtime.
//
// A FaultPlan describes which faults to inject into a run: stalling a
// process for k scheduler rounds, killing a process at its n-th statement,
// and delaying or duplicate-delivering a channel transfer. Faults are
// either explicit (named process/channel) or probabilistic, rolled from a
// seeded PRNG. Because the scheduler is deterministic and the PRNG is
// consumed in scheduler order, a given (plan, program, sizes) triple
// replays bit-identically: the same faults fire at the same points, the
// same diagnostics come out. That is what makes an injected failure
// debuggable instead of a heisenbug.
//
// Stalls and delays perturb only the *scheduling order*; logical clocks
// are driven by the dataflow, so a survivable fault leaves both the
// results and the makespan unchanged (asserted by the resilience harness
// in tests/integration). Kills and duplicates break the communication
// protocol; the runtime's job is then to convert the breakage into a
// structured diagnostic — never a hang, never a silent wrong answer.
//
// Faults are injected only into the interpreter (runtime/scheduler):
// Backend::Auto sends every faulted run there, and the bytecode VM
// refuses them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "numeric/checked.hpp"

namespace systolize {

class Channel;
struct CommOp;
struct Process;

enum class FaultKind {
  Stall,      ///< hold a runnable process out of the ready queue
  Kill,       ///< terminate a process at its n-th statement
  Delay,      ///< hold a channel transfer for k scheduler rounds
  Duplicate,  ///< deliver one channel transfer twice
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind) noexcept;

/// One explicit fault. Which fields matter depends on `kind`:
///   Stall     target=process  at=round the stall begins   duration=rounds
///   Kill      target=process  at=statement index (1-based)
///   Delay     target=channel  at=transfer index (0-based)  duration=rounds
///   Duplicate target=channel  at=transfer index (0-based)
struct FaultSpec {
  FaultKind kind = FaultKind::Stall;
  std::string target;
  Int at = 0;
  Int duration = 1;

  [[nodiscard]] std::string to_string() const;
};

/// Probabilistic fault profile: each spawned process / issued transfer
/// rolls against these rates on the plan's PRNG.
struct FaultProfile {
  double stall_probability = 0.0;
  Int max_stall_rounds = 0;       ///< stall duration rolled in [1, max]
  double delay_probability = 0.0;
  Int max_delay_rounds = 0;       ///< delay rolled in [1, max]
  double duplicate_probability = 0.0;
  double kill_probability = 0.0;
  Int max_kill_statement = 0;     ///< kill statement rolled in [1, max]

  [[nodiscard]] bool empty() const noexcept {
    return stall_probability <= 0.0 && delay_probability <= 0.0 &&
           duplicate_probability <= 0.0 && kill_probability <= 0.0;
  }
};

/// The full, reproducible description of what to inject.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  void add(FaultSpec spec) { specs_.push_back(std::move(spec)); }
  void set_profile(FaultProfile profile) { profile_ = profile; }
  void set_seed(std::uint64_t seed) { seed_ = seed; }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const std::vector<FaultSpec>& specs() const noexcept {
    return specs_;
  }
  [[nodiscard]] const FaultProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] bool empty() const noexcept {
    return specs_.empty() && profile_.empty();
  }

  /// Parse the CLI's `--inject=` syntax: ';'-separated directives.
  ///   seed=N
  ///   stall=P:K      every process stalls with probability P, 1..K rounds
  ///   delay=P:K      every transfer is delayed with probability P
  ///   dup=P          every transfer is duplicated with probability P
  ///   kill=P:N       every process dies with probability P at stmt 1..N
  ///   stall@NAME=R:K stall process NAME at round R for K rounds
  ///   kill@NAME=N    kill process NAME at its N-th statement
  ///   delay@CHAN=T:K delay transfer index T on channel CHAN by K rounds
  ///   dup@CHAN=T     duplicate transfer index T on channel CHAN
  /// Throws Error(Validation) on malformed input.
  [[nodiscard]] static FaultPlan parse(const std::string& text);

  [[nodiscard]] std::string to_string() const;

 private:
  std::uint64_t seed_ = 0;
  std::vector<FaultSpec> specs_;
  FaultProfile profile_;
};

/// SplitMix64: tiny, high-quality, platform-independent PRNG. Using our
/// own generator (not <random>) keeps fault rolls identical across
/// standard libraries, which the replay guarantee depends on.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() noexcept;
  /// Uniform double in [0, 1).
  double next_unit() noexcept;
  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  Int next_int(Int lo, Int hi) noexcept;

 private:
  std::uint64_t state_;
};

/// Per-run injector: owns the PRNG state and the decisions derived from a
/// FaultPlan. The scheduler queries it at spawn time (stall/kill), at
/// communication issue time (delay), and at transfer completion
/// (duplicate). Every fired fault is appended to `log()` so tests can
/// assert replay identity.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  /// Roll spawn-scoped faults for a new process; fills the process's
  /// fault_* fields (stall round/duration, kill statement).
  void on_spawn(Process& proc);

  /// Scheduler-round delay for a communication op about to be offered on
  /// `chan` (0 = no delay). Consumes PRNG state, so the scheduler calls it
  /// exactly once per issued op.
  [[nodiscard]] Int roll_delay(const Channel& chan);

  /// Whether the transfer that just completed as `transfer_index` on
  /// `chan` should be delivered a second time.
  [[nodiscard]] bool roll_duplicate(const Channel& chan, Int transfer_index);

  /// Record a fault that actually fired (scheduler calls this).
  void record(FaultKind kind, const std::string& target, Int detail);

  [[nodiscard]] const std::vector<std::string>& log() const noexcept {
    return log_;
  }
  [[nodiscard]] Int injected() const noexcept {
    return static_cast<Int>(log_.size());
  }

 private:
  const FaultPlan& plan_;
  SplitMix64 rng_;
  std::vector<bool> fired_;  ///< explicit specs that already fired
  std::vector<std::string> log_;
};

/// Private signal thrown through a coroutine body to realize an injected
/// kill: the frame unwinds, the scheduler marks the process dead, and the
/// run continues so the rest of the network's failure can be observed.
struct ProcessKilledSignal {};

}  // namespace systolize

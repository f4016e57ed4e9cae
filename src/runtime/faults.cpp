#include "runtime/faults.hpp"

#include <sstream>

#include "runtime/scheduler.hpp"
#include "support/error.hpp"

namespace systolize {

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::Stall: return "stall";
    case FaultKind::Kill: return "kill";
    case FaultKind::Delay: return "delay";
    case FaultKind::Duplicate: return "dup";
  }
  return "?";
}

std::string FaultSpec::to_string() const {
  std::ostringstream os;
  os << fault_kind_name(kind) << '@' << target << '=' << at;
  if (kind == FaultKind::Stall || kind == FaultKind::Delay) {
    os << ':' << duration;
  }
  return os.str();
}

// ------------------------------------------------------------- SplitMix64

std::uint64_t SplitMix64::next() noexcept {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::next_unit() noexcept {
  // 53 random mantissa bits: exact, identical on every platform.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Int SplitMix64::next_int(Int lo, Int hi) noexcept {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<Int>(next() % span);
}

// -------------------------------------------------------------- FaultPlan

namespace {

[[noreturn]] void bad_directive(const std::string& piece,
                                const std::string& why) {
  raise(ErrorKind::Validation,
        "fault plan: bad directive '" + piece + "': " + why);
}

Int parse_count(const std::string& piece, const std::string& text) {
  try {
    std::size_t used = 0;
    Int v = std::stoll(text, &used);
    if (used != text.size()) bad_directive(piece, "trailing junk");
    return v;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    bad_directive(piece, "expected an integer, got '" + text + "'");
  }
}

double parse_probability(const std::string& piece, const std::string& text) {
  double p = 0.0;
  try {
    std::size_t used = 0;
    p = std::stod(text, &used);
    if (used != text.size()) bad_directive(piece, "trailing junk");
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    bad_directive(piece, "expected a probability, got '" + text + "'");
  }
  if (p < 0.0 || p > 1.0) {
    bad_directive(piece, "probability must be in [0, 1]");
  }
  return p;
}

/// Split "A:B" into its two halves; B is optional when `b_default` >= 0.
std::pair<std::string, std::string> split_colon(const std::string& piece,
                                                const std::string& text,
                                                bool b_required) {
  std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) {
    if (b_required) bad_directive(piece, "expected '<a>:<b>'");
    return {text, ""};
  }
  return {text.substr(0, colon), text.substr(colon + 1)};
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  FaultProfile profile;
  std::istringstream in(text);
  std::string piece;
  while (std::getline(in, piece, ';')) {
    if (piece.empty()) continue;
    std::size_t eq = piece.find('=');
    if (eq == std::string::npos) {
      bad_directive(piece, "expected '<directive>=<value>'");
    }
    std::string lhs = piece.substr(0, eq);
    std::string rhs = piece.substr(eq + 1);
    std::size_t at_pos = lhs.find('@');
    std::string key = lhs.substr(0, at_pos);
    std::string target =
        at_pos == std::string::npos ? "" : lhs.substr(at_pos + 1);

    if (key == "seed") {
      plan.set_seed(static_cast<std::uint64_t>(parse_count(piece, rhs)));
    } else if (key == "stall" && !target.empty()) {
      auto [a, b] = split_colon(piece, rhs, true);
      FaultSpec spec{FaultKind::Stall, target, parse_count(piece, a),
                     parse_count(piece, b)};
      if (spec.at < 0 || spec.duration < 1) {
        bad_directive(piece, "need round >= 0 and duration >= 1");
      }
      plan.add(std::move(spec));
    } else if (key == "kill" && !target.empty()) {
      FaultSpec spec{FaultKind::Kill, target, parse_count(piece, rhs), 0};
      if (spec.at < 1) bad_directive(piece, "statement index must be >= 1");
      plan.add(std::move(spec));
    } else if (key == "delay" && !target.empty()) {
      auto [a, b] = split_colon(piece, rhs, true);
      FaultSpec spec{FaultKind::Delay, target, parse_count(piece, a),
                     parse_count(piece, b)};
      if (spec.at < 0 || spec.duration < 1) {
        bad_directive(piece, "need transfer >= 0 and duration >= 1");
      }
      plan.add(std::move(spec));
    } else if (key == "dup" && !target.empty()) {
      FaultSpec spec{FaultKind::Duplicate, target, parse_count(piece, rhs),
                     0};
      if (spec.at < 0) bad_directive(piece, "transfer index must be >= 0");
      plan.add(std::move(spec));
    } else if (key == "stall") {
      auto [a, b] = split_colon(piece, rhs, true);
      profile.stall_probability = parse_probability(piece, a);
      profile.max_stall_rounds = parse_count(piece, b);
      if (profile.max_stall_rounds < 1) {
        bad_directive(piece, "max stall rounds must be >= 1");
      }
    } else if (key == "delay") {
      auto [a, b] = split_colon(piece, rhs, true);
      profile.delay_probability = parse_probability(piece, a);
      profile.max_delay_rounds = parse_count(piece, b);
      if (profile.max_delay_rounds < 1) {
        bad_directive(piece, "max delay rounds must be >= 1");
      }
    } else if (key == "dup") {
      profile.duplicate_probability = parse_probability(piece, rhs);
    } else if (key == "kill") {
      auto [a, b] = split_colon(piece, rhs, true);
      profile.kill_probability = parse_probability(piece, a);
      profile.max_kill_statement = parse_count(piece, b);
      if (profile.max_kill_statement < 1) {
        bad_directive(piece, "max kill statement must be >= 1");
      }
    } else {
      bad_directive(piece, "unknown directive '" + key + "'");
    }
  }
  plan.set_profile(profile);
  return plan;
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed_;
  if (profile_.stall_probability > 0.0) {
    os << ";stall=" << profile_.stall_probability << ':'
       << profile_.max_stall_rounds;
  }
  if (profile_.delay_probability > 0.0) {
    os << ";delay=" << profile_.delay_probability << ':'
       << profile_.max_delay_rounds;
  }
  if (profile_.duplicate_probability > 0.0) {
    os << ";dup=" << profile_.duplicate_probability;
  }
  if (profile_.kill_probability > 0.0) {
    os << ";kill=" << profile_.kill_probability << ':'
       << profile_.max_kill_statement;
  }
  for (const FaultSpec& spec : specs_) os << ';' << spec.to_string();
  return os.str();
}

// ---------------------------------------------------------- FaultInjector

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), rng_(plan.seed()) {}

void FaultInjector::on_spawn(Process& proc) {
  for (const FaultSpec& spec : plan_.specs()) {
    if (spec.target != proc.name) continue;
    if (spec.kind == FaultKind::Stall) {
      proc.fault_stall_round = spec.at;
      proc.fault_stall_duration = spec.duration;
    } else if (spec.kind == FaultKind::Kill) {
      proc.fault_kill_at = spec.at;
    }
  }
  const FaultProfile& prof = plan_.profile();
  // The rolls below consume PRNG state in a fixed order per spawn; since
  // spawn order is deterministic, so is the whole fault schedule.
  if (prof.stall_probability > 0.0 &&
      rng_.next_unit() < prof.stall_probability &&
      proc.fault_stall_round < 0) {
    proc.fault_stall_round = rng_.next_int(0, 2 * prof.max_stall_rounds);
    proc.fault_stall_duration = rng_.next_int(1, prof.max_stall_rounds);
  }
  if (prof.kill_probability > 0.0 &&
      rng_.next_unit() < prof.kill_probability && proc.fault_kill_at < 0) {
    proc.fault_kill_at = rng_.next_int(1, prof.max_kill_statement);
  }
}

Int FaultInjector::roll_delay(const Channel& chan) {
  for (std::size_t i = 0; i < plan_.specs().size(); ++i) {
    const FaultSpec& spec = plan_.specs()[i];
    if (spec.kind != FaultKind::Delay || spec.target != chan.name()) continue;
    if (chan.transfers() != spec.at) continue;
    if (fired_.size() <= i) fired_.resize(plan_.specs().size(), false);
    if (fired_[i]) continue;
    fired_[i] = true;
    record(FaultKind::Delay, chan.name(), spec.duration);
    return spec.duration;
  }
  const FaultProfile& prof = plan_.profile();
  if (prof.delay_probability > 0.0 &&
      rng_.next_unit() < prof.delay_probability) {
    Int d = rng_.next_int(1, prof.max_delay_rounds);
    record(FaultKind::Delay, chan.name(), d);
    return d;
  }
  return 0;
}

bool FaultInjector::roll_duplicate(const Channel& chan, Int transfer_index) {
  for (std::size_t i = 0; i < plan_.specs().size(); ++i) {
    const FaultSpec& spec = plan_.specs()[i];
    if (spec.kind != FaultKind::Duplicate || spec.target != chan.name()) {
      continue;
    }
    if (transfer_index != spec.at) continue;
    if (fired_.size() <= i) fired_.resize(plan_.specs().size(), false);
    if (fired_[i]) continue;
    fired_[i] = true;
    record(FaultKind::Duplicate, chan.name(), transfer_index);
    return true;
  }
  const FaultProfile& prof = plan_.profile();
  if (prof.duplicate_probability > 0.0 &&
      rng_.next_unit() < prof.duplicate_probability) {
    record(FaultKind::Duplicate, chan.name(), transfer_index);
    return true;
  }
  return false;
}

void FaultInjector::record(FaultKind kind, const std::string& target,
                           Int detail) {
  log_.push_back(std::string(fault_kind_name(kind)) + " " + target + " " +
                 std::to_string(detail));
}

}  // namespace systolize

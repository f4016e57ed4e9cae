#include "service/degradation.hpp"

#include <sstream>

namespace systolize::service {

const char* degrade_level_name(DegradeLevel level) noexcept {
  switch (level) {
    case DegradeLevel::Normal: return "Normal";
    case DegradeLevel::ReducedCache: return "ReducedCache";
  }
  return "Unknown";
}

void Degradation::apply_level_locked() {
  cache_.set_byte_budget(level_ == DegradeLevel::Normal
                             ? config_.cache_budget
                             : config_.reduced_cache_budget);
}

void Degradation::on_pressure() {
  std::lock_guard<std::mutex> lock(mu_);
  successes_since_pressure_ = 0;
  if (level_ != DegradeLevel::ReducedCache) {
    level_ = DegradeLevel::ReducedCache;
    ++escalations_;
    apply_level_locked();
  }
}

void Degradation::on_success() {
  std::lock_guard<std::mutex> lock(mu_);
  if (level_ == DegradeLevel::Normal) return;
  if (++successes_since_pressure_ < config_.recovery_successes) return;
  successes_since_pressure_ = 0;
  level_ = DegradeLevel::Normal;
  ++recoveries_;
  apply_level_locked();
}

DegradeLevel Degradation::level() const {
  std::lock_guard<std::mutex> lock(mu_);
  return level_;
}

std::size_t Degradation::escalations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return escalations_;
}

std::size_t Degradation::recoveries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recoveries_;
}

std::string Degradation::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"level\":\"" << degrade_level_name(level_)
     << "\",\"escalations\":" << escalations_
     << ",\"recoveries\":" << recoveries_ << '}';
  return os.str();
}

}  // namespace systolize::service

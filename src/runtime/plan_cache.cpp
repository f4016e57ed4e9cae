#include "runtime/plan_cache.hpp"

#include <chrono>
#include <sstream>

#include "runtime/bytecode.hpp"
#include "runtime/plan_template.hpp"

namespace systolize {

// --------------------------------------------------------- memory_bytes

namespace {

std::size_t bytes_of(const std::string& s) { return s.capacity(); }
std::size_t bytes_of(const IntVec& v) {
  return v.comps().capacity() * sizeof(Int);
}

}  // namespace

std::size_t NetworkPlan::memory_bytes() const {
  std::size_t n = sizeof(NetworkPlan);
  n += streams.capacity() * sizeof(std::string);
  for (const std::string& s : streams) n += bytes_of(s);
  n += channels.capacity() * sizeof(ChannelSpec);
  for (const ChannelSpec& c : channels) n += bytes_of(c.name);
  n += procs.capacity() * sizeof(ProcSpec);
  for (const ProcSpec& p : procs) {
    n += bytes_of(p.name) + bytes_of(p.first_x) + bytes_of(p.place);
  }
  n += roles.capacity() * sizeof(RoleSpec);
  n += elems.capacity() * sizeof(IntVec);
  for (const IntVec& e : elems) n += bytes_of(e);
  n += bytes_of(increment) + bytes_of(ps_min) + bytes_of(ps_max);
  return n;
}

// ------------------------------------------------------------ PlanCache

namespace {

std::string template_key(const CompiledProgram& program,
                         const PlanShape& shape) {
  std::ostringstream key;
  key << "g" << program.generation << "|cap=" << shape.channel_capacity
      << "|merge=" << shape.merge_internal_buffers
      << "|grid=" << shape.partition_grid.to_string();
  return key.str();
}

std::string plan_key(const std::string& tmpl_key, const Env& sizes) {
  std::ostringstream key;
  key << tmpl_key;
  for (const auto& [name, value] : sizes) {
    key << '|' << name << '=' << value.to_string();
  }
  return key.str();
}

}  // namespace

/// One-shot compilation slot per template key: concurrent callers of the
/// same key rendezvous on the once_flag instead of compiling twice. If the
/// compiler throws, the flag stays unset and the next caller retries.
struct PlanCache::TemplateSlot {
  std::once_flag once;
  std::shared_ptr<const PlanTemplate> tmpl;
};

PlanCache::PlanCache(std::size_t byte_budget) : budget_(byte_budget) {}

std::shared_ptr<const PlanTemplate> PlanCache::lookup_template(
    const CompiledProgram& program, const LoopNest& nest,
    const PlanShape& shape, LookupStats* stats) {
  const std::string key = template_key(program, shape);
  std::shared_ptr<TemplateSlot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] =
        templates_.emplace(key, std::make_shared<TemplateSlot>());
    slot = it->second;
  }
  bool compiled_here = false;
  std::call_once(slot->once, [&] {
    slot->tmpl = compile_template(program, nest, shape);
    compiled_here = true;
  });
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (compiled_here) {
      ++template_compiles_;
    } else {
      ++template_hits_;
    }
  }
  if (stats != nullptr) stats->template_hit = !compiled_here;
  return slot->tmpl;
}

std::shared_ptr<const NetworkPlan> PlanCache::lookup_or_build(
    const CompiledProgram& program, const LoopNest& nest, const Env& sizes,
    const PlanShape& shape, LookupStats* stats) {
  const std::string tkey = template_key(program, shape);
  const std::string key = plan_key(tkey, sizes);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(key);
    if (it != plans_.end()) {
      ++hits_;
      // Freshen the entry: splice to the front of the LRU list.
      lru_.splice(lru_.begin(), lru_, it->second);
      if (stats != nullptr) {
        stats->plan_hit = true;
        stats->template_hit = true;
      }
      return it->second->plan;
    }
  }
  // Miss: compile (or fetch) the template, then expand outside the lock —
  // concurrent callers for different sizes should not serialize on the
  // cheap integer expansion. A racing duplicate expansion of the same key
  // is harmless (first insert wins); only template compilation is
  // deduplicated, because only it is expensive.
  std::shared_ptr<const PlanTemplate> tmpl =
      lookup_template(program, nest, shape, stats);
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const NetworkPlan> built = expand_template(*tmpl, sizes);
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  if (stats != nullptr) {
    stats->expand_ns = static_cast<std::uint64_t>(elapsed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  expand_ns_ += static_cast<std::uint64_t>(elapsed);
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    if (stats != nullptr) stats->plan_hit = true;
    return it->second->plan;
  }
  ++misses_;
  const std::size_t plan_bytes = built->memory_bytes();
  lru_.push_front(PlanEntry{key, std::move(built), plan_bytes});
  plans_.emplace(key, lru_.begin());
  bytes_ += plan_bytes;
  // Evict least-recently-used plans down to the budget; the entry just
  // inserted is always kept (handed-out shared_ptrs stay valid either
  // way — eviction only drops the cache's reference).
  evict_to_budget_locked();
  return lru_.front().plan;
}

void PlanCache::evict_to_budget_locked() {
  while (bytes_ > budget_ && lru_.size() > 1) {
    PlanEntry& victim = lru_.back();
    bytes_ -= victim.bytes;
    plans_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const BytecodeProgram> PlanCache::lookup_or_lower(
    std::shared_ptr<const NetworkPlan> plan, BytecodeStats* stats) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = bc_index_.find(plan.get());
    if (it != bc_index_.end()) {
      ++bc_hits_;
      bc_lru_.splice(bc_lru_.begin(), bc_lru_, it->second);
      if (stats != nullptr) stats->hit = true;
      return it->second->program;
    }
  }
  // Miss: lower outside the lock (concurrent callers for different plans
  // should not serialize; a racing duplicate of the same plan is harmless
  // — first insert wins, like the plan level).
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const BytecodeProgram> lowered = lower_plan(*plan);
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  if (stats != nullptr) stats->lower_ns = static_cast<std::uint64_t>(elapsed);
  std::lock_guard<std::mutex> lock(mu_);
  lower_ns_ += static_cast<std::uint64_t>(elapsed);
  auto it = bc_index_.find(plan.get());
  if (it != bc_index_.end()) {
    ++bc_hits_;
    bc_lru_.splice(bc_lru_.begin(), bc_lru_, it->second);
    if (stats != nullptr) stats->hit = true;
    return it->second->program;
  }
  ++bc_misses_;
  const std::size_t program_bytes = lowered->memory_bytes();
  bc_lru_.push_front(BytecodeEntry{plan.get(), std::move(plan),
                                   std::move(lowered), program_bytes});
  bc_index_.emplace(bc_lru_.front().key, bc_lru_.begin());
  bc_bytes_ += program_bytes;
  evict_bytecode_locked();
  return bc_lru_.front().program;
}

void PlanCache::evict_bytecode_locked() {
  while (bc_bytes_ > budget_ && bc_lru_.size() > 1) {
    BytecodeEntry& victim = bc_lru_.back();
    bc_bytes_ -= victim.bytes;
    bc_index_.erase(victim.key);
    bc_lru_.pop_back();
    ++bc_evictions_;
  }
}

std::size_t PlanCache::byte_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_;
}

void PlanCache::set_byte_budget(std::size_t byte_budget) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = byte_budget;
  evict_to_budget_locked();
  evict_bytecode_locked();
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

std::size_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t PlanCache::template_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return template_hits_;
}

std::size_t PlanCache::template_compiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return template_compiles_;
}

std::size_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

std::size_t PlanCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t PlanCache::expand_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return expand_ns_;
}

std::size_t PlanCache::bytecode_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bc_index_.size();
}

std::size_t PlanCache::bytecode_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bc_hits_;
}

std::size_t PlanCache::bytecode_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bc_misses_;
}

std::size_t PlanCache::bytecode_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bc_evictions_;
}

std::size_t PlanCache::bytecode_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bc_bytes_;
}

std::uint64_t PlanCache::lower_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lower_ns_;
}

}  // namespace systolize

#include "loopnest/loop_nest.hpp"

namespace systolize {

LoopNest::LoopNest(std::string name, std::vector<LoopSpec> loops,
                   std::vector<Stream> streams, std::vector<Symbol> sizes,
                   Guard size_assumptions, Statement body)
    : name_(std::move(name)),
      loops_(std::move(loops)),
      streams_(std::move(streams)),
      sizes_(std::move(sizes)),
      size_assumptions_(std::move(size_assumptions)),
      body_(std::move(body)) {
  if (body_.slot_count() > streams_.size() ||
      (body_.guarded() && body_.guard().dim() != loops_.size())) {
    raise(ErrorKind::Validation, "the basic statement of '" + name_ +
                                     "' does not fit its streams and loops");
  }
}

std::string loop_affine_text(const IntVec& coeffs, Int constant,
                             const std::vector<LoopSpec>& loops) {
  std::string out;
  auto term = [&out](Int c, const std::string& index) {
    if (c == 0) return;
    if (out.empty()) {
      if (c < 0) out += '-';
    } else {
      out += c < 0 ? " - " : " + ";
    }
    const std::string mag = std::to_string(c).substr(c < 0);  // |c|
    if (index.empty()) {
      out += mag;
    } else {
      if (mag != "1") out += mag + "*";
      out += index;
    }
  };
  for (std::size_t i = 0; i < coeffs.dim(); ++i) {
    term(coeffs[i], loops.at(i).index_name);
  }
  term(constant, "");
  return out.empty() ? "0" : out;
}

std::string LoopNest::body_text() const {
  std::vector<std::string> slot_names;
  slot_names.reserve(streams_.size());
  for (const Stream& s : streams_) slot_names.push_back(s.name());
  std::string text = body_.text(slot_names);
  if (!body_.guarded()) return text;
  return text + " when " +
         loop_affine_text(body_.guard(), body_.guard_constant(), loops_) +
         " >= 0";
}

const Stream& LoopNest::stream(const std::string& name) const {
  for (const Stream& s : streams_) {
    if (s.name() == name) return s;
  }
  raise(ErrorKind::Validation, "no stream named '" + name + "'");
}

std::vector<std::pair<Int, Int>> LoopNest::concrete_bounds(
    const Env& env) const {
  std::vector<std::pair<Int, Int>> bounds;
  bounds.reserve(loops_.size());
  for (const LoopSpec& l : loops_) {
    Int lb = l.lower.evaluate(env).to_integer();
    Int rb = l.upper.evaluate(env).to_integer();
    if (lb > rb) {
      raise(ErrorKind::Validation,
            "loop '" + l.index_name + "' has lb > rb at this problem size");
    }
    bounds.emplace_back(lb, rb);
  }
  return bounds;
}

std::vector<IntVec> LoopNest::enumerate_index_space(const Env& env) const {
  auto bounds = concrete_bounds(env);
  std::vector<IntVec> points;
  points.reserve(static_cast<std::size_t>(index_space_size(env)));

  IntVec x(loops_.size());
  // Initialize each index at its execution start (lb for +1, rb for -1).
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    x[i] = loops_[i].step > 0 ? bounds[i].first : bounds[i].second;
  }
  for (;;) {
    points.push_back(x);
    // Odometer-style advance, innermost loop fastest.
    std::size_t i = loops_.size();
    while (i > 0) {
      --i;
      x[i] += loops_[i].step;
      bool done = loops_[i].step > 0 ? x[i] > bounds[i].second
                                     : x[i] < bounds[i].first;
      if (!done) break;
      x[i] = loops_[i].step > 0 ? bounds[i].first : bounds[i].second;
      if (i == 0) return points;
    }
  }
}

Int LoopNest::index_space_size(const Env& env) const {
  Int total = 1;
  for (const auto& [lb, rb] : concrete_bounds(env)) {
    total = checked_mul(total, checked_add(checked_sub(rb, lb), 1));
  }
  return total;
}

}  // namespace systolize

#include "runtime/host.hpp"

#include <algorithm>
#include <cstdint>

namespace systolize {

namespace {

/// Raises Error(Overflow) for `what` of the stream or variable `name`.
[[noreturn]] void overflow(const char* kind, const std::string& name,
                           const std::string& what) {
  raise(ErrorKind::Overflow, std::string(kind) + " '" + name + "': " + what +
                                 " overflows Int");
}

/// hi - lo + 1, raising Error(Overflow) when it overflows.
Int extent_of(Int lo, Int hi, const char* kind, const std::string& name,
              std::size_t dim) {
  try {
    return checked_add(checked_sub(hi, lo), 1);
  } catch (const Error&) {
    overflow(kind, name, "the extent of dimension " + std::to_string(dim));
  }
}

/// The box's volume, raising Error(Overflow) when the volume or its byte
/// count overflows Int.
std::size_t checked_volume(const Box& box, const char* kind,
                           const std::string& name) {
  Int volume = 1;
  try {
    for (Int e : box.extent) volume = checked_mul(volume, e);
  } catch (const Error&) {
    overflow(kind, name, "box volume");
  }
  try {
    (void)checked_mul(volume, static_cast<Int>(sizeof(Value)));
  } catch (const Error&) {
    overflow(kind, name, "box byte count");
  }
  return static_cast<std::size_t>(volume);
}

std::string box_text(const Box& box) {
  std::string out;
  for (std::size_t j = 0; j < box.extent.size(); ++j) {
    if (j > 0) out.append(" x ");
    out.append("[")
        .append(std::to_string(box.lower[j]))
        .append(" .. ")
        .append(std::to_string(box.lower[j] + (box.extent[j] - 1)))
        .append("]");
  }
  return out;
}

/// Row-major offset of `p` inside `box`, or -1 when `p` lies outside it
/// (or has another dimension).
Int offset_in(const Box& box, const IntVec& p) noexcept {
  const std::vector<Int>& x = p.comps();
  if (x.size() != box.extent.size()) return -1;
  Int off = 0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    // Unsigned difference: exact whenever x >= lower, never undefined.
    const std::uint64_t d = static_cast<std::uint64_t>(x[j]) -
                            static_cast<std::uint64_t>(box.lower[j]);
    if (x[j] < box.lower[j] || d >= static_cast<std::uint64_t>(box.extent[j])) {
      return -1;
    }
    off = off * box.extent[j] + static_cast<Int>(d);
  }
  return off;
}

}  // namespace

Box declared_box(const Stream& s, const Env& env) {
  Box box;
  for (std::size_t j = 0; j < s.dims().size(); ++j) {
    const VarDim& d = s.dims()[j];
    Int lo = 0;
    Int hi = 0;
    try {
      lo = d.lower.evaluate(env).to_integer();
      hi = d.upper.evaluate(env).to_integer();
    } catch (const Error& e) {
      if (e.kind() != ErrorKind::Overflow) throw;
      overflow("stream", s.name(), "a bound of dimension " + std::to_string(j));
    }
    if (lo > hi) {
      raise(ErrorKind::Validation,
            "variable '" + s.name() + "' has an empty dimension");
    }
    box.lower.push_back(lo);
    box.extent.push_back(extent_of(lo, hi, "stream", s.name(), j));
  }
  (void)checked_volume(box, "stream", s.name());
  return box;
}

Value IndexedStore::get(const std::string& var, const IntVec& index) const {
  Value v = 0;
  gather(var, &index, 1, &v);
  return v;
}

void IndexedStore::set(const std::string& var, const IntVec& index,
                       Value value) {
  scatter(var, &index, 1, &value);
}

void IndexedStore::gather(const std::string& var, const IntVec* indices,
                          std::size_t count, Value* out) const {
  auto it = vars_.find(var);
  if (it == vars_.end()) {
    std::fill(out, out + count, Value{0});
    return;
  }
  const Array& a = it->second;
  for (std::size_t i = 0; i < count; ++i) {
    const Int off = offset_in(a.box_, indices[i]);
    out[i] = off < 0 ? 0 : a.values_[static_cast<std::size_t>(off)];
  }
}

void IndexedStore::scatter(const std::string& var, const IntVec* indices,
                           std::size_t count, const Value* values) {
  std::size_t i = 0;
  if (auto it = vars_.find(var); it != vars_.end()) {
    Array& a = it->second;
    for (; i < count; ++i) {
      const Int off = offset_in(a.box_, indices[i]);
      if (off < 0) break;
      a.values_[static_cast<std::size_t>(off)] = values[i];
    }
  }
  if (i == count) return;

  // Outside the box: grow once to cover every index left to write (the
  // earlier ones already lie inside), then finish the writes.
  Box want;
  want.lower = indices[i].comps();
  std::vector<Int> upper = want.lower;
  for (std::size_t k = i + 1; k < count; ++k) {
    const std::vector<Int>& x = indices[k].comps();
    if (x.size() != upper.size()) {
      raise(ErrorKind::Dimension,
            "scatter into variable '" + var + "' mixes index dimensions");
    }
    for (std::size_t j = 0; j < x.size(); ++j) {
      want.lower[j] = std::min(want.lower[j], x[j]);
      upper[j] = std::max(upper[j], x[j]);
    }
  }
  for (std::size_t j = 0; j < upper.size(); ++j) {
    want.extent.push_back(
        extent_of(want.lower[j], upper[j], "variable", var, j));
  }
  Array& a = cover(var, want);
  for (; i < count; ++i) {
    a.values_[static_cast<std::size_t>(offset_in(a.box_, indices[i]))] =
        values[i];
  }
}

IndexedStore::Array& IndexedStore::cover(const std::string& var,
                                         const Box& box) {
  auto it = vars_.find(var);
  if (it == vars_.end()) {
    Array a;
    a.values_.assign(checked_volume(box, "variable", var), 0);
    a.box_ = box;
    return vars_.emplace(var, std::move(a)).first->second;
  }
  Array& a = it->second;
  if (box.extent.size() != a.box_.extent.size()) {
    raise(ErrorKind::Dimension,
          "variable '" + var + "' has " +
              std::to_string(a.box_.extent.size()) + " dimensions, not " +
              std::to_string(box.extent.size()));
  }
  // The bounding box of both; every upper corner is itself an Int.
  Box bound;
  for (std::size_t j = 0; j < box.extent.size(); ++j) {
    const Int lo = std::min(a.box_.lower[j], box.lower[j]);
    const Int hi = std::max(a.box_.lower[j] + (a.box_.extent[j] - 1),
                            box.lower[j] + (box.extent[j] - 1));
    bound.lower.push_back(lo);
    bound.extent.push_back(extent_of(lo, hi, "variable", var, j));
  }
  if (bound == a.box_) return a;
  std::vector<Value> values(checked_volume(bound, "variable", var), 0);
  std::size_t k = 0;
  for_each_point(a.box_, [&](const IntVec& p) {
    values[static_cast<std::size_t>(offset_in(bound, p))] = a.values_[k++];
  });
  a.box_ = std::move(bound);
  a.values_ = std::move(values);
  return a;
}

const IndexedStore::Array& IndexedStore::elements(
    const std::string& var) const {
  auto it = vars_.find(var);
  if (it == vars_.end()) {
    raise(ErrorKind::Validation, "no variable '" + var + "' in store");
  }
  return it->second;
}

bool IndexedStore::has(const std::string& var) const {
  return vars_.contains(var);
}

std::vector<IntVec> IndexedStore::domain(const Stream& s, const Env& env) {
  const Box box = declared_box(s, env);
  std::vector<IntVec> points;
  points.reserve(checked_volume(box, "stream", s.name()));
  for_each_point(box, [&](const IntVec& p) { points.push_back(p); });
  return points;
}

std::string first_divergence(const LoopNest& nest,
                             const IndexedStore& expected,
                             const IndexedStore& actual) {
  for (const Stream& s : nest.streams()) {
    const IndexedStore::Array& want = expected.elements(s.name());
    const IndexedStore::Array& got = actual.elements(s.name());
    if (want == got) continue;
    const std::string what = "stream '" + s.name() + "'";
    const Box& box = want.box();
    if (box != got.box()) {
      return what + ": box " + box_text(got.box()) + ", expected " +
             box_text(box);
    }
    std::size_t k = 0;
    while (want.data()[k] == got.data()[k]) ++k;
    IntVec p(box.extent.size());
    for (std::size_t j = box.extent.size(), rest = k; j-- > 0;) {
      const auto extent = static_cast<std::size_t>(box.extent[j]);
      p[j] = box.lower[j] + static_cast<Int>(rest % extent);
      rest /= extent;
    }
    return what + " at " + p.to_string() + ": expected " +
           std::to_string(want.data()[k]) + ", got " +
           std::to_string(got.data()[k]);
  }
  return "";
}

void IndexedStore::fill(const Stream& s, const Env& env,
                        const std::function<Value(const IntVec&)>& init) {
  const Box box = declared_box(s, env);
  Array& a = cover(s.name(), box);
  for_each_point(box, [&](const IntVec& p) {
    a.values_[static_cast<std::size_t>(offset_in(a.box_, p))] = init(p);
  });
}

}  // namespace systolize

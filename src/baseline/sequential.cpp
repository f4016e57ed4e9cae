#include "baseline/sequential.hpp"

#include <cstdint>

namespace systolize {

namespace {

using Bounds = std::vector<std::pair<Int, Int>>;

/// Every stream's declared box, after checking by interval arithmetic over
/// the concrete loop bounds that the stream's index map sends the whole
/// index space inside it. Allocates no stream storage.
std::vector<Box> checked_boxes(const LoopNest& nest, const Env& env) {
  std::vector<Box> boxes;
  boxes.reserve(nest.streams().size());
  for (const Stream& s : nest.streams()) boxes.push_back(declared_box(s, env));
  const Bounds bounds = nest.concrete_bounds(env);
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    const Stream& s = nest.streams()[i];
    const Box& box = boxes[i];
    const std::string what = "stream '" + s.name() + "'";
    const IntMatrix& m = s.index_map();
    if (m.rows() != box.extent.size() || m.cols() != bounds.size()) {
      raise(ErrorKind::Validation,
            what + ": the index map's shape does not match the variable's " +
                std::to_string(box.extent.size()) + " dimensions over " +
                std::to_string(bounds.size()) + " loops");
    }
    for (std::size_t j = 0; j < m.rows(); ++j) {
      Int lo = 0;
      Int hi = 0;
      try {
        for (std::size_t k = 0; k < bounds.size(); ++k) {
          const Int a = checked_mul(m.at(j, k), bounds[k].first);
          const Int b = checked_mul(m.at(j, k), bounds[k].second);
          lo = checked_add(lo, std::min(a, b));
          hi = checked_add(hi, std::max(a, b));
        }
      } catch (const Error&) {
        raise(ErrorKind::Overflow,
              what + ": the index map's image in dimension " +
                  std::to_string(j) + " overflows Int");
      }
      const Int box_lo = box.lower[j];
      const Int box_hi = box_lo + (box.extent[j] - 1);
      if (lo < box_lo || hi > box_hi) {
        raise(ErrorKind::Validation,
              what + " dimension " + std::to_string(j) +
                  ": the index map reaches [" + std::to_string(lo) + " .. " +
                  std::to_string(hi) + "], outside the declared box [" +
                  std::to_string(box_lo) + " .. " + std::to_string(box_hi) +
                  "]");
      }
    }
  }
  return boxes;
}

/// A fresh store with every stream over its checked box: Update streams
/// zero, Read streams filled in one row-major walk with value(s, p).
template <class F>
IndexedStore build_store(const LoopNest& nest, const Env& env, F&& value) {
  const std::vector<Box> boxes = checked_boxes(nest, env);
  IndexedStore store;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    const Stream& s = nest.streams()[i];
    Value* out = store.cover(s.name(), boxes[i]).data();
    if (s.access() == StreamAccess::Update) continue;
    for_each_point(boxes[i], [&](const IntVec& p) { *out++ = value(s, p); });
  }
  return store;
}

}  // namespace

void run_sequential(const LoopNest& nest, const Env& env,
                    IndexedStore& store) {
  const std::vector<Box> boxes = checked_boxes(nest, env);
  const Bounds bounds = nest.concrete_bounds(env);
  const std::vector<Stream>& streams = nest.streams();
  const std::size_t r = bounds.size();

  // Sequential order: each loop runs from `first` to `last` by its step.
  IntVec x(r);
  std::vector<Int> first(r);
  std::vector<Int> last(r);
  std::vector<Int> step(r);
  for (std::size_t k = 0; k < r; ++k) {
    const bool up = nest.loops()[k].step > 0;
    step[k] = up ? 1 : -1;
    first[k] = up ? bounds[k].first : bounds[k].second;
    last[k] = up ? bounds[k].second : bounds[k].first;
    x[k] = first[k];
  }

  // Each stream's element of statement x sits at offset
  //   base + sum_k coef_k * x_k,   coef = strides * index map,
  // in its array. The image check puts every such offset inside the
  // array; unsigned arithmetic keeps the partial sums defined and the
  // final offsets exact. Statement slot i serves stream i throughout.
  struct Access {
    Value* data = nullptr;
    Value* slot = nullptr;
    bool update = false;
    std::uint64_t off = 0;
    std::vector<std::uint64_t> advance;  ///< offset change when x_k steps
    std::vector<std::uint64_t> rewind;   ///< change when x_k wraps to first
  };
  std::vector<Value> slots(streams.size());
  std::vector<Access> access(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const Stream& s = streams[i];
    IndexedStore::Array& array = store.cover(s.name(), boxes[i]);
    const Box& box = array.box();
    const IntMatrix& m = s.index_map();
    Access& a = access[i];
    a.data = array.data();
    a.slot = &slots[i];
    a.update = s.access() == StreamAccess::Update;
    a.advance.assign(r, 0);
    a.rewind.assign(r, 0);
    std::uint64_t stride = 1;
    for (std::size_t j = box.extent.size(); j-- > 0;) {
      a.off -= stride * static_cast<std::uint64_t>(box.lower[j]);
      for (std::size_t k = 0; k < r; ++k) {
        const std::uint64_t c =
            stride * static_cast<std::uint64_t>(m.at(j, k));
        a.off += c * static_cast<std::uint64_t>(first[k]);
        a.advance[k] += c * static_cast<std::uint64_t>(step[k]);
        a.rewind[k] += c * (static_cast<std::uint64_t>(first[k]) -
                            static_cast<std::uint64_t>(last[k]));
      }
      stride *= static_cast<std::uint64_t>(box.extent[j]);
    }
  }

  const Statement& body = nest.body();
  for (;;) {
    for (Access& a : access) *a.slot = a.data[a.off];
    body.apply(x, slots.data());
    for (Access& a : access) {
      if (a.update) a.data[a.off] = *a.slot;
    }
    // Odometer advance, innermost loop fastest.
    std::size_t k = r;
    for (;;) {
      if (k == 0) return;
      --k;
      if (x[k] != last[k]) {
        x[k] += step[k];
        for (Access& a : access) a.off += a.advance[k];
        break;
      }
      x[k] = first[k];
      for (Access& a : access) a.off += a.rewind[k];
    }
  }
}

IndexedStore make_initial_store(
    const LoopNest& nest, const Env& env,
    const std::function<Value(const std::string&, const IntVec&)>& init) {
  return build_store(nest, env, [&](const Stream& s, const IntVec& p) {
    return init(s.name(), p);
  });
}

IndexedStore make_seeded_store(const LoopNest& nest, const Env& env,
                               Int lane) {
  return build_store(nest, env, [lane](const Stream& s, const IntVec& p) {
    Value h = s.name().empty() ? 1 : s.name()[0];
    for (std::size_t i = 0; i < p.dim(); ++i) h = h * 31 + p[i];
    return (h + 13 * lane) % 23 - 11;
  });
}

}  // namespace systolize

// Host-side storage for indexed variables (the paper's "host" environment,
// Sect. 4.2): data lives here as indexed variables before injection and
// after extraction.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "loopnest/loop_nest.hpp"

namespace systolize {

/// A variable's box: its lower corner and its extents, one per dimension.
/// Values over a box are laid out row-major (last dimension fastest).
struct Box {
  std::vector<Int> lower;
  std::vector<Int> extent;

  friend bool operator==(const Box&, const Box&) = default;
};

/// The declared box of `s` at concrete sizes. Raises Error(Overflow)
/// naming the stream when a bound, an extent, the volume or the byte
/// count of the box overflows Int, and Error(Validation) when a dimension
/// is empty.
[[nodiscard]] Box declared_box(const Stream& s, const Env& env);

/// Calls f(p) for every point p of `box` in row-major order, reusing one
/// index vector.
template <class F>
void for_each_point(const Box& box, F&& f) {
  const std::size_t dims = box.extent.size();
  IntVec p(box.lower);
  for (;;) {
    f(static_cast<const IntVec&>(p));
    std::size_t i = dims;
    for (;;) {
      if (i == 0) return;
      --i;
      if (p[i] - box.lower[i] + 1 < box.extent[i]) {
        ++p[i];
        break;
      }
      p[i] = box.lower[i];
    }
  }
}

/// Values of every indexed variable, keyed by variable name. Each variable
/// is one zero-filled row-major array over its box; reads of an unknown
/// variable or outside the box return 0.
class IndexedStore {
 public:
  /// One variable: its box and its values in row-major order. Equality
  /// compares the box and the values.
  class Array {
   public:
    [[nodiscard]] const Box& box() const noexcept { return box_; }
    /// The box volume.
    [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
    [[nodiscard]] const Value* data() const noexcept { return values_.data(); }
    [[nodiscard]] Value* data() noexcept { return values_.data(); }

    friend bool operator==(const Array&, const Array&) = default;

   private:
    friend class IndexedStore;
    Box box_;
    std::vector<Value> values_;
  };

  [[nodiscard]] Value get(const std::string& var, const IntVec& index) const;
  /// Writes outside the box grow it to cover `index` (new cells read 0).
  void set(const std::string& var, const IntVec& index, Value value);

  /// Bulk read: out[i] = value of var at indices[i] (outside reads 0).
  /// One variable lookup for the whole batch, vs. one per get() call.
  void gather(const std::string& var, const IntVec* indices,
              std::size_t count, Value* out) const;
  /// Bulk write: var at indices[i] = values[i]. Writes outside the box
  /// grow it once, to the bounding box of the old box and every index.
  void scatter(const std::string& var, const IntVec* indices,
               std::size_t count, const Value* values);

  /// The variable's array; raises Error(Validation) for an unknown one.
  [[nodiscard]] const Array& elements(const std::string& var) const;
  [[nodiscard]] bool has(const std::string& var) const;

  /// The variable's array, created zero-filled over `box` when absent and
  /// grown to the bounding box of its box and `box` otherwise. The
  /// returned array's box contains `box` and may be larger.
  Array& cover(const std::string& var, const Box& box);

  /// Populate a stream's variable over its full (concrete) domain with
  /// values from `init(index)`.
  void fill(const Stream& s, const Env& env,
            const std::function<Value(const IntVec&)>& init);

  /// Enumerate a stream's full concrete domain (row-major). Raises the
  /// errors of declared_box() before materializing any point.
  [[nodiscard]] static std::vector<IntVec> domain(const Stream& s,
                                                  const Env& env);

  friend bool operator==(const IndexedStore&, const IndexedStore&) = default;

 private:
  std::map<std::string, Array> vars_;
};

/// One line naming the first element where `actual` differs from
/// `expected` over the streams of `nest`, e.g. "stream 'c' at (1,2):
/// expected 5, got 7", or "" when every stream's array is equal. Raises
/// like elements() when either store lacks a stream.
[[nodiscard]] std::string first_divergence(const LoopNest& nest,
                                           const IndexedStore& expected,
                                           const IndexedStore& actual);

}  // namespace systolize

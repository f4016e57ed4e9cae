// The source program (paper Sect. 3.1): r perfectly nested loops with
// affine bounds in the problem-size variables, steps of +/-1, and a basic
// statement that touches one element of every stream.
#pragma once

#include <string>
#include <vector>

#include "loopnest/statement.hpp"
#include "loopnest/stream.hpp"
#include "symbolic/guard.hpp"

namespace systolize {

/// One loop:  for x = lb <-st-> rb  with st in {-1, +1}.
struct LoopSpec {
  std::string index_name;
  AffineExpr lower;  ///< lb, affine in the problem size
  AffineExpr upper;  ///< rb, affine in the problem size
  Int step = 1;      ///< +1 or -1 (execution order only; lb <= rb always)
};

/// coeffs . x + constant over the loop indices in .sa syntax, e.g.
/// "i - k", "2*i + j" or "-i + j + 2"; "0" when every term vanishes.
[[nodiscard]] std::string loop_affine_text(const IntVec& coeffs, Int constant,
                                           const std::vector<LoopSpec>& loops);

class LoopNest {
 public:
  /// Throws Error(Validation) when `body` does not fit streams and loops.
  LoopNest(std::string name, std::vector<LoopSpec> loops,
           std::vector<Stream> streams, std::vector<Symbol> sizes,
           Guard size_assumptions, Statement body);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// r — the nesting depth.
  [[nodiscard]] std::size_t depth() const noexcept { return loops_.size(); }
  [[nodiscard]] const std::vector<LoopSpec>& loops() const noexcept {
    return loops_;
  }
  [[nodiscard]] const std::vector<Stream>& streams() const noexcept {
    return streams_;
  }
  [[nodiscard]] const Stream& stream(const std::string& name) const;
  [[nodiscard]] const std::vector<Symbol>& sizes() const noexcept {
    return sizes_;
  }
  /// Constraints on the problem-size symbols (e.g. n >= 1) that hold for
  /// every valid instantiation; used by the feasibility pruner.
  [[nodiscard]] const Guard& size_assumptions() const noexcept {
    return size_assumptions_;
  }
  /// The basic statement, over slots in streams() order. It is "a
  /// procedure parameterized solely by the loop indices" (Sect. 3.1):
  /// apply() takes the statement's index-space point, which every process
  /// reconstructs locally as first + iteration * increment, so guarded
  /// statements (if B_j -> S_j) run on every engine.
  [[nodiscard]] const Statement& body() const noexcept { return body_; }
  /// The basic statement in .sa syntax (for printers), e.g.
  /// "c := c + a * b when i - j >= 0"; empty when there is no body.
  [[nodiscard]] std::string body_text() const;

  /// Evaluated loop bounds at a concrete problem size: (lb_i, rb_i) pairs.
  [[nodiscard]] std::vector<std::pair<Int, Int>> concrete_bounds(
      const Env& env) const;

  /// All points of the index space IS at a concrete problem size, in
  /// sequential execution order (respecting each loop's step sign).
  [[nodiscard]] std::vector<IntVec> enumerate_index_space(
      const Env& env) const;

  /// Number of points of IS (product of extents) at a concrete size.
  [[nodiscard]] Int index_space_size(const Env& env) const;

 private:
  std::string name_;
  std::vector<LoopSpec> loops_;
  std::vector<Stream> streams_;
  std::vector<Symbol> sizes_;
  Guard size_assumptions_;
  Statement body_;
};

}  // namespace systolize

// The basic statement (paper Sect. 3.1) as data, optionally guarded (the
// paper's  if B_j -> S_j  form). Every engine and the sequential baseline
// evaluate this one value, and every printer renders it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "numeric/int_vec.hpp"

namespace systolize {

/// Runtime value carried by stream elements.
using Value = std::int64_t;

/// target := rhs  [when guard . x + guard_constant >= 0]
///
/// The right-hand side is a postfix program over stream slots and integer
/// constants. Slot s holds the current element of the nest's stream s
/// (LoopNest::streams() order), so evaluation needs no names. Arithmetic
/// wraps in two's complement: apply() is total and never throws.
class Statement {
 public:
  enum class Op : std::uint8_t { Slot, Const, Add, Sub, Mul };
  struct Instr {
    Op op = Op::Const;
    Value arg = 0;  ///< Slot: the slot index; Const: the constant
    friend bool operator==(const Instr&, const Instr&) = default;
  };
  /// Deepest operand stack a right-hand side may need.
  static constexpr std::size_t kMaxStack = 32;

  /// The empty statement: no body. validate_source() rejects it, and
  /// apply() does nothing.
  Statement() = default;
  /// Throws Error(Validation) unless `rhs` leaves exactly one value and
  /// never needs more than kMaxStack operands at once.
  Statement(std::size_t target, std::vector<Instr> rhs);
  /// A guarded statement: it executes at x only when
  /// guard . x + guard_constant >= 0.
  Statement(std::size_t target, std::vector<Instr> rhs, IntVec guard,
            Int guard_constant);

  [[nodiscard]] bool empty() const noexcept { return rhs_.empty(); }
  [[nodiscard]] bool guarded() const noexcept { return guarded_; }
  [[nodiscard]] const IntVec& guard() const noexcept { return guard_; }
  [[nodiscard]] Int guard_constant() const noexcept {
    return guard_constant_;
  }
  /// One past the highest slot the statement reads or writes (0 if empty).
  [[nodiscard]] std::size_t slot_count() const noexcept { return slots_; }

  /// slots[target] := rhs(slots), unless the guard fails at x. `x` is the
  /// statement's index-space point (depth entries); `slots` holds one
  /// value per stream.
  void apply(const IntVec& x, Value* slots) const {
    if (rhs_.empty() || (guarded_ && !guard_holds(x))) return;
    slots[target_] = evaluate(slots);
  }

  /// The assignment in .sa syntax, guard aside, e.g. "c := (c + a) * b":
  /// only the parentheses the grammar's precedence and left associativity
  /// need, so parsing the text rebuilds the same program. Empty if empty().
  [[nodiscard]] std::string text(
      const std::vector<std::string>& slot_names) const;

  friend bool operator==(const Statement&, const Statement&) = default;

 private:
  [[nodiscard]] bool guard_holds(const IntVec& x) const noexcept {
    std::uint64_t sum = static_cast<std::uint64_t>(guard_constant_);
    const std::vector<Int>& g = guard_.comps();
    const std::vector<Int>& p = x.comps();
    for (std::size_t i = 0; i < g.size(); ++i) {
      sum += static_cast<std::uint64_t>(g[i]) *
             static_cast<std::uint64_t>(p[i]);
    }
    return static_cast<Int>(sum) >= 0;
  }

  [[nodiscard]] Value evaluate(const Value* slots) const noexcept {
    using U = std::uint64_t;
    U stack[kMaxStack];
    std::size_t top = 0;  // one past the top operand
    for (const Instr& in : rhs_) {
      switch (in.op) {
        case Op::Slot: stack[top++] = U(slots[std::size_t(in.arg)]); break;
        case Op::Const: stack[top++] = U(in.arg); break;
        case Op::Add: --top; stack[top - 1] += stack[top]; break;
        case Op::Sub: --top; stack[top - 1] -= stack[top]; break;
        case Op::Mul: --top; stack[top - 1] *= stack[top]; break;
      }
    }
    return static_cast<Value>(stack[0]);
  }

  std::size_t target_ = 0;
  std::size_t slots_ = 0;
  std::vector<Instr> rhs_;
  bool guarded_ = false;
  IntVec guard_;
  Int guard_constant_ = 0;
};

}  // namespace systolize

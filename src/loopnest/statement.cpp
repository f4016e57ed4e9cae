#include "loopnest/statement.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace systolize {
namespace {

/// Binding strength of a rendered operand: sums bind loosest, then
/// products, then single tokens.
enum Prec : int { kSum = 1, kProduct = 2, kAtom = 3 };

}  // namespace

Statement::Statement(std::size_t target, std::vector<Instr> rhs)
    : target_(target), slots_(target + 1), rhs_(std::move(rhs)) {
  std::size_t depth = 0;
  for (const Instr& in : rhs_) {
    if (in.op == Op::Slot || in.op == Op::Const) {
      if (++depth > kMaxStack) {
        raise(ErrorKind::Validation,
              "the body expression needs more than " +
                  std::to_string(kMaxStack) + " pending operands");
      }
      if (in.op == Op::Slot) {
        if (in.arg < 0) raise(ErrorKind::Validation, "negative body slot");
        slots_ = std::max(slots_, static_cast<std::size_t>(in.arg) + 1);
      }
    } else if (depth-- < 2) {
      break;  // an operator short of two operands
    }
  }
  if (depth != 1) raise(ErrorKind::Validation, "malformed body expression");
}

Statement::Statement(std::size_t target, std::vector<Instr> rhs, IntVec guard,
                     Int guard_constant)
    : Statement(target, std::move(rhs)) {
  guarded_ = true;
  guard_ = std::move(guard);
  guard_constant_ = guard_constant;
}

std::string Statement::text(const std::vector<std::string>& slot_names) const {
  if (rhs_.empty()) return "";
  struct Operand {
    std::string text;
    int prec;
  };
  std::vector<Operand> stack;
  for (const Instr& in : rhs_) {
    if (in.op == Op::Slot || in.op == Op::Const) {
      stack.push_back({in.op == Op::Const
                           ? std::to_string(in.arg)
                           : slot_names.at(static_cast<std::size_t>(in.arg)),
                       kAtom});
      continue;
    }
    Operand rhs = std::move(stack.back());
    stack.pop_back();
    Operand& lhs = stack.back();
    const int prec = in.op == Op::Mul ? kProduct : kSum;
    const char* sym = in.op == Op::Add ? " + " : in.op == Op::Sub ? " - "
                                                                  : " * ";
    // Both operators associate to the left, so a right operand of equal
    // strength keeps its parentheses: a - (b - c) is not a - b - c.
    if (lhs.prec < prec) lhs.text = "(" + lhs.text + ")";
    if (rhs.prec <= prec) rhs.text = "(" + rhs.text + ")";
    lhs.text += sym + rhs.text;
    lhs.prec = prec;
  }
  return slot_names.at(target_) + " := " + stack.back().text;
}

}  // namespace systolize

// Fourier-Motzkin elimination: decide (rational) feasibility of a
// conjunction of affine inequalities.
//
// The scheme uses this to prune the sub-alternatives that the paper prunes
// by hand ("only one of the sub-alternatives has a guard that is consistent
// with that of its alternative", Sect. E.2.5). Rational feasibility is a
// sound over-approximation of integer feasibility: anything we prune is
// genuinely empty; anything we keep is at worst a null piece.
#pragma once

#include "symbolic/guard.hpp"

namespace systolize {

/// True iff the conjunction of `guard` and `assumptions` has a rational
/// solution. Assumptions typically encode problem-size positivity
/// (e.g. n >= 1).
[[nodiscard]] bool is_feasible(const Guard& guard,
                               const Guard& assumptions = Guard{});

/// True iff `guard` implies constraint `c` under `assumptions` over the
/// rationals (i.e. guard /\ assumptions /\ not-c has no rational
/// solution). The negation of lhs <= rhs is the strict lhs - rhs > 0, so
/// this is rational implication, weaker than integer implication:
/// 2*col <= 1 implies col <= 0 on every integer point, but not at
/// col = 1/2, and implies() says false. Used to drop redundant
/// constraints when simplifying piecewise definitions, where a missed
/// implication only keeps a redundant constraint; has_interior
/// (scheme/first_last.cpp) relies on the strict meaning to call a
/// constraint pinned only when no rational point has slack.
[[nodiscard]] bool implies(const Guard& guard, const Constraint& c,
                           const Guard& assumptions = Guard{});

/// `guard` with constraints implied by the remaining ones removed.
[[nodiscard]] Guard drop_redundant(const Guard& guard,
                                   const Guard& assumptions = Guard{});

}  // namespace systolize

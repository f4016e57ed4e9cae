// The rational Fourier-Motzkin elimination behind fourier_motzkin.hpp.
//
// The public functions decide over dense integer rows; these run the same
// decisions over the symbolic AffineExpr rows. They are the fallback for a
// call whose integer rows would overflow or name more symbols than a row
// holds, and the reference the differential test checks the dense path
// against. They may raise Overflow where their checked rational arithmetic
// does. Nothing else should call them.
#pragma once

#include "symbolic/guard.hpp"

namespace systolize::detail {

[[nodiscard]] bool rational_is_feasible(const Guard& guard,
                                        const Guard& assumptions);

[[nodiscard]] bool rational_implies(const Guard& guard, const Constraint& c,
                                    const Guard& assumptions);

[[nodiscard]] Guard rational_drop_redundant(const Guard& guard,
                                            const Guard& assumptions);

}  // namespace systolize::detail

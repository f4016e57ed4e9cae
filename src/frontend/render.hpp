// The inverse of the parser: render a (source program, array spec) pair
// as `.sa` text that parse_design() accepts and round-trips to an
// equivalent design. `systolize explore --export=FILE` uses this to save
// the winning candidate of a design-space search.
#pragma once

#include <string>

#include "systolic/array_spec.hpp"

namespace systolize::frontend {

/// Render as `.sa` source, guarded (`when`) bodies included. Throws
/// Error(Validation) for designs the format cannot express: non-integer
/// bound coefficients or size assumptions other than `sym >= const`.
[[nodiscard]] std::string render_design(const LoopNest& nest,
                                        const ArraySpec& spec,
                                        const std::string& comment = "");

/// "i + j + k" — a linear form over the nest's loop indices (the format's
/// lin-expr class); used by `explore`'s ranked table.
[[nodiscard]] std::string lin_expr_text(const IntVec& coeffs,
                                        const LoopNest& nest);

/// "(i - k, j - k)" — a place matrix as a tuple of linear forms.
[[nodiscard]] std::string place_text(const IntMatrix& m, const LoopNest& nest);

}  // namespace systolize::frontend

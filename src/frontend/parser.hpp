// Parser for the .sa design description language: a textual front end for
// (source program, systolic array) pairs, so new designs can be defined
// without recompiling.
//
// Example:
//
//   design polyprod1
//   sizes n >= 1
//   loop i = 0 .. n
//   loop j = 0 .. n
//   stream a[i]   read   dims [0 .. n]
//   stream b[j]   read   dims [0 .. n]
//   stream c[i+j] update dims [0 .. 2*n]
//   body c := c + a * b
//   step 2*i + j
//   place (i)
//   load a = (1)
//
// The body statement ("<target> := <affine-free expression over stream
// names and integers> [when <guard>]") becomes a slot-indexed Statement
// (loopnest/statement.hpp), the one form every engine evaluates. The
// catalog (designs/catalog.hpp) is parsed from the same text.
#pragma once

#include "designs/catalog.hpp"

namespace systolize::frontend {

/// Parse a .sa source text; throws Error(Parse) with a line number on
/// syntax errors and Error(Validation) on semantic ones.
[[nodiscard]] Design parse_design(const std::string& source);

/// Parse one basic statement, e.g. "c := c + a * b when i >= j", over the
/// given streams (its slots) and loops (its guard's indices). This is the
/// grammar parse_design() applies to a `body` line, with the same errors.
[[nodiscard]] Statement parse_statement(const std::string& text,
                                        const std::vector<Stream>& streams,
                                        const std::vector<LoopSpec>& loops);

}  // namespace systolize::frontend

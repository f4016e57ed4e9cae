// Deterministic store seeding shared by the integration suites (and the
// same mix as the fuzz oracle's): an FNV-style hash of the variable name
// and the element's coordinates, folded to a small sign-mixing value.
#pragma once

#include <cstdint>
#include <string>

#include "loopnest/statement.hpp"
#include "numeric/int_vec.hpp"

namespace systolize::testutil {

/// The hash runs in std::uint64_t, so its multiplies wrap by definition;
/// the final conversion to Value is modular (C++20).
inline Value pseudo_random(const std::string& var, const IntVec& p) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : var) {
    h = (h ^ static_cast<std::uint64_t>(c)) * 1099511628211ULL;
  }
  for (std::size_t i = 0; i < p.dim(); ++i) {
    h = (h ^ static_cast<std::uint64_t>(p[i] + 1315423911LL)) *
        1099511628211ULL;
  }
  return static_cast<Value>(h) % 19 - 9;
}

}  // namespace systolize::testutil

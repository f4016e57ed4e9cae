#include "symbolic/fourier_motzkin.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <random>
#include <type_traits>
#include <vector>

#include "scheme/first_last.hpp"
#include "symbolic/fourier_motzkin_detail.hpp"

namespace systolize {
namespace {

const Symbol kN = size_symbol("n");
const Symbol kCol = coord_symbol("col");
const Symbol kRow = coord_symbol("row");

Guard n_positive() {
  Guard g;
  g.add(Constraint{AffineExpr(1), AffineExpr(kN)});
  return g;
}

TEST(FourierMotzkin, TriviallyFeasible) {
  EXPECT_TRUE(is_feasible(Guard{}));
}

TEST(FourierMotzkin, SimpleInterval) {
  Guard g;
  g.add(between(AffineExpr(0), AffineExpr(kCol), AffineExpr(kN)));
  EXPECT_TRUE(is_feasible(g, n_positive()));
}

TEST(FourierMotzkin, ContradictoryInterval) {
  // col <= -1 and col >= 0.
  Guard g;
  g.add(Constraint{AffineExpr(kCol), AffineExpr(-1)});
  g.add(Constraint{AffineExpr(0), AffineExpr(kCol)});
  EXPECT_FALSE(is_feasible(g));
}

TEST(FourierMotzkin, InfeasibleOnlyWithAssumption) {
  // col >= n+1 and col <= n - 1 is infeasible regardless; but
  // col >= n and col <= 0 is feasible only when n <= 0.
  Guard g;
  g.add(Constraint{AffineExpr(kN), AffineExpr(kCol)});
  g.add(Constraint{AffineExpr(kCol), AffineExpr(0)});
  EXPECT_TRUE(is_feasible(g));
  EXPECT_FALSE(is_feasible(g, n_positive()));
}

TEST(FourierMotzkin, ChainedTransitivity) {
  // col <= row, row <= n, n <= col - 1 is infeasible.
  Guard g;
  g.add(Constraint{AffineExpr(kCol), AffineExpr(kRow)});
  g.add(Constraint{AffineExpr(kRow), AffineExpr(kN)});
  g.add(Constraint{AffineExpr(kN), AffineExpr(kCol) - AffineExpr(1)});
  EXPECT_FALSE(is_feasible(g));
}

TEST(FourierMotzkin, Implies) {
  Guard g;
  g.add(between(AffineExpr(0), AffineExpr(kCol), AffineExpr(kN)));
  // 0 <= col <= n implies col <= 2n when n >= 1.
  EXPECT_TRUE(implies(g, Constraint{AffineExpr(kCol), AffineExpr(kN) * Rational(2)},
                      n_positive()));
  // ... but does not imply col <= n - 1.
  EXPECT_FALSE(implies(g, Constraint{AffineExpr(kCol), AffineExpr(kN) - AffineExpr(1)},
                       n_positive()));
}

TEST(FourierMotzkin, ImpliesIsRationalNotInteger) {
  // Every integer col with 2*col <= 1 has col <= 0, but col = 1/2 does
  // not: implies negates col <= 0 as the strict col > 0, which 2*col <= 1
  // admits over the rationals. has_interior (scheme/first_last.cpp)
  // depends on this strict negation, so deciding over the integers here
  // would change which guards count as pinned.
  Guard g;
  g.add(Constraint{AffineExpr(kCol) * Rational(2), AffineExpr(1)});
  EXPECT_FALSE(implies(g, Constraint{AffineExpr(kCol), AffineExpr(0)}));
}

TEST(FourierMotzkin, DropRedundant) {
  Guard g;
  g.add(Constraint{AffineExpr(0), AffineExpr(kCol)});
  g.add(Constraint{AffineExpr(kCol), AffineExpr(kN)});
  // Redundant: col <= 2n follows from col <= n, n >= 1.
  g.add(Constraint{AffineExpr(kCol), AffineExpr(kN) * Rational(2)});
  Guard r = drop_redundant(g, n_positive());
  EXPECT_EQ(r.constraints().size(), 2u);
}

TEST(FourierMotzkin, DropRedundantKeepsEquivalentRegion) {
  Guard g;
  g.add(between(AffineExpr(0), AffineExpr(kCol) - AffineExpr(kRow),
                AffineExpr(kN)));
  g.add(between(AffineExpr(0), AffineExpr(kCol), AffineExpr(kN)));
  Guard r = drop_redundant(g, n_positive());
  // Semantics preserved on a grid sweep.
  for (Int n = 1; n <= 3; ++n) {
    for (Int col = -4; col <= 4; ++col) {
      for (Int row = -4; row <= 4; ++row) {
        Env env{{"n", Rational(n)}, {"col", Rational(col)},
                {"row", Rational(row)}};
        EXPECT_EQ(g.holds(env), r.holds(env))
            << "n=" << n << " col=" << col << " row=" << row;
      }
    }
  }
}

TEST(HasInterior, FullDimensionalRegion) {
  Guard g;
  g.add(between(AffineExpr(0), AffineExpr(kCol), AffineExpr(kN)));
  EXPECT_TRUE(has_interior(g, n_positive()));
}

TEST(HasInterior, PinnedRegionHasNone) {
  // 0 <= col <= n together with n <= col pins col == n.
  Guard g;
  g.add(between(AffineExpr(0), AffineExpr(kCol), AffineExpr(kN)));
  g.add(Constraint{AffineExpr(kN), AffineExpr(kCol)});
  EXPECT_FALSE(has_interior(g, n_positive()));
}

TEST(HasInterior, InfeasibleRegionHasNone) {
  Guard g;
  g.add(Constraint{AffineExpr(kCol), AffineExpr(-1)});
  g.add(Constraint{AffineExpr(0), AffineExpr(kCol)});
  EXPECT_FALSE(has_interior(g, Guard{}));
}

// --- Dense rows against the rational reference ------------------------------
//
// is_feasible, implies and drop_redundant decide over dense integer rows and
// fall back to the rational elimination in detail:: on overflow or when a
// call names more symbols than a row holds. Both are exact over the
// rationals, so they must give the same answer on every system, and
// drop_redundant must keep the same constraints.

/// One decision's result: a verdict, a guard, or the kind of error raised.
struct Answer {
  std::optional<ErrorKind> error;
  bool verdict = false;
  Guard guard;

  friend bool operator==(const Answer&, const Answer&) = default;
};

std::ostream& operator<<(std::ostream& os, const Answer& a) {
  if (a.error) return os << "error [" << error_kind_name(*a.error) << "]";
  return os << (a.verdict ? "true" : "false") << " / " << a.guard;
}

template <typename F>
Answer answer(F&& decide) {
  Answer a;
  try {
    if constexpr (std::is_same_v<decltype(decide()), bool>) {
      a.verdict = decide();
    } else {
      a.guard = decide();
    }
  } catch (const Error& e) {
    a.error = e.kind();
  }
  return a;
}

struct Answers {
  Answer feasible;
  Answer implied;
  Answer kept;
};

/// Checks the three public decisions against the reference on one system
/// and returns the public ones.
Answers expect_agreement(const Guard& g, const Constraint& c,
                         const Guard& a) {
  Answers out{answer([&] { return is_feasible(g, a); }),
              answer([&] { return implies(g, c, a); }),
              answer([&] { return drop_redundant(g, a); })};
  EXPECT_EQ(out.feasible,
            answer([&] { return detail::rational_is_feasible(g, a); }))
      << "is_feasible of " << g << " under " << a;
  EXPECT_EQ(out.implied,
            answer([&] { return detail::rational_implies(g, c, a); }))
      << "implies of " << g << " => " << c.to_string() << " under " << a;
  EXPECT_EQ(out.kept,
            answer([&] { return detail::rational_drop_redundant(g, a); }))
      << "drop_redundant of " << g << " under " << a;
  return out;
}

/// Seeded random systems: 1-6 symbols of both kinds, 1-16 constraints,
/// integer and rational coefficients (denominators 1-6). A constraint names
/// up to three terms, up to two in systems of more than eight: the
/// reference combines every lower/upper pair without merging parallel
/// rows, and wider rows would make it explode.
class SystemGen {
 public:
  explicit SystemGen(std::uint64_t seed) : rng_(seed) {}

  Int uniform(Int lo, Int hi) {
    return lo + static_cast<Int>(rng_() %
                                 static_cast<std::uint64_t>(hi - lo + 1));
  }

  std::vector<Symbol> symbols() {
    const std::vector<Symbol> pool = {
        size_symbol("n"),    coord_symbol("col"), size_symbol("m"),
        coord_symbol("row"), coord_symbol("y2"),  size_symbol("k")};
    auto count = static_cast<std::ptrdiff_t>(uniform(1, 6));
    return {pool.begin(), pool.begin() + count};
  }

  Rational coefficient(Int bound) {
    Int num = uniform(1, bound) * (uniform(0, 1) == 0 ? 1 : -1);
    Int den = uniform(0, 1) == 0 ? 1 : uniform(1, 6);
    return Rational(num, den);
  }

  Constraint constraint(const std::vector<Symbol>& syms, Int max_terms) {
    Constraint c{AffineExpr(coefficient(6) * Rational(uniform(0, 1))),
                 AffineExpr(coefficient(6) * Rational(uniform(0, 1)))};
    for (Int t = uniform(1, max_terms); t > 0; --t) {
      const Symbol& s = syms[static_cast<std::size_t>(
          uniform(0, static_cast<Int>(syms.size()) - 1))];
      AffineExpr& side = uniform(0, 1) == 0 ? c.lhs : c.rhs;
      side += AffineExpr::term(s, coefficient(4));
    }
    return c;
  }

  Guard guard(const std::vector<Symbol>& syms) {
    Int rows = uniform(1, 16);
    Guard g;
    for (Int i = 0; i < rows; ++i) g.add(constraint(syms, rows <= 8 ? 3 : 2));
    return g;
  }

  /// Positivity of some size symbols, sometimes one more random row.
  Guard assumptions(const std::vector<Symbol>& syms) {
    Guard a;
    for (const Symbol& s : syms) {
      if (s.kind() == SymbolKind::ProblemSize && uniform(0, 1) == 0) {
        a.add(Constraint{AffineExpr(1), AffineExpr(s)});
      }
    }
    if (uniform(0, 3) == 0) a.add(constraint(syms, 2));
    return a;
  }

 private:
  std::mt19937_64 rng_;
};

TEST(FourierMotzkinDifferential, RandomSystemsMatchRationalReference) {
  SystemGen gen(20261019);
  int feasible = 0;
  int implied = 0;
  int dropped = 0;
  constexpr int kSystems = 3000;
  for (int i = 0; i < kSystems; ++i) {
    std::vector<Symbol> syms = gen.symbols();
    Guard g = gen.guard(syms);
    Guard a = gen.assumptions(syms);
    // Half the time ask about one of g's own constraints, loosened, so
    // "implied" answers turn up as often as "not implied" ones.
    Constraint c = gen.constraint(syms, 3);
    if (gen.uniform(0, 1) == 0) {
      c = g.constraints()[static_cast<std::size_t>(gen.uniform(
          0, static_cast<Int>(g.constraints().size()) - 1))];
      c.rhs += AffineExpr(Rational(gen.uniform(0, 2)));
    }
    const Answers got = expect_agreement(g, c, a);
    if (HasFailure()) {
      ADD_FAILURE() << "first disagreement at system " << i;
      return;
    }
    feasible += got.feasible.verdict ? 1 : 0;
    implied += got.implied.verdict ? 1 : 0;
    dropped += !got.kept.error && got.kept.guard.constraints().size() <
                                      g.simplified().constraints().size()
                   ? 1
                   : 0;
  }
  // The generator must exercise both verdicts of every decision.
  EXPECT_GT(feasible, kSystems / 10);
  EXPECT_LT(feasible, kSystems * 9 / 10);
  EXPECT_GT(implied, kSystems / 10);
  EXPECT_GT(dropped, kSystems / 10);
}

TEST(FourierMotzkinDifferential, NineSymbolsTakeTheFallback) {
  // A chain s0 <= s1 <= ... <= s8 names nine symbols, one more than a
  // dense row holds; closing it with s8 <= s0 - 1 makes it infeasible.
  std::vector<Symbol> s;
  for (const char* name : {"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
                           "s8"}) {
    s.push_back(coord_symbol(name));
  }
  Guard chain;
  for (int i = 0; i + 1 < 9; ++i) {
    chain.add(Constraint{AffineExpr(s[i]), AffineExpr(s[i + 1])});
  }
  Constraint closing{AffineExpr(s[8]), AffineExpr(s[0]) - AffineExpr(1)};
  EXPECT_TRUE(is_feasible(chain));
  EXPECT_FALSE(is_feasible(Guard(chain).add(closing)));
  EXPECT_TRUE(implies(chain, Constraint{AffineExpr(s[0]), AffineExpr(s[8])}));
  EXPECT_EQ(drop_redundant(Guard(chain).add(
                Constraint{AffineExpr(s[0]), AffineExpr(s[8])})),
            chain);
  expect_agreement(chain, closing, Guard{});
}

TEST(FourierMotzkinDifferential, NearInt64MaxMatchesReferenceOrBothOverflow) {
  constexpr Int kMax = std::numeric_limits<Int>::max();
  const Symbol x = coord_symbol("x");
  const Symbol y = coord_symbol("y");
  // 2 <= kMax*x and (kMax-1)*x <= 3 bound x from both sides, so x must be
  // eliminated, and the coprime coefficients scale the constants past an
  // Int: the dense path falls back and the reference raises Overflow.
  Guard big;
  big.add(Constraint{AffineExpr(2), AffineExpr::term(x, Rational(kMax))});
  big.add(Constraint{AffineExpr::term(x, Rational(kMax - 1)), AffineExpr(3)});
  expect_agreement(big, Constraint{AffineExpr(x), AffineExpr(1)}, Guard{});
  EXPECT_EQ(answer([&] { return is_feasible(big); }).error,
            ErrorKind::Overflow);
  // Denominators whose lcm overflows an Int: the dense row cannot be built.
  Guard wide;
  wide.add(Constraint{AffineExpr(0),
                      AffineExpr::term(x, Rational(1, 4294967291)) +
                          AffineExpr::term(y, Rational(1, 4294967279))});
  wide.add(Constraint{AffineExpr(y), AffineExpr(-1)});
  expect_agreement(wide, Constraint{AffineExpr(0), AffineExpr(x)}, Guard{});
  EXPECT_TRUE(is_feasible(wide));
  EXPECT_TRUE(implies(wide, Constraint{AffineExpr(0), AffineExpr(x)}));
  // A coefficient of INT64_MIN has no negation in an Int.
  Guard min;
  min.add(Constraint{AffineExpr::term(x, Rational(INT64_MIN)), AffineExpr(y)});
  expect_agreement(min, Constraint{AffineExpr(x), AffineExpr(y)}, Guard{});
}

TEST(FourierMotzkinDifferential, ParallelRowsKeepTheTighterOne) {
  // n - x >= 0 and n - x - 1 >= 0 share their coefficients; only the
  // tighter, with x >= n, is infeasible -- in either order.
  Guard loose_first;
  loose_first.add(Constraint{AffineExpr(kCol), AffineExpr(kN)});
  loose_first.add(Constraint{AffineExpr(kCol), AffineExpr(kN) - AffineExpr(1)});
  loose_first.add(Constraint{AffineExpr(kN), AffineExpr(kCol)});
  EXPECT_FALSE(is_feasible(loose_first));
  Guard tight_first;
  tight_first.add(Constraint{AffineExpr(kCol), AffineExpr(kN) - AffineExpr(1)});
  tight_first.add(Constraint{AffineExpr(kCol), AffineExpr(kN)});
  tight_first.add(Constraint{AffineExpr(kN), AffineExpr(kCol)});
  EXPECT_FALSE(is_feasible(tight_first));
  // Rows equal but for strictness: row - col >= 0 from the guard and
  // row - col > 0 from negating row <= col; the strict one must stay.
  Guard pinned;
  pinned.add(Constraint{AffineExpr(kCol), AffineExpr(kRow)});
  pinned.add(Constraint{AffineExpr(kRow), AffineExpr(kCol)});
  EXPECT_TRUE(implies(pinned, Constraint{AffineExpr(kRow), AffineExpr(kCol)}));
  Guard half;
  half.add(Constraint{AffineExpr(kCol), AffineExpr(kRow)});
  EXPECT_FALSE(implies(half, Constraint{AffineExpr(kRow), AffineExpr(kCol)}));
  // The pinned pair is not redundant: each is needed for the other's face.
  EXPECT_EQ(drop_redundant(pinned), pinned);
  expect_agreement(pinned, Constraint{AffineExpr(kRow), AffineExpr(kCol)},
                   n_positive());
}

TEST(FourierMotzkinDifferential, CombinationReducingToZeroGreaterThanZero) {
  // col <= n with its own negation col - n > 0 combines to 0 > 0.
  Guard g;
  g.add(Constraint{AffineExpr(kCol), AffineExpr(kN)});
  Constraint c{AffineExpr(kCol), AffineExpr(kN)};
  EXPECT_TRUE(implies(g, c));
  EXPECT_TRUE(detail::rational_implies(g, c, Guard{}));
  // A scaled copy normalizes to the same row: 2*col <= 2*n.
  Constraint scaled{AffineExpr(kCol) * Rational(2),
                    AffineExpr(kN) * Rational(2)};
  EXPECT_TRUE(implies(g, scaled));
  expect_agreement(g, scaled, n_positive());
}

}  // namespace
}  // namespace systolize

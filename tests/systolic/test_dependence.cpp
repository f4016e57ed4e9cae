#include "systolic/dependence.hpp"

#include <gtest/gtest.h>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"
#include "support/error.hpp"

namespace systolize {
namespace {

TEST(Dependence, AllCatalogDesignsRespectUpdateOrder) {
  for (const Design& d : all_designs()) {
    EXPECT_TRUE(respects_dependences(d.nest, d.spec)) << d.description;
    EXPECT_NO_THROW(validate_dependences(d.nest, d.spec)) << d.description;
  }
}

TEST(Dependence, ReversedStepViolates) {
  // step.(i,j) = -2i - j walks the accumulation chain of c[i+j] backwards.
  Design d = polyprod_design1();
  ArraySpec reversed(StepFunction(IntVec{-2, -1}),
                     PlaceFunction(IntMatrix{{1, 0}}), {{"a", IntVec{1}}});
  EXPECT_FALSE(respects_dependences(d.nest, reversed));
  try {
    validate_dependences(d.nest, reversed);
    FAIL() << "expected Inconsistent";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Inconsistent);
    EXPECT_NE(std::string(e.what()).find("'c'"), std::string::npos)
        << e.what();
  }
}

TEST(Dependence, ReversedLoopStepFlipsTheOrientation) {
  // With the j loop executed right-to-left, the sequential update order
  // of c[i+j] along (1,-1) reverses; step.(i,j) = 2i + j still respects
  // it (the first differing index is i, executed forward).
  Design base = polyprod_design1();
  std::vector<LoopSpec> loops = base.nest.loops();
  loops[1].step = -1;
  LoopNest reversed(base.nest.name(), loops, base.nest.streams(),
                    base.nest.sizes(), base.nest.size_assumptions(),
                    base.nest.body());
  EXPECT_TRUE(respects_dependences(reversed, base.spec));

  // But step.(i,j) = -2i + j now violates: the element chain's first
  // differing index i runs forward while step decreases along it.
  ArraySpec bad(StepFunction(IntVec{-2, 1}), PlaceFunction(IntMatrix{{1, 0}}),
                {{"a", IntVec{1}}});
  EXPECT_FALSE(respects_dependences(reversed, bad));
}

TEST(Dependence, ViolationIsHarmlessForCommutativeBodies) {
  // The paper's bodies accumulate commutatively, so even a reversed step
  // executes to the same result — which is why the check is advisory.
  Design d = polyprod_design1();
  ArraySpec reversed(StepFunction(IntVec{-2, -1}),
                     PlaceFunction(IntMatrix{{1, 0}}), {{"a", IntVec{1}}});
  ASSERT_FALSE(respects_dependences(d.nest, reversed));
  CompiledProgram prog = compile(d.nest, reversed);
  Env sizes{{"n", Rational(3)}};
  IndexedStore expected = make_initial_store(
      d.nest, sizes,
      [](const std::string& v, const IntVec& p) { return v[0] + 2 * p[0]; });
  IndexedStore actual = expected;
  run_sequential(d.nest, sizes, expected);
  (void)execute(prog, d.nest, sizes, actual);
  EXPECT_EQ(actual.elements("c"), expected.elements("c"));
}

}  // namespace
}  // namespace systolize

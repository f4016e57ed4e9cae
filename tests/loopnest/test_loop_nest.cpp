#include "loopnest/loop_nest.hpp"

#include <gtest/gtest.h>

#include "designs/catalog.hpp"
#include "frontend/parser.hpp"
#include "support/error.hpp"

namespace systolize {
namespace {

TEST(LoopNest, ConcreteBounds) {
  Design d = polyprod_design1();
  auto bounds = d.nest.concrete_bounds(Env{{"n", Rational(3)}});
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_EQ(bounds[0], (std::pair<Int, Int>{0, 3}));
  EXPECT_EQ(bounds[1], (std::pair<Int, Int>{0, 3}));
}

TEST(LoopNest, IndexSpaceSizeAndEnumeration) {
  Design d = matmul_design1();
  Env env{{"n", Rational(2)}};
  EXPECT_EQ(d.nest.index_space_size(env), 27);
  auto points = d.nest.enumerate_index_space(env);
  ASSERT_EQ(points.size(), 27u);
  // Row-major, innermost loop fastest.
  EXPECT_EQ(points[0], (IntVec{0, 0, 0}));
  EXPECT_EQ(points[1], (IntVec{0, 0, 1}));
  EXPECT_EQ(points[3], (IntVec{0, 1, 0}));
  EXPECT_EQ(points[26], (IntVec{2, 2, 2}));
}

TEST(LoopNest, NegativeStepEnumeratesDownward) {
  Symbol n = size_symbol("n");
  Guard g;
  g.add(Constraint{AffineExpr(1), AffineExpr(n)});
  std::vector<LoopSpec> loops = {
      LoopSpec{"i", AffineExpr(0), AffineExpr(n), 1},
      LoopSpec{"j", AffineExpr(0), AffineExpr(n), -1}};
  std::vector<Stream> streams = {
      Stream("a", IntMatrix{{1, 0}}, {VarDim{AffineExpr(0), AffineExpr(n)}},
             StreamAccess::Update),
      Stream("b", IntMatrix{{0, 1}}, {VarDim{AffineExpr(0), AffineExpr(n)}},
             StreamAccess::Read)};
  Statement body = frontend::parse_statement("a := a + b", streams, loops);
  LoopNest nest("rev", loops, streams, {n}, g, body);
  auto points = nest.enumerate_index_space(Env{{"n", Rational(1)}});
  ASSERT_EQ(points.size(), 4u);
  // j runs from its right bound down to its left bound.
  EXPECT_EQ(points[0], (IntVec{0, 1}));
  EXPECT_EQ(points[1], (IntVec{0, 0}));
  EXPECT_EQ(points[2], (IntVec{1, 1}));
  EXPECT_EQ(points[3], (IntVec{1, 0}));
}

TEST(LoopNest, UnknownStreamThrows) {
  Design d = polyprod_design1();
  EXPECT_THROW((void)d.nest.stream("zz"), Error);
}

TEST(LoopNest, EmptyRangeThrows) {
  Symbol n = size_symbol("n");
  LoopNest nest("bad",
                {LoopSpec{"i", AffineExpr(n), AffineExpr(0), 1},
                 LoopSpec{"j", AffineExpr(0), AffineExpr(n), 1}},
                {}, {n}, Guard{}, Statement());
  EXPECT_THROW((void)nest.enumerate_index_space(Env{{"n", Rational(2)}}),
               Error);
}

}  // namespace
}  // namespace systolize

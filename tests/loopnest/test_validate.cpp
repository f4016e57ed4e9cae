// Appendix A requirement/restriction enforcement on source programs.
#include "loopnest/validate.hpp"

#include <gtest/gtest.h>

#include "designs/catalog.hpp"
#include "frontend/parser.hpp"
#include "support/error.hpp"

namespace systolize {
namespace {

Symbol n_sym() { return size_symbol("n"); }

Guard n_ge_1() {
  Guard g;
  g.add(Constraint{AffineExpr(1), AffineExpr(n_sym())});
  return g;
}

Stream unit_stream(const std::string& name, IntMatrix m,
                   std::size_t var_dims) {
  std::vector<VarDim> dims(var_dims,
                           VarDim{AffineExpr(0), AffineExpr(n_sym())});
  return Stream(name, std::move(m), std::move(dims), StreamAccess::Read);
}

LoopSpec loop(const std::string& index, AffineExpr lower = AffineExpr(0),
              AffineExpr upper = AffineExpr(n_sym()), Int step = 1) {
  return LoopSpec{index, std::move(lower), std::move(upper), step};
}

/// A nest whose body `a := a` only reads and rewrites its first stream
/// (no body at all when there are no streams).
LoopNest nest_of(const std::string& name, std::vector<LoopSpec> loops,
                 std::vector<Stream> streams) {
  Statement body = streams.empty()
                       ? Statement()
                       : frontend::parse_statement("a := a", streams, loops);
  return LoopNest(name, std::move(loops), std::move(streams), {n_sym()},
                  n_ge_1(), std::move(body));
}

void expect_invalid(const LoopNest& nest, const std::string& fragment) {
  try {
    validate_source(nest);
    FAIL() << "expected Validation error containing '" << fragment << "'";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Validation) << e.what();
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

TEST(SourceValidation, CatalogDesignsAllValidate) {
  for (const Design& d : all_designs()) {
    EXPECT_NO_THROW(validate_source(d.nest)) << d.description;
  }
}

TEST(SourceValidation, SingleLoopRejected) {
  LoopNest nest = nest_of("one", {loop("i")}, {});
  expect_invalid(nest, "at least two loops");
}

TEST(SourceValidation, NonUnitStepRejected) {
  LoopNest nest = nest_of(
      "st", {loop("i", AffineExpr(0), AffineExpr(n_sym()), 2), loop("j")},
      {unit_stream("a", IntMatrix{{1, 0}}, 1)});
  expect_invalid(nest, "step");
}

TEST(SourceValidation, BoundsNotImpliedBySizeAssumptionsRejected) {
  // Loop i = n .. 0 is empty for n >= 1 — lb <= rb is violated.
  LoopNest nest =
      nest_of("rev", {loop("i", AffineExpr(n_sym()), AffineExpr(0)), loop("j")},
              {unit_stream("a", IntMatrix{{1, 0}}, 1)});
  expect_invalid(nest, "lb <= rb");
}

TEST(SourceValidation, DuplicateLoopIndexRejected) {
  LoopNest nest = nest_of("dup", {loop("i"), loop("i")},
                          {unit_stream("a", IntMatrix{{1, 0}}, 1)});
  expect_invalid(nest, "duplicate loop index");
}

TEST(SourceValidation, NoStreamsRejected) {
  LoopNest nest = nest_of("none", {loop("i"), loop("j")}, {});
  expect_invalid(nest, "no streams");
}

TEST(SourceValidation, DuplicateStreamNamesRejected) {
  LoopNest nest = nest_of("dup", {loop("i"), loop("j")},
                          {unit_stream("a", IntMatrix{{1, 0}}, 1),
                           unit_stream("a", IntMatrix{{0, 1}}, 1)});
  expect_invalid(nest, "duplicate stream name");
}

TEST(SourceValidation, IndexMapWrongShapeRejected) {
  // r = 3 but a 1 x 3 index map: the variable is not (r-1)-dimensional.
  LoopNest nest = nest_of("shape", {loop("i"), loop("j"), loop("k")},
                          {unit_stream("a", IntMatrix{{1, 0, 0}}, 1)});
  expect_invalid(nest, "(r-1) x r");
}

TEST(SourceValidation, RankDeficientIndexMapRejected) {
  // a[i, 2i] has rank 1 < r-1 = 2: full pipelining violated.
  LoopNest nest =
      nest_of("rank", {loop("i"), loop("j"), loop("k")},
              {unit_stream("a", IntMatrix{{1, 0, 0}, {2, 0, 0}}, 2)});
  expect_invalid(nest, "rank");
}

TEST(SourceValidation, CoordSymbolInBoundsRejected) {
  LoopNest nest = nest_of(
      "coord", {loop("i", AffineExpr(0), AffineExpr(coord_symbol("col"))),
                loop("j")},
      {unit_stream("a", IntMatrix{{1, 0}}, 1)});
  expect_invalid(nest, "problem-size symbols");
}

TEST(SourceValidation, MissingBodyRejected) {
  LoopNest nest("nobody", {loop("i"), loop("j")},
                {unit_stream("a", IntMatrix{{1, 0}}, 1)}, {n_sym()}, n_ge_1(),
                Statement());
  expect_invalid(nest, "basic statement body");
}

}  // namespace
}  // namespace systolize

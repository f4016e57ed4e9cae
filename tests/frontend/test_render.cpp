// The .sa exporter: render_design must be parse_design's inverse — every
// catalog design round-trips to an equivalent compiled program, and a
// statement's text (parentheses and guard included) parses back to the
// same Statement.
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "frontend/parser.hpp"
#include "frontend/render.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"

#ifndef SYSTOLIZE_DESIGN_DIR
#define SYSTOLIZE_DESIGN_DIR "designs"
#endif

namespace systolize {
namespace {

std::string read_design(const std::string& name) {
  std::ifstream in(std::string(SYSTOLIZE_DESIGN_DIR) + "/" + name + ".sa");
  EXPECT_TRUE(in) << "cannot open " << name << ".sa";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Render, parse, and run again: the same Statement, and the same results
/// from the reparsed design on the VM as from the original's baseline.
void expect_round_trip(const Design& d) {
  const std::string sa = frontend::render_design(d.nest, d.spec);
  const Design back = frontend::parse_design(sa);
  EXPECT_EQ(back.nest.body(), d.nest.body()) << sa;
  EXPECT_EQ(back.nest.body_text(), d.nest.body_text());

  const Env sizes{{"n", Rational(3)}};
  const auto init = [](const std::string& v, const IntVec& p) {
    return static_cast<Value>(v[0] % 7 + 2 * p[0] - p[p.dim() - 1]);
  };
  IndexedStore expected = make_initial_store(d.nest, sizes, init);
  IndexedStore actual = make_initial_store(back.nest, sizes, init);
  run_sequential(d.nest, sizes, expected);
  (void)execute(compile(back.nest, back.spec), back.nest, sizes, actual);
  EXPECT_EQ(actual, expected) << sa;
}

TEST(Render, CatalogDesignsRoundTrip) {
  for (const char* name : {"polyprod1", "polyprod2", "polyprod3", "matmul1",
                           "matmul2", "matmul3", "matmul4", "convolution",
                           "correlation", "fir_bank", "closure"}) {
    Design original = design_by_name(name);
    std::string sa = frontend::render_design(original.nest, original.spec);
    Design reparsed = frontend::parse_design(sa);

    EXPECT_EQ(reparsed.nest.name(), original.nest.name()) << name;
    EXPECT_EQ(reparsed.nest.depth(), original.nest.depth()) << name;
    EXPECT_EQ(reparsed.spec.step().coeffs(), original.spec.step().coeffs())
        << name << "\n" << sa;
    EXPECT_EQ(reparsed.spec.place().matrix().to_string(),
              original.spec.place().matrix().to_string())
        << name << "\n" << sa;
    EXPECT_EQ(reparsed.spec.loading_vectors().size(),
              original.spec.loading_vectors().size())
        << name;

    // The decisive equivalence: both parse trees compile to programs
    // with identical step/place and stream structure.
    CompiledProgram a = compile(original.nest, original.spec);
    CompiledProgram b = compile(reparsed.nest, reparsed.spec);
    EXPECT_EQ(a.depth, b.depth) << name;
    EXPECT_EQ(a.streams.size(), b.streams.size()) << name;
    EXPECT_EQ(a.ps.min.to_string(), b.ps.min.to_string()) << name;
    EXPECT_EQ(a.ps.max.to_string(), b.ps.max.to_string()) << name;
  }
}

TEST(Render, RenderedTextIsStable) {
  // Rendering the reparsed design reproduces the text byte for byte —
  // the exporter is idempotent through a parse cycle.
  Design d = design_by_name("matmul2");
  std::string once = frontend::render_design(d.nest, d.spec);
  Design reparsed = frontend::parse_design(once);
  std::string twice = frontend::render_design(reparsed.nest, reparsed.spec);
  EXPECT_EQ(once, twice);
}

TEST(Render, CommentLinesArePrefixed) {
  Design d = design_by_name("polyprod1");
  std::string sa =
      frontend::render_design(d.nest, d.spec, "line one\nline two");
  EXPECT_EQ(sa.rfind("# line one\n# line two\n", 0), 0u);
  (void)frontend::parse_design(sa);  // comments must not break the parser
}

TEST(Render, GuardedBodyRoundTrips) {
  const Design masked = frontend::parse_design(read_design("masked_polyprod"));
  EXPECT_EQ(masked.nest.body_text(), "c := c + a * b when i - j >= 0");
  expect_round_trip(masked);
  const Design banded = frontend::parse_design(read_design("banded_matmul"));
  EXPECT_EQ(banded.nest.body_text(), "c := c + a * b when -i + j + 2 >= 0");
  expect_round_trip(banded);

  // Bodies whose meaning needs their parentheses.
  const std::string polyprod = read_design("polyprod1");
  const std::string body = "body c := c + a * b";
  ASSERT_NE(polyprod.find(body), std::string::npos);
  for (const char* rhs : {"(c + a) * b", "c - (a - b)"}) {
    std::string sa = polyprod;
    sa.replace(sa.find(body), body.size(), std::string("body c := ") + rhs);
    const Design d = frontend::parse_design(sa);
    EXPECT_EQ(d.nest.body_text(), std::string("c := ") + rhs);
    expect_round_trip(d);
  }
}

TEST(Render, LinExprTextMatchesFormatGrammar) {
  Design d = design_by_name("matmul2");
  EXPECT_EQ(frontend::lin_expr_text(IntVec{1, 1, 1}, d.nest), "i + j + k");
  EXPECT_EQ(frontend::lin_expr_text(IntVec{-1, 0, 2}, d.nest), "-i + 2*k");
  EXPECT_EQ(frontend::lin_expr_text(IntVec{0, 0, 0}, d.nest), "0");
  EXPECT_EQ(frontend::place_text(IntMatrix{{1, 0, -1}, {0, 1, -1}}, d.nest),
            "(i - k, j - k)");
}

}  // namespace
}  // namespace systolize

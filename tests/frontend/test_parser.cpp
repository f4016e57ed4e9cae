#include "frontend/parser.hpp"

#include <gtest/gtest.h>

#include "baseline/sequential.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"
#include "support/error.hpp"

namespace systolize::frontend {
namespace {

const char* kPolyprod1 = R"(
# Appendix D.1 as a .sa file
design polyprod1
sizes n >= 1
loop i = 0 .. n
loop j = 0 .. n
stream a[i]   read   dims [0 .. n]
stream b[j]   read   dims [0 .. n]
stream c[i+j] update dims [0 .. 2*n]
body c := c + a * b
step 2*i + j
place (i)
load a = (1)
)";

/// c after applying `body` (over polyprod1's streams) to a = 3, b = 4,
/// c = 10.
Value eval_c(const std::string& body) {
  Design d = parse_design(kPolyprod1);
  Statement st = parse_statement(body, d.nest.streams(), d.nest.loops());
  Value slots[] = {3, 4, 10};
  st.apply(IntVec{0, 0}, slots);
  return slots[2];
}

TEST(Parser, ParsesPolyprodDesign) {
  Design d = parse_design(kPolyprod1);
  EXPECT_EQ(d.nest.name(), "polyprod1");
  EXPECT_EQ(d.nest.depth(), 2u);
  EXPECT_EQ(d.nest.streams().size(), 3u);
  EXPECT_EQ(d.nest.body_text(), "c := c + a * b");
  EXPECT_EQ(d.spec.step().coeffs(), (IntVec{2, 1}));
  EXPECT_EQ(d.spec.place().matrix(), (IntMatrix{{1, 0}}));
  EXPECT_EQ(d.nest.stream("c").index_map(), (IntMatrix{{1, 1}}));
  EXPECT_EQ(d.nest.stream("c").access(), StreamAccess::Update);
  EXPECT_EQ(d.nest.stream("a").access(), StreamAccess::Read);
}

TEST(Parser, ParsedDesignCompilesLikeTheCatalogOne) {
  Design d = parse_design(kPolyprod1);
  CompiledProgram prog = compile(d.nest, d.spec);
  EXPECT_EQ(prog.repeater.increment, (IntVec{0, 1}));
  EXPECT_TRUE(prog.repeater.simple_place);
  Env env{{"n", Rational(3)}, {"col", Rational(2)}};
  EXPECT_EQ(prog.repeater.first.select(env)->evaluate(env), (IntVec{2, 0}));
}

TEST(Parser, ParsedDesignRunsCorrectly) {
  Design d = parse_design(kPolyprod1);
  CompiledProgram prog = compile(d.nest, d.spec);
  Env sizes{{"n", Rational(4)}};
  IndexedStore store = make_initial_store(
      d.nest, sizes, [](const std::string& var, const IntVec& p) {
        return static_cast<Value>(var[0] + p[0]);
      });
  IndexedStore check = store;
  run_sequential(d.nest, sizes, check);
  (void)execute(prog, d.nest, sizes, store);
  EXPECT_EQ(store.elements("c"), check.elements("c"));
}

TEST(Parser, ParsesKungLeisersonMatmul) {
  Design d = parse_design(R"(
design matmul_kl
sizes n >= 1
loop i = 0 .. n
loop j = 0 .. n
loop k = 0 .. n
stream a[i,k] read   dims [0 .. n, 0 .. n]
stream b[k,j] read   dims [0 .. n, 0 .. n]
stream c[i,j] update dims [0 .. n, 0 .. n]
body c := c + a * b
step i + j + k
place (i - k, j - k)
)");
  CompiledProgram prog = compile(d.nest, d.spec);
  EXPECT_EQ(prog.repeater.increment, (IntVec{1, 1, 1}));
  EXPECT_EQ(prog.stream_plan("c").motion.flow,
            (RatVec{Rational(-1), Rational(-1)}));
}

TEST(Parser, NegativeBoundsAndSubtraction) {
  Design d = parse_design(R"(
design correlation
sizes n >= 1
loop i = 0 .. n
loop j = 0 .. n
stream a[i]   read   dims [0 .. n]
stream b[j]   read   dims [0 .. n]
stream c[i-j] update dims [0 - n .. n]
body c := c + a * b
step i + 2*j
place (i)
load a = (1)
)");
  CompiledProgram prog = compile(d.nest, d.spec);
  EXPECT_EQ(prog.stream_plan("c").motion.flow, (RatVec{Rational(1, 3)}));
}

TEST(Parser, BodyExpressionEvaluates) {
  Design d = parse_design(R"(
design weird
sizes n >= 1
loop i = 0 .. n
loop j = 0 .. n
stream a[i]   read   dims [0 .. n]
stream b[j]   read   dims [0 .. n]
stream c[i+j] update dims [0 .. 2*n]
body c := c + 2 * a * b - a + 1
step 2*i + j
place (i)
load a = (1)
)");
  Value slots[] = {3, 4, 10};  // a, b, c in stream order
  d.nest.body().apply(IntVec{0, 0}, slots);
  EXPECT_EQ(slots[2], 10 + 2 * 3 * 4 - 3 + 1);
  EXPECT_EQ(slots[0], 3);  // only the target is written
  EXPECT_EQ(slots[1], 4);

  // Every engine and the baseline run this same apply(), so the expected
  // values here come from C++ arithmetic, not from another evaluator.
  const Value a = 3;
  const Value b = 4;
  const Value c = 10;
  // Precedence: * binds tighter than + and -.
  EXPECT_EQ(eval_c("c := c + a * b"), c + a * b);
  EXPECT_EQ(eval_c("c := a * b - c"), a * b - c);
  EXPECT_EQ(eval_c("c := (c + a) * b"), (c + a) * b);
  // - associates to the left.
  EXPECT_EQ(eval_c("c := c - a - b"), (c - a) - b);
  EXPECT_EQ(eval_c("c := c - (a - b)"), c - (a - b));
  // Unary minus negates the next factor only.
  EXPECT_EQ(eval_c("c := -a * b"), (-a) * b);
  EXPECT_EQ(eval_c("c := c - -a"), c + a);
  EXPECT_EQ(eval_c("c := -(c - a) * -b"), -(c - a) * -b);
  // Nested parentheses.
  EXPECT_EQ(eval_c("c := ((c - (a * (b + 1))) * 2)"), (c - a * (b + 1)) * 2);
  // Constants.
  EXPECT_EQ(eval_c("c := 7"), 7);
  EXPECT_EQ(eval_c("c := 2 * c - 3 * a + 100"), 2 * c - 3 * a + 100);
  EXPECT_EQ(eval_c("c := c * 0 - 5"), -5);
}

TEST(Parser, BodyDeeperThanTheOperandStackIsRefused) {
  // Evaluation uses a fixed operand stack, so a right-nested body that
  // would overflow it is refused at parse time, not run.
  Design d = parse_design(kPolyprod1);
  std::string rhs = "a";
  for (int i = 0; i < 40; ++i) rhs = "a + (" + rhs + ")";
  try {
    (void)parse_statement("c := " + rhs, d.nest.streams(), d.nest.loops());
    FAIL() << "expected a Validation error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Validation) << e.what();
    EXPECT_NE(std::string(e.what()).find("pending operands"),
              std::string::npos)
        << e.what();
  }
}

TEST(Parser, NegativeLoopStepWithBy) {
  // A loop executed from its right bound down to its left bound
  // (Sect. 3.1: negative steps reverse the execution order only; the
  // bounds still satisfy lb <= rb).
  Design d = parse_design(R"(
design reversed
sizes n >= 1
loop i = 0 .. n
loop j = 0 .. n by -1
stream a[i]   read   dims [0 .. n]
stream b[j]   read   dims [0 .. n]
stream c[i+j] update dims [0 .. 2*n]
body c := c + a * b
step 2*i + j
place (i)
load a = (1)
)");
  EXPECT_EQ(d.nest.loops()[1].step, -1);
  // The compiled program is unaffected by the execution order...
  CompiledProgram prog = compile(d.nest, d.spec);
  EXPECT_EQ(prog.repeater.increment, (IntVec{0, 1}));
  // ...and the executed result matches the (reversed) sequential order.
  Env sizes{{"n", Rational(3)}};
  IndexedStore store = make_initial_store(
      d.nest, sizes, [](const std::string& var, const IntVec& p) {
        return static_cast<Value>(var[0] - p[0]);
      });
  IndexedStore check = store;
  run_sequential(d.nest, sizes, check);
  (void)execute(prog, d.nest, sizes, store);
  EXPECT_EQ(store.elements("c"), check.elements("c"));
}

// ---- error cases ---------------------------------------------------------

void expect_error(const std::string& source, ErrorKind kind,
                  const std::string& fragment) {
  try {
    (void)parse_design(source);
    FAIL() << "expected error containing '" << fragment << "'";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

TEST(ParserErrors, MissingDesignKeyword) {
  expect_error("loop i = 0 .. n", ErrorKind::Parse, "expected 'design'");
}

TEST(ParserErrors, UnknownDeclaration) {
  expect_error("design d\nfrobnicate", ErrorKind::Parse,
               "unknown declaration");
}

TEST(ParserErrors, UndeclaredSizeVariable) {
  expect_error("design d\nloop i = 0 .. n", ErrorKind::Parse,
               "not a declared problem-size variable");
}

TEST(ParserErrors, ConstantInIndexVector) {
  // The Appendix A.2 restriction: no constants in index vectors.
  expect_error(R"(
design d
sizes n >= 1
loop i = 0 .. n
loop j = 0 .. n
stream a[i+1] read dims [0 .. n]
body a := a
step i + j
place (i)
)",
               ErrorKind::Validation, "no constant term");
}

TEST(ParserErrors, NonLinearProduct) {
  expect_error(R"(
design d
sizes n >= 1
loop i = 0 .. n
loop j = 0 .. n
stream a[i*j] read dims [0 .. n]
body a := a
step i + j
place (i)
)",
               ErrorKind::Parse, "non-linear");
}

TEST(ParserErrors, BodyOnNonStream) {
  expect_error(R"(
design d
sizes n >= 1
loop i = 0 .. n
loop j = 0 .. n
stream a[i] read dims [0 .. n]
body q := a
step 2*i + j
place (i)
)",
               ErrorKind::Validation, "not a stream");
}

TEST(ParserErrors, MissingStep) {
  expect_error(R"(
design d
sizes n >= 1
loop i = 0 .. n
loop j = 0 .. n
stream a[i] read dims [0 .. n]
body a := a
place (i)
)",
               ErrorKind::Validation, "no step function");
}

TEST(ParserErrors, ErrorsCarryLineNumbers) {
  expect_error("design d\nsizes n >= 1\nloop i = 0 .. @", ErrorKind::Parse,
               "line 3");
}

}  // namespace
}  // namespace systolize::frontend

// Guarded basic statements (Sect. 3.1's  if B_j -> S_j  form): the guard
// is an affine condition on the loop indices, evaluated per statement from
// the locally reconstructed index-space point.
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "baseline/sequential.hpp"
#include "frontend/parser.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"

#ifndef SYSTOLIZE_DESIGN_DIR
#define SYSTOLIZE_DESIGN_DIR "designs"
#endif

namespace systolize::frontend {
namespace {

const char* kMasked = R"(
design masked
sizes n >= 1
loop i = 0 .. n
loop j = 0 .. n
stream a[i]   read   dims [0 .. n]
stream b[j]   read   dims [0 .. n]
stream c[i+j] update dims [0 .. 2*n]
body c := c + a * b when i >= j
step 2*i + j
place (i)
load a = (1)
)";

/// Whether `body` (over kMasked's streams and loops i, j) executes at
/// (i, j): c moves off 0 exactly when it does.
bool executes_at(const std::string& body, Int i, Int j) {
  Design d = parse_design(kMasked);
  Statement st = parse_statement(body, d.nest.streams(), d.nest.loops());
  Value slots[] = {1, 1, 0};  // a, b, c
  st.apply(IntVec{i, j}, slots);
  return slots[2] != 0;
}

TEST(GuardedBody, GuardEvaluatesPerIndex) {
  Design d = parse_design(kMasked);
  Value slots[] = {3, 5, 100};  // a, b, c in stream order
  d.nest.body().apply(IntVec{2, 1}, slots);  // i >= j: executes
  EXPECT_EQ(slots[2], 115);
  d.nest.body().apply(IntVec{1, 2}, slots);  // i < j: masked out
  EXPECT_EQ(slots[2], 115);
  d.nest.body().apply(IntVec{2, 2}, slots);  // boundary: >= includes equality
  EXPECT_EQ(slots[2], 130);

  // Both comparison forms include their boundary, with constants and
  // coefficients on either side.
  const std::string body = "c := c + a * b when ";
  EXPECT_TRUE(executes_at(body + "2*i >= j + 3", 2, 1));   // 4 >= 4
  EXPECT_FALSE(executes_at(body + "2*i >= j + 3", 2, 2));  // 4 >= 5
  EXPECT_TRUE(executes_at(body + "i <= j + 2", 3, 1));     // 3 <= 3
  EXPECT_FALSE(executes_at(body + "i <= j + 2", 4, 1));    // 4 <= 3
  EXPECT_TRUE(executes_at(body + "1 - i <= -j", 2, 1));    // -1 <= -1
  EXPECT_FALSE(executes_at(body + "1 - i <= -j", 1, 1));   // 0 <= -1
  EXPECT_TRUE(executes_at(body + "0 >= 0", 5, 7));
  EXPECT_FALSE(executes_at(body + "j >= 1", 0, 0));
}

TEST(GuardedBody, SequentialSemanticsAreTriangular) {
  Design d = parse_design(kMasked);
  Env sizes{{"n", Rational(3)}};
  IndexedStore store;
  store.fill(d.nest.stream("a"), sizes, [](const IntVec&) { return 1; });
  store.fill(d.nest.stream("b"), sizes, [](const IntVec&) { return 1; });
  store.fill(d.nest.stream("c"), sizes, [](const IntVec&) { return 0; });
  run_sequential(d.nest, sizes, store);
  // c[k] counts pairs (i,j) with i+j == k and i >= j.
  for (Int k = 0; k <= 6; ++k) {
    Int expect = 0;
    for (Int i = 0; i <= 3; ++i) {
      for (Int j = 0; j <= 3; ++j) {
        if (i + j == k && i >= j) ++expect;
      }
    }
    EXPECT_EQ(store.get("c", IntVec{k}), expect) << "k=" << k;
  }
}

TEST(GuardedBody, SystolicExecutionMatchesSequential) {
  Design d = parse_design(kMasked);
  CompiledProgram prog = compile(d.nest, d.spec);
  for (Int n = 1; n <= 5; ++n) {
    Env sizes{{"n", Rational(n)}};
    IndexedStore expected = make_initial_store(
        d.nest, sizes, [](const std::string& v, const IntVec& p) {
          return static_cast<Value>(v[0] + 3 * p[0]);
        });
    IndexedStore actual = expected;
    run_sequential(d.nest, sizes, expected);
    (void)execute(prog, d.nest, sizes, actual);
    EXPECT_EQ(actual.elements("c"), expected.elements("c")) << "n=" << n;
  }
}

TEST(GuardedBody, LeGuardAndConstants) {
  Design d = parse_design(R"(
design banded
sizes n >= 1
loop i = 0 .. n
loop j = 0 .. n
stream a[i]   read   dims [0 .. n]
stream b[j]   read   dims [0 .. n]
stream c[i+j] update dims [0 .. 2*n]
body c := c + a * b when i - j <= 1
step 2*i + j
place (i)
load a = (1)
)");
  Value slots[] = {1, 1, 0};  // a, b, c
  d.nest.body().apply(IntVec{3, 2}, slots);  // i-j = 1 <= 1: executes
  EXPECT_EQ(slots[2], 1);
  d.nest.body().apply(IntVec{3, 1}, slots);  // i-j = 2 > 1: masked
  EXPECT_EQ(slots[2], 1);
}

TEST(GuardedBody, ShippedMaskedDesignFileWorksEndToEnd) {
  std::ifstream in(std::string(SYSTOLIZE_DESIGN_DIR) + "/masked_polyprod.sa");
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  Design d = parse_design(buf.str());
  CompiledProgram prog = compile(d.nest, d.spec);
  Env sizes{{"n", Rational(4)}};
  IndexedStore expected = make_initial_store(
      d.nest, sizes,
      [](const std::string& v, const IntVec& p) { return v[0] % 7 + p[0]; });
  IndexedStore actual = expected;
  run_sequential(d.nest, sizes, expected);
  (void)execute(prog, d.nest, sizes, actual);
  EXPECT_EQ(actual.elements("c"), expected.elements("c"));
}

TEST(GuardedBody, ShippedBandedMatmulMasksOutsideTheBand) {
  std::ifstream in(std::string(SYSTOLIZE_DESIGN_DIR) + "/banded_matmul.sa");
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  Design d = parse_design(buf.str());
  Env sizes{{"n", Rational(4)}};
  IndexedStore store;
  store.fill(d.nest.stream("a"), sizes, [](const IntVec&) { return 1; });
  store.fill(d.nest.stream("b"), sizes, [](const IntVec&) { return 1; });
  store.fill(d.nest.stream("c"), sizes, [](const IntVec&) { return 0; });
  run_sequential(d.nest, sizes, store);
  // All-ones inputs: inside the band i <= j + 2 each c[i,j] accumulates
  // all n+1 products; outside it stays untouched.
  for (Int i = 0; i <= 4; ++i) {
    for (Int j = 0; j <= 4; ++j) {
      EXPECT_EQ(store.get("c", IntVec{i, j}), i <= j + 2 ? 5 : 0)
          << "c[" << i << "," << j << "]";
    }
  }
}

TEST(GuardedBody, ShippedBandedMatmulDifferentialAcrossBackends) {
  // The guard masks computation only; the protocol is full matmul1, so
  // every backend must reproduce the masked sequential result exactly.
  std::ifstream in(std::string(SYSTOLIZE_DESIGN_DIR) + "/banded_matmul.sa");
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  Design d = parse_design(buf.str());
  CompiledProgram prog = compile(d.nest, d.spec);
  Env sizes{{"n", Rational(3)}};
  IndexedStore expected = make_initial_store(
      d.nest, sizes, [](const std::string& v, const IntVec& p) {
        return static_cast<Value>(v[0] % 5 + 2 * p[0] - p[p.dim() - 1]);
      });
  IndexedStore fast = expected;
  IndexedStore inst = expected;
  IndexedStore byte = expected;
  run_sequential(d.nest, sizes, expected);

  InstantiateOptions ip;
  ip.backend = Backend::Interp;
  (void)execute(prog, d.nest, sizes, fast, ip);
  InstantiateOptions wd = ip;
  wd.watchdog.max_rounds = Int{1} << 40;
  (void)execute(prog, d.nest, sizes, inst, wd);
  InstantiateOptions bc;
  bc.backend = Backend::Bytecode;
  (void)execute(prog, d.nest, sizes, byte, bc);

  EXPECT_EQ(fast.elements("c"), expected.elements("c"));
  EXPECT_EQ(inst.elements("c"), expected.elements("c"));
  EXPECT_EQ(byte.elements("c"), expected.elements("c"));
}

TEST(GuardedBody, MalformedGuardRejected) {
  try {
    (void)parse_design(R"(
design bad
sizes n >= 1
loop i = 0 .. n
loop j = 0 .. n
stream a[i]   read   dims [0 .. n]
stream b[j]   read   dims [0 .. n]
stream c[i+j] update dims [0 .. 2*n]
body c := c + a * b when i
step 2*i + j
place (i)
load a = (1)
)");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Parse);
    EXPECT_NE(std::string(e.what()).find(">="), std::string::npos);
  }
}

}  // namespace
}  // namespace systolize::frontend

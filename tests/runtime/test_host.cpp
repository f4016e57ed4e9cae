#include "runtime/host.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "frontend/parser.hpp"
#include "support/error.hpp"

namespace systolize {
namespace {

/// 2^62: at this n every catalog box's volume or byte count overflows Int.
constexpr Int kHugeN = Int{1} << 62;

Env sizes_at(const Design& d, Int n) {
  Env env;
  for (const Symbol& s : d.nest.sizes()) env[s.name()] = Rational(n);
  return env;
}

/// The seeding the CLI and the daemon used before make_seeded_store
/// existed, as a make_initial_store callback (perfbench's replay keeps
/// this copy).
IndexedStore legacy_seeded(const Design& d, const Env& env, Int b) {
  return make_initial_store(
      d.nest, env, [b](const std::string& var, const IntVec& p) {
        Value h = var.empty() ? 1 : var[0];
        for (std::size_t i = 0; i < p.dim(); ++i) h = h * 31 + p[i];
        return (h + 13 * b) % 23 - 11;
      });
}

template <class F>
Error error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e;
  }
  ADD_FAILURE() << "expected an Error";
  return Error(ErrorKind::Internal, "no error");
}

bool mentions(const Error& e, const std::string& fragment) {
  return std::string(e.what()).find(fragment) != std::string::npos;
}

/// A two-loop nest over i, j in 0..n whose stream `a` reads a[i + j]
/// from a declared box [0 .. n]: the image [0 .. 2n] leaves the box.
LoopNest out_of_box_nest() {
  const Symbol n = size_symbol("n");
  Guard g;
  g.add(Constraint{AffineExpr(1), AffineExpr(n)});
  std::vector<VarDim> box{VarDim{AffineExpr(0), AffineExpr(n)}};
  std::vector<Stream> streams{
      Stream("a", IntMatrix{{1, 1}}, box, StreamAccess::Read),
      Stream("c", IntMatrix{{1, 0}}, box, StreamAccess::Update)};
  std::vector<LoopSpec> loops{LoopSpec{"i", AffineExpr(0), AffineExpr(n), 1},
                              LoopSpec{"j", AffineExpr(0), AffineExpr(n), 1}};
  Statement body = frontend::parse_statement("c := c + a", streams, loops);
  return LoopNest("oob", std::move(loops), std::move(streams), {n}, g,
                  std::move(body));
}

TEST(IndexedStore, GetSetDefaultsToZero) {
  IndexedStore store;
  EXPECT_EQ(store.get("a", IntVec{1, 2}), 0);
  store.set("a", IntVec{1, 2}, 42);
  EXPECT_EQ(store.get("a", IntVec{1, 2}), 42);
  EXPECT_EQ(store.get("a", IntVec{2, 1}), 0);
  EXPECT_FALSE(store.has("b"));
  EXPECT_TRUE(store.has("a"));
  EXPECT_THROW((void)store.elements("b"), Error);
}

TEST(IndexedStore, DomainEnumeratesVariableSpace) {
  Design d = polyprod_design1();
  Env env{{"n", Rational(2)}};
  auto dom = IndexedStore::domain(d.nest.stream("c"), env);
  ASSERT_EQ(dom.size(), 5u);  // 0 .. 2n
  EXPECT_EQ(dom.front(), (IntVec{0}));
  EXPECT_EQ(dom.back(), (IntVec{4}));

  Design m = matmul_design1();
  auto dom2 = IndexedStore::domain(m.nest.stream("a"), env);
  EXPECT_EQ(dom2.size(), 9u);  // (n+1)^2
}

TEST(IndexedStore, FillCoversDomain) {
  Design d = matmul_design1();
  Env env{{"n", Rational(2)}};
  IndexedStore store;
  store.fill(d.nest.stream("a"), env,
             [](const IntVec& p) { return 10 * p[0] + p[1]; });
  EXPECT_EQ(store.elements("a").size(), 9u);
  EXPECT_EQ(store.get("a", IntVec{2, 1}), 21);
}

TEST(IndexedStore, ReadOutsideTheBoxReturnsZero) {
  Design d = matmul_design1();
  Env env{{"n", Rational(2)}};
  IndexedStore store;
  store.fill(d.nest.stream("a"), env, [](const IntVec&) { return 5; });
  EXPECT_EQ(store.get("a", IntVec{0, 0}), 5);
  EXPECT_EQ(store.get("a", IntVec{3, 0}), 0);
  EXPECT_EQ(store.get("a", IntVec{-1, 2}), 0);
  EXPECT_EQ(store.get("a", IntVec{INT64_MIN, INT64_MAX}), 0);
  EXPECT_EQ(store.get("a", IntVec{1}), 0);  // another dimension
  const IntVec probes[] = {IntVec{2, 2}, IntVec{2, 3}};
  Value out[2] = {-1, -1};
  store.gather("a", probes, 2, out);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[1], 0);
}

TEST(IndexedStore, BulkScatterIntoEmptyStoreCreatesTheBoundingBox) {
  IndexedStore store;
  const IntVec idx[] = {IntVec{2, 5}, IntVec{-1, 7}, IntVec{0, 4}};
  const Value vals[] = {1, 2, 3};
  store.scatter("v", idx, 3, vals);
  const IndexedStore::Array& a = store.elements("v");
  EXPECT_EQ(a.box().lower, (std::vector<Int>{-1, 4}));
  EXPECT_EQ(a.box().extent, (std::vector<Int>{4, 4}));
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(store.get("v", IntVec{2, 5}), 1);
  EXPECT_EQ(store.get("v", IntVec{-1, 7}), 2);
  EXPECT_EQ(store.get("v", IntVec{0, 4}), 3);
  EXPECT_EQ(store.get("v", IntVec{0, 5}), 0);  // new cells are zero

  // A second call that stays inside the box leaves it alone.
  const IntVec inside[] = {IntVec{1, 6}};
  const Value seven[] = {7};
  store.scatter("v", inside, 1, seven);
  EXPECT_EQ(store.elements("v").box().extent, (std::vector<Int>{4, 4}));
  EXPECT_EQ(store.get("v", IntVec{1, 6}), 7);
}

TEST(IndexedStore, WriteOutsideTheBoxKeepsOldValuesAndBreaksEquality) {
  Design d = polyprod_design1();
  Env env{{"n", Rational(2)}};
  IndexedStore seeded = make_seeded_store(d.nest, env);
  IndexedStore grown = seeded;
  EXPECT_EQ(grown, seeded);
  grown.set("c", IntVec{7}, 0);  // zero, but outside the box [0 .. 4]
  EXPECT_NE(grown.elements("c"), seeded.elements("c"));
  EXPECT_NE(grown, seeded);
  EXPECT_EQ(grown.elements("c").size(), 8u);
  for (Int k = 0; k <= 4; ++k) {
    EXPECT_EQ(grown.get("c", IntVec{k}), seeded.get("c", IntVec{k}));
  }
  EXPECT_EQ(grown.elements("a"), seeded.elements("a"));
}

TEST(IndexedStore, CopiesAreIndependent) {
  Design d = matmul_design2();
  Env env{{"n", Rational(3)}};
  IndexedStore original = make_seeded_store(d.nest, env);
  IndexedStore copy = original;
  copy.set("a", IntVec{1, 1}, 1000);
  copy.set("a", IntVec{9, 9}, 1);
  EXPECT_NE(original.get("a", IntVec{1, 1}), 1000);
  EXPECT_EQ(original.get("a", IntVec{9, 9}), 0);
  EXPECT_EQ(original, make_seeded_store(d.nest, env));
}

TEST(IndexedStore, ElementsSizeIsTheBoxVolume) {
  for (const Design& d : all_designs()) {
    const Env env = sizes_at(d, 3);
    const IndexedStore store = make_seeded_store(d.nest, env);
    for (const Stream& s : d.nest.streams()) {
      EXPECT_EQ(store.elements(s.name()).size(),
                IndexedStore::domain(s, env).size())
          << d.description << " stream " << s.name();
    }
  }
}

TEST(IndexedStore, EqualityIgnoresInsertionOrder) {
  IndexedStore ab;
  ab.set("a", IntVec{0}, 1);
  ab.set("b", IntVec{0}, 2);
  IndexedStore ba;
  ba.set("b", IntVec{0}, 2);
  ba.set("a", IntVec{0}, 1);
  EXPECT_EQ(ab, ba);
}

TEST(IndexedStore, FirstDivergenceNamesStreamIndexAndValues) {
  Design d = matmul_design1();
  Env env{{"n", Rational(2)}};
  const IndexedStore expected = make_seeded_store(d.nest, env);
  IndexedStore actual = expected;
  EXPECT_EQ(first_divergence(d.nest, expected, actual), "");
  const Value want = expected.get("c", IntVec{1, 2});
  actual.set("c", IntVec{1, 2}, want + 5);
  actual.set("c", IntVec{2, 0}, want + 6);  // later in row-major order
  EXPECT_EQ(first_divergence(d.nest, expected, actual),
            "stream 'c' at (1,2): expected " + std::to_string(want) +
                ", got " + std::to_string(want + 5));

  IndexedStore grown = expected;
  grown.set("b", IntVec{3, 0}, 0);
  EXPECT_EQ(first_divergence(d.nest, expected, grown),
            "stream 'b': box [0 .. 3] x [0 .. 2], expected [0 .. 2] x "
            "[0 .. 2]");
}

TEST(IndexedStore, DomainRaisesOverflowBeforeMaterializing) {
  Design d = matmul_design2();
  const Error e = error_of([&] {
    (void)IndexedStore::domain(d.nest.stream("a"), sizes_at(d, kHugeN));
  });
  EXPECT_EQ(e.kind(), ErrorKind::Overflow) << e.what();
  EXPECT_TRUE(mentions(e, "stream 'a'")) << e.what();
}

TEST(Sequential, PolynomialProductGroundTruth) {
  // (1 + x)^2 = 1 + 2x + x^2.
  Design d = polyprod_design1();
  Env env{{"n", Rational(1)}};
  IndexedStore store;
  store.fill(d.nest.stream("a"), env, [](const IntVec&) { return 1; });
  store.fill(d.nest.stream("b"), env, [](const IntVec&) { return 1; });
  store.fill(d.nest.stream("c"), env, [](const IntVec&) { return 0; });
  run_sequential(d.nest, env, store);
  EXPECT_EQ(store.get("c", IntVec{0}), 1);
  EXPECT_EQ(store.get("c", IntVec{1}), 2);
  EXPECT_EQ(store.get("c", IntVec{2}), 1);
}

TEST(Sequential, MatrixProductGroundTruth) {
  // Identity times B equals B.
  Design d = matmul_design1();
  Env env{{"n", Rational(2)}};
  IndexedStore store;
  store.fill(d.nest.stream("a"), env,
             [](const IntVec& p) { return p[0] == p[1] ? 1 : 0; });
  store.fill(d.nest.stream("b"), env,
             [](const IntVec& p) { return 3 * p[0] + p[1] + 1; });
  store.fill(d.nest.stream("c"), env, [](const IntVec&) { return 0; });
  run_sequential(d.nest, env, store);
  EXPECT_EQ(store.elements("c"), store.elements("b"));
}

TEST(Sequential, MakeInitialStoreZeroesUpdateStreams) {
  Design d = polyprod_design1();
  Env env{{"n", Rational(2)}};
  IndexedStore store = make_initial_store(
      d.nest, env, [](const std::string&, const IntVec&) { return 7; });
  EXPECT_EQ(store.get("a", IntVec{0}), 7);
  EXPECT_EQ(store.get("c", IntVec{0}), 0);
  EXPECT_EQ(store.elements("c").size(), 5u);
}

TEST(Sequential, RunsOnAStoreMissingAStream) {
  // The missing stream reads 0 and is created over its declared box.
  Design d = polyprod_design1();
  Env env{{"n", Rational(2)}};
  IndexedStore full = make_initial_store(
      d.nest, env, [](const std::string& v, const IntVec& p) {
        return v == "a" ? p[0] + 1 : 0;
      });
  IndexedStore partial;
  partial.fill(d.nest.stream("a"), env,
               [](const IntVec& p) { return p[0] + 1; });
  run_sequential(d.nest, env, full);
  run_sequential(d.nest, env, partial);
  EXPECT_EQ(partial, full);
  EXPECT_EQ(partial.elements("c").size(), 5u);
}

TEST(Sequential, SeededStoreMatchesTheLegacySeeding) {
  for (const Design& d : all_designs()) {
    for (Int n : {1, 3, 6}) {
      const Env env = sizes_at(d, n);
      for (Int lane : {0, 1, 7, 63}) {
        EXPECT_EQ(make_seeded_store(d.nest, env, lane),
                  legacy_seeded(d, env, lane))
            << d.description << " n=" << n << " lane=" << lane;
      }
    }
  }
}

TEST(Sequential, DenseBaselineMatchesPointwiseExecution) {
  // An independent element-by-element execution in enumerate_index_space
  // order (steps honoured, so closure's k loop runs downwards).
  for (const Design& d : all_designs()) {
    const Env env = sizes_at(d, 4);
    IndexedStore dense = make_seeded_store(d.nest, env, 3);
    IndexedStore pointwise = dense;
    run_sequential(d.nest, env, dense);
    const std::vector<Stream>& streams = d.nest.streams();
    std::vector<Value> slots(streams.size());
    for (const IntVec& x : d.nest.enumerate_index_space(env)) {
      for (std::size_t i = 0; i < streams.size(); ++i) {
        slots[i] = pointwise.get(streams[i].name(), streams[i].element_of(x));
      }
      d.nest.body().apply(x, slots.data());
      for (std::size_t i = 0; i < streams.size(); ++i) {
        if (streams[i].access() == StreamAccess::Update) {
          pointwise.set(streams[i].name(), streams[i].element_of(x),
                        slots[i]);
        }
      }
    }
    EXPECT_EQ(dense, pointwise) << d.description;
  }
}

TEST(Sequential, OutOfBoxIndexMapIsAValidationError) {
  const LoopNest nest = out_of_box_nest();
  const Env env{{"n", Rational(3)}};
  const auto zero = [](const std::string&, const IntVec&) { return 0; };
  const Error made =
      error_of([&] { (void)make_initial_store(nest, env, zero); });
  EXPECT_EQ(made.kind(), ErrorKind::Validation) << made.what();
  EXPECT_TRUE(mentions(made, "stream 'a' dimension 0")) << made.what();
  EXPECT_TRUE(mentions(made, "[0 .. 6]")) << made.what();
  EXPECT_TRUE(mentions(made, "[0 .. 3]")) << made.what();

  IndexedStore store;
  const Error ran = error_of([&] { run_sequential(nest, env, store); });
  EXPECT_EQ(ran.kind(), ErrorKind::Validation) << ran.what();
  EXPECT_STREQ(ran.what(), made.what());
  EXPECT_FALSE(store.has("a"));  // checked before touching the store
}

TEST(Sequential, OutOfBoxSaFileIsAValidationError) {
  // designs/polyprod1.sa with one stream changed. A constant offset in an
  // index map is refused by the parser; a linear map whose image leaves
  // the declared box parses, and is refused when the store is built.
  const auto polyprod = [](const std::string& a, const std::string& c) {
    return "design polyprod\nsizes n >= 1\nloop i = 0 .. n\n"
           "loop j = 0 .. n\nstream " + a + "\nstream b[j] read dims "
           "[0 .. n]\nstream " + c + "\nbody c := c + a * b\n"
           "step 2*i + j\nplace (i)\nload a = (1)\n";
  };
  const std::string c_ok = "c[i+j] update dims [0 .. 2*n]";
  const Error offset = error_of([&] {
    (void)frontend::parse_design(
        polyprod("a[i+1] read dims [0 .. n]", c_ok));
  });
  EXPECT_EQ(offset.kind(), ErrorKind::Validation) << offset.what();

  const Design d = frontend::parse_design(
      polyprod("a[i] read dims [0 .. n]", "c[i+j] update dims [0 .. n]"));
  const Error e = error_of(
      [&] { (void)make_seeded_store(d.nest, {{"n", Rational(4)}}); });
  EXPECT_EQ(e.kind(), ErrorKind::Validation) << e.what();
  EXPECT_TRUE(mentions(e, "stream 'c' dimension 0")) << e.what();
  EXPECT_TRUE(mentions(e, "[0 .. 8]")) << e.what();
}

TEST(Sequential, NearOverflowSizesAreClassifiedOverflow) {
  for (const Design& d : all_designs()) {
    const Env env = sizes_at(d, kHugeN);
    const Error made = error_of([&] {
      (void)make_initial_store(
          d.nest, env, [](const std::string&, const IntVec&) { return 0; });
    });
    EXPECT_EQ(made.kind(), ErrorKind::Overflow)
        << d.description << ": " << made.what();
    EXPECT_TRUE(mentions(made, "stream '")) << made.what();
    const Error seeded =
        error_of([&] { (void)make_seeded_store(d.nest, env); });
    EXPECT_EQ(seeded.kind(), ErrorKind::Overflow) << seeded.what();
  }
}

}  // namespace
}  // namespace systolize

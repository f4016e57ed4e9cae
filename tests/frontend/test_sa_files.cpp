// The catalog is designs/<name>.sa, embedded into the library at build
// time (src/CMakeLists.txt). These tests re-read each shipped file and
// check that its catalog entry is that file: same statement, same derived
// quantities at every process of every instantiated array, and identical
// execution results. A stale embedding or a name mapped to the wrong file
// fails them.
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "baseline/runtime_generation.hpp"
#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "frontend/parser.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"

#ifndef SYSTOLIZE_DESIGN_DIR
#define SYSTOLIZE_DESIGN_DIR "designs"
#endif

namespace systolize {
namespace {

std::string read_file(const std::string& name) {
  std::string path = std::string(SYSTOLIZE_DESIGN_DIR) + "/" + name + ".sa";
  std::ifstream in(path);
  if (!in) {
    ADD_FAILURE() << "cannot open " << path;
    return "";
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class SaFiles : public ::testing::TestWithParam<std::string> {};

TEST_P(SaFiles, CompilesToTheSameProgramAsTheCatalog) {
  Design from_file = frontend::parse_design(read_file(GetParam()));
  Design from_catalog = design_by_name(GetParam());
  EXPECT_EQ(from_file.nest.body(), from_catalog.nest.body());
  CompiledProgram pf = compile(from_file.nest, from_file.spec);
  CompiledProgram pc = compile(from_catalog.nest, from_catalog.spec);

  EXPECT_EQ(pf.repeater.increment, pc.repeater.increment);
  Env sizes{{"n", Rational(3)}, {"m", Rational(2)}};
  EXPECT_EQ(pf.ps.min.evaluate(sizes), pc.ps.min.evaluate(sizes));
  EXPECT_EQ(pf.ps.max.evaluate(sizes), pc.ps.max.evaluate(sizes));

  EnumerationOracle oracle(from_catalog.nest, from_catalog.spec, sizes);
  for (const IntVec& y : oracle.ps_points()) {
    Env env = sizes;
    for (std::size_t i = 0; i < pc.coords.size(); ++i) {
      env[pc.coords[i].name()] = Rational(y[i]);
    }
    ASSERT_EQ(pf.repeater.first.covers(env), pc.repeater.first.covers(env))
        << y.to_string();
    if (!pc.repeater.first.covers(env)) continue;
    EXPECT_EQ(pf.repeater.first.select(env)->evaluate(env),
              pc.repeater.first.select(env)->evaluate(env))
        << y.to_string();
    EXPECT_EQ(pf.repeater.count.select(env)->evaluate(env),
              pc.repeater.count.select(env)->evaluate(env))
        << y.to_string();
    for (const StreamPlan& plan : pc.streams) {
      const StreamPlan& fplan = pf.stream_plan(plan.name);
      EXPECT_EQ(fplan.io.increment_s, plan.io.increment_s) << plan.name;
      EXPECT_EQ(fplan.soak.select(env)->evaluate(env),
                plan.soak.select(env)->evaluate(env))
          << plan.name << " at " << y.to_string();
      EXPECT_EQ(fplan.drain.select(env)->evaluate(env),
                plan.drain.select(env)->evaluate(env))
          << plan.name << " at " << y.to_string();
    }
  }
}

TEST_P(SaFiles, ExecutesIdenticallyToTheCatalogDesign) {
  Design from_file = frontend::parse_design(read_file(GetParam()));
  Design from_catalog = design_by_name(GetParam());
  CompiledProgram pf = compile(from_file.nest, from_file.spec);
  Env sizes{{"n", Rational(4)}, {"m", Rational(2)}};
  // The file's design and the catalog's must compute the same function.
  IndexedStore store = make_initial_store(
      from_file.nest, sizes, [](const std::string& var, const IntVec& p) {
        return static_cast<Value>(var[0] * 3 + p[0] - (p.dim() > 1 ? p[1] : 0));
      });
  IndexedStore expected = store;
  run_sequential(from_catalog.nest, sizes, expected);
  (void)execute(pf, from_file.nest, sizes, store);
  for (const Stream& s : from_catalog.nest.streams()) {
    EXPECT_EQ(store.elements(s.name()), expected.elements(s.name()))
        << s.name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllSaFiles, SaFiles,
                         ::testing::Values("polyprod1", "polyprod2",
                                           "polyprod3", "matmul1", "matmul2",
                                           "matmul3", "matmul4",
                                           "convolution", "correlation",
                                           "fir_bank", "closure"));

}  // namespace
}  // namespace systolize

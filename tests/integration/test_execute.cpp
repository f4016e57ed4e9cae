// End-to-end: compile each catalog design, execute it on the
// message-passing substrate, and compare every indexed variable against
// the sequential ground truth (the Sect.-8 claim that the generated
// programs run correctly, checked on the simulator substrate).
#include <gtest/gtest.h>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"

#include "pseudo_random.hpp"

namespace systolize {
namespace {

using testutil::pseudo_random;

std::vector<Env> size_sweep(const Design& design) {
  std::vector<Env> envs;
  bool has_m = false;
  for (const Symbol& s : design.nest.sizes()) {
    if (s.name() == "m") has_m = true;
  }
  for (Int n = 1; n <= 5; ++n) {
    if (has_m) {
      for (Int m = 1; m <= 3; ++m) {
        envs.push_back(Env{{"n", Rational(n)}, {"m", Rational(m)}});
      }
    } else {
      envs.push_back(Env{{"n", Rational(n)}});
    }
  }
  return envs;
}

std::string show(const Env& env) {
  std::string s;
  for (const auto& [k, v] : env) s += k + "=" + v.to_string() + " ";
  return s;
}

class ExecuteDesign : public ::testing::TestWithParam<std::string> {};

TEST_P(ExecuteDesign, MatchesSequentialGroundTruth) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  for (const Env& sizes : size_sweep(design)) {
    IndexedStore expected = make_initial_store(design.nest, sizes,
                                               [](const auto& v, const auto& p) {
                                                 return pseudo_random(v, p);
                                               });
    IndexedStore actual = expected;
    run_sequential(design.nest, sizes, expected);

    RunMetrics metrics = execute(prog, design.nest, sizes, actual);
    for (const Stream& s : design.nest.streams()) {
      EXPECT_EQ(actual.elements(s.name()), expected.elements(s.name()))
          << GetParam() << " stream " << s.name() << " at " << show(sizes);
    }
    // Every basic statement must have executed exactly once.
    EXPECT_EQ(metrics.statements, design.nest.index_space_size(sizes))
        << GetParam() << " at " << show(sizes);
    EXPECT_GT(metrics.total_transfers, 0);
    EXPECT_GT(metrics.makespan, 0);
  }
}

TEST_P(ExecuteDesign, ReadStreamsAreRestoredUnchanged) {
  // Output processes restore every stream to the host; Read streams must
  // come back with their original values.
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = size_sweep(design).back();
  IndexedStore original = make_initial_store(design.nest, sizes,
                                             [](const auto& v, const auto& p) {
                                               return pseudo_random(v, p);
                                             });
  IndexedStore actual = original;
  (void)execute(prog, design.nest, sizes, actual);
  for (const Stream& s : design.nest.streams()) {
    if (s.access() == StreamAccess::Read) {
      EXPECT_EQ(actual.elements(s.name()), original.elements(s.name()))
          << s.name();
    }
  }
}

TEST_P(ExecuteDesign, MergedInternalBuffersProduceSameResult) {
  // Ablation: realizing internal buffers as channel slack instead of
  // separate processes must not change any result.
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = size_sweep(design).back();
  IndexedStore expected = make_initial_store(design.nest, sizes,
                                             [](const auto& v, const auto& p) {
                                               return pseudo_random(v, p);
                                             });
  IndexedStore merged = expected;
  run_sequential(design.nest, sizes, expected);
  InstantiateOptions opt;
  opt.merge_internal_buffers = true;
  (void)execute(prog, design.nest, sizes, merged, opt);
  for (const Stream& s : design.nest.streams()) {
    EXPECT_EQ(merged.elements(s.name()), expected.elements(s.name()))
        << s.name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, ExecuteDesign,
                         ::testing::Values("polyprod1", "polyprod2",
                                           "polyprod3", "matmul1", "matmul2",
                                           "matmul3", "matmul4",
                                           "convolution", "correlation",
                                           "fir_bank", "closure"));

}  // namespace
}  // namespace systolize

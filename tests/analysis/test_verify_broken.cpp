// True positives: hand-broken specs and programs must trigger exactly the
// expected rule ids. The .sa fixtures under designs/broken/ are the same
// ones the CI lint gate sweeps.
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "analysis/verify.hpp"
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

/// designs/<dir>/<name>.sa, parsed.
Design design_file(const std::string& dir, const std::string& name) {
  std::string path =
      std::string(SYSTOLIZE_DESIGN_DIR) + "/" + dir + "/" + name + ".sa";
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return frontend::parse_design(buf.str());
}

Design broken_design(const std::string& name) {
  return design_file("broken", name);
}

bool has_rule(const VerifyReport& rep, const std::string& rule,
              Severity severity = Severity::Error) {
  for (const Finding& f : rep.findings) {
    if (f.rule == rule && f.severity == severity) return true;
  }
  return false;
}

TEST(VerifyBroken, StepVanishingOnNullPlaceIsNonInjective) {
  Design d = broken_design("step_on_nullplace");
  VerifyReport rep = verify_spec(d.nest, d.spec);
  EXPECT_TRUE(has_rule(rep, "schedule.injectivity")) << rep.to_string();
  EXPECT_GE(rep.errors(), 1u);
}

TEST(VerifyBroken, StepVanishingOnADependenceDirection) {
  Design d = broken_design("dependence_clash");
  VerifyReport rep = verify_spec(d.nest, d.spec);
  EXPECT_TRUE(has_rule(rep, "schedule.dependence-step")) << rep.to_string();
  // (step, place) itself is injective here — the defect is per-stream.
  EXPECT_FALSE(has_rule(rep, "schedule.injectivity")) << rep.to_string();
}

TEST(VerifyBroken, NonNeighbourFlowIsFlagged) {
  Design d = broken_design("wide_flow");
  VerifyReport rep = verify_spec(d.nest, d.spec);
  EXPECT_TRUE(has_rule(rep, "flow.neighbour")) << rep.to_string();
}

TEST(VerifyBroken, RankDeficientStreamMapIsFlagged) {
  Design d = broken_design("rank_deficient");
  VerifyReport rep = verify_spec(d.nest, d.spec);
  EXPECT_TRUE(has_rule(rep, "stream.rank")) << rep.to_string();
  EXPECT_GE(rep.errors(), 1u);
}

TEST(VerifyBroken, StationaryLoadingMustCoverExactlyTheImage) {
  // Fuzzer-found defect class: a stationary stream whose declared dims
  // box strictly contains the index-map image of the iteration domain.
  // Spec-level rules are all clean — only the concrete loading-cover
  // check (which needs sizes) catches it.
  Design d = broken_design("loading_cover");
  EXPECT_EQ(verify_spec(d.nest, d.spec).errors(), 0u);
  CompiledProgram prog = compile(d.nest, d.spec);
  Env sizes{{"n", Rational(2)}, {"m", Rational(2)}};
  VerifyReport rep = verify_design(prog, d.nest, sizes);
  EXPECT_TRUE(has_rule(rep, "flow.loading-cover")) << rep.to_string();
}

TEST(VerifyBroken, RunGateProvesTheLoadingCover) {
  // The run gate proves what verify proves: a loading-cover failure stops
  // the run before anything is spawned, with the finding in its
  // diagnostic (a run would return wrong values).
  Design d = broken_design("loading_cover");
  CompiledProgram prog = compile(d.nest, d.spec);
  Env sizes{{"n", Rational(3)}, {"m", Rational(3)}};
  IndexedStore store = make_seeded_store(d.nest, sizes);
  InstantiateOptions opt;
  opt.verify_plan = true;
  try {
    (void)execute(prog, d.nest, sizes, store, opt);
    ADD_FAILURE() << "the gate let a loading-cover failure run";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Validation) << e.what();
    EXPECT_NE(e.diagnostic().find("\"rule\":\"flow.loading-cover\""),
              std::string::npos)
        << e.diagnostic();
  }
}

TEST(VerifyBroken, ExpansionFailureIsAPlanError) {
  // This fuzz reproducer compiles, but its plan does not expand at n = 3
  // (a pipe count evaluates to a non-integer): the pipeline names the
  // stage that failed.
  Design d = design_file("fuzz-corpus", "s41_i0021");
  VerifyReport rep =
      verify_design(d.nest, d.spec, {{"n", Rational(3)}, {"m", Rational(3)}});
  EXPECT_TRUE(has_rule(rep, "plan.error")) << rep.to_string();
  EXPECT_FALSE(has_rule(rep, "compile.error")) << rep.to_string();
}

TEST(VerifyBroken, LoadingCoverAcceptsExactCover) {
  // The same check passes every shipped design: stationary streams whose
  // boxes are exactly the image (matmul1's c, convolution's y, ...).
  for (const Design& d : all_designs()) {
    CompiledProgram prog = compile(d.nest, d.spec);
    Env sizes{{"n", Rational(3)}, {"m", Rational(2)}};
    VerifyReport rep;
    verify_loading_cover_into(rep, prog, d.nest, sizes);
    EXPECT_EQ(rep.errors(), 0u) << d.nest.name() << "\n" << rep.to_string();
  }
}

TEST(VerifyBroken, HandBuiltNonInjectiveSpec) {
  Design d = design_by_name("polyprod1");
  // place (i) with step i: step vanishes on null.place = (0, 1).
  ArraySpec spec(StepFunction(IntVec{1, 0}),
                 PlaceFunction(IntMatrix{{1, 0}}),
                 {{"a", IntVec{1}}});
  VerifyReport rep = verify_spec(d.nest, spec);
  EXPECT_TRUE(has_rule(rep, "schedule.injectivity")) << rep.to_string();
}

TEST(VerifyBroken, ReversedFlowDirectionIsInconsistent) {
  Design d = design_by_name("polyprod2");
  CompiledProgram prog = compile(d.nest, d.spec);
  // Corrupt one moving stream's recorded motion: reverse it, as a buggy
  // compiler pass emitting elements against the dependences would.
  bool reversed = false;
  for (StreamPlan& sp : prog.streams) {
    if (sp.motion.stationary) continue;
    sp.motion.flow = -sp.motion.flow;
    sp.motion.direction = -sp.motion.direction;
    reversed = true;
    break;
  }
  ASSERT_TRUE(reversed);
  VerifyReport rep = verify_program(prog, d.nest);
  EXPECT_TRUE(has_rule(rep, "flow.consistency")) << rep.to_string();
  bool mentions_reversal = false;
  for (const Finding& f : rep.findings) {
    if (f.rule == "flow.consistency" &&
        f.message.find("reversed") != std::string::npos) {
      mentions_reversal = true;
    }
  }
  EXPECT_TRUE(mentions_reversal) << rep.to_string();
}

TEST(VerifyBroken, OverlappingClausesWithDifferentValues) {
  Design d = design_by_name("polyprod1");
  CompiledProgram prog = compile(d.nest, d.spec);
  // An always-true clause with a fresh value overlaps every feasible
  // clause of the repeater count and disagrees with it somewhere.
  prog.repeater.count.add(Guard::always(), AffineExpr(123456));
  VerifyReport rep = verify_program(prog, d.nest);
  EXPECT_TRUE(has_rule(rep, "guard.overlap")) << rep.to_string();
}

TEST(VerifyBroken, DuplicatedClauseIsABenignOverlap) {
  Design d = design_by_name("polyprod1");
  CompiledProgram prog = compile(d.nest, d.spec);
  ASSERT_FALSE(prog.repeater.count.pieces().empty());
  const auto& first = prog.repeater.count.pieces().front();
  prog.repeater.count.add(first.guard, first.value);
  VerifyReport rep = verify_program(prog, d.nest);
  EXPECT_FALSE(has_rule(rep, "guard.overlap")) << rep.to_string();
  EXPECT_TRUE(has_rule(rep, "guard.overlap-benign", Severity::Info))
      << rep.to_string();
  EXPECT_EQ(rep.errors(), 0u) << rep.to_string();
}

TEST(VerifyBroken, InfeasibleClauseIsADeadClauseWarning) {
  Design d = design_by_name("polyprod1");
  CompiledProgram prog = compile(d.nest, d.spec);
  Guard never;
  never.add(Constraint{AffineExpr(1), AffineExpr(0)});  // 1 <= 0
  prog.repeater.count.add(never, AffineExpr(7));
  VerifyReport rep = verify_program(prog, d.nest);
  EXPECT_TRUE(has_rule(rep, "guard.dead-clause", Severity::Warning))
      << rep.to_string();
  EXPECT_EQ(rep.errors(), 0u) << rep.to_string();
}

TEST(VerifyBroken, AllowDowngradesExactRulesAndCategories) {
  Design d = broken_design("wide_flow");
  VerifyReport rep = verify_spec(d.nest, d.spec);
  ASSERT_GE(rep.errors(), 1u);
  const std::size_t before = rep.errors();
  rep.allow("flow");  // whole category: downgrades flow.neighbour only
  EXPECT_EQ(rep.errors(), before - 1) << rep.to_string();
  EXPECT_TRUE(has_rule(rep, "flow.neighbour", Severity::Info))
      << rep.to_string();
  // Unrelated categories keep their severity.
  EXPECT_TRUE(has_rule(rep, "schedule.dependence-order", Severity::Error))
      << rep.to_string();
  rep.allow("schedule.dependence-order");  // exact rule id
  EXPECT_EQ(rep.errors(), 0u) << rep.to_string();
}

}  // namespace
}  // namespace systolize

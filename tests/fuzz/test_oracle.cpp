// Oracle invariants: verdict determinism, catalog designs pass the full
// backend matrix, known-broken fixtures are rejected consistently, and
// every mutation kind lands on a reject (never a disagreement).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "designs/catalog.hpp"
#include "frontend/parser.hpp"
#include "fuzz/fuzz.hpp"

namespace systolize::fuzz {
namespace {

OracleOptions quick_oracle() {
  OracleOptions options;
  options.batch = 2;
  return options;
}

Env small_sizes(const LoopNest& nest) {
  Env env;
  for (const Symbol& s : nest.sizes()) env[s.name()] = Rational(2);
  return env;
}

TEST(FuzzOracle, CatalogDesignsPass) {
  for (const Design& design : all_designs()) {
    const OracleResult verdict =
        run_oracle(design, small_sizes(design.nest), quick_oracle());
    EXPECT_EQ(verdict.outcome, Outcome::Pass)
        << design.description << ": " << outcome_name(verdict.outcome)
        << " — " << verdict.detail;
  }
}

TEST(FuzzOracle, BrokenFixturesRejectConsistently) {
  const char* files[] = {"step_on_nullplace.sa", "dependence_clash.sa"};
  for (const char* file : files) {
    std::ifstream in(std::string(SYSTOLIZE_DESIGN_DIR) + "/broken/" + file);
    ASSERT_TRUE(in.good()) << file;
    std::ostringstream text;
    text << in.rdbuf();
    const Design design = frontend::parse_design(text.str());
    const OracleResult verdict =
        run_oracle(design, small_sizes(design.nest), quick_oracle());
    EXPECT_TRUE(verdict.outcome == Outcome::StaticReject ||
                verdict.outcome == Outcome::SourceReject)
        << file << ": " << outcome_name(verdict.outcome) << " — "
        << verdict.detail;
    EXPECT_FALSE(is_disagreement(verdict.outcome)) << file;
  }
}

TEST(FuzzOracle, VerdictsAreDeterministic) {
  GeneratorOptions gen;
  const OracleOptions oracle = quick_oracle();
  for (std::size_t i = 0; i < 10; ++i) {
    const FuzzSample s = generate_sample(5, i, gen);
    const OracleResult a = classify(s, oracle);
    const OracleResult b = classify(s, oracle);
    EXPECT_EQ(a.outcome, b.outcome) << to_sa(s);
    EXPECT_EQ(a.rules, b.rules) << to_sa(s);
  }
}

TEST(FuzzOracle, EveryMutationKindRejectsWithoutDisagreement) {
  GeneratorOptions gen;
  gen.mutate_percent = 100;
  const OracleOptions oracle = quick_oracle();
  std::map<std::string, Outcome> seen;
  for (std::size_t i = 0; i < 60 && seen.size() < 4; ++i) {
    const FuzzSample s = generate_sample(23, i, gen);
    if (s.mutation.empty()) continue;
    if (seen.contains(s.mutation)) continue;
    const OracleResult verdict = classify(s, oracle);
    EXPECT_FALSE(is_disagreement(verdict.outcome))
        << s.mutation << ": " << verdict.detail << "\n" << to_sa(s);
    EXPECT_NE(verdict.outcome, Outcome::Pass)
        << s.mutation << "\n" << to_sa(s);
    seen[s.mutation] = verdict.outcome;
  }
  // All four seeded-breakage kinds must occur within 60 samples.
  EXPECT_EQ(seen.size(), 4u);
}

TEST(FuzzOracle, NoDesignWhenSpecAbsent) {
  GeneratorOptions gen;
  for (std::size_t i = 0; i < 40; ++i) {
    FuzzSample s = generate_sample(29, i, gen);
    if (!s.spec.present) {
      const OracleResult verdict = classify(s, quick_oracle());
      EXPECT_EQ(verdict.outcome, Outcome::NoDesign);
      return;
    }
  }
  GTEST_SKIP() << "no spec-less sample in 40 draws";
}

}  // namespace
}  // namespace systolize::fuzz

// Shrinker invariants: the reduced sample still reproduces the original
// verdict, shrinking is deterministic, and seeded breakages reduce to
// small reproducers.
#include <gtest/gtest.h>

#include <sstream>

#include "fuzz/fuzz.hpp"

namespace systolize::fuzz {
namespace {

OracleOptions quick_oracle() {
  OracleOptions options;
  options.batch = 2;
  return options;
}

/// First mutated sample of the given kind under the seed.
FuzzSample mutated_sample(std::uint64_t seed, const std::string& kind) {
  GeneratorOptions gen;
  gen.mutate_percent = 100;
  for (std::size_t i = 0; i < 200; ++i) {
    FuzzSample s = generate_sample(seed, i, gen);
    if (s.mutation == kind) return s;
  }
  ADD_FAILURE() << "no '" << kind << "' sample in 200 draws";
  return generate_sample(seed, 0, gen);
}

std::size_t line_count(const std::string& text) {
  std::size_t lines = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') ++lines;
  }
  return lines;
}

TEST(FuzzShrink, PreservesVerdictOutcome) {
  const OracleOptions oracle = quick_oracle();
  const FuzzSample s = mutated_sample(31, "step-on-nullplace");
  const OracleResult before = classify(s, oracle);
  ASSERT_NE(before.outcome, Outcome::Pass);
  const ShrinkResult reduced =
      shrink(s, oracle, [&](const OracleResult& candidate) {
        return candidate.outcome == before.outcome;
      });
  const OracleResult after = classify(reduced.sample, oracle);
  EXPECT_EQ(after.outcome, before.outcome);
}

TEST(FuzzShrink, IsDeterministic) {
  const OracleOptions oracle = quick_oracle();
  const FuzzSample s = mutated_sample(37, "dependence-clash");
  const OracleResult want = classify(s, oracle);
  auto keep = [&](const OracleResult& candidate) {
    return candidate.outcome == want.outcome;
  };
  const ShrinkResult a = shrink(s, oracle, keep);
  const ShrinkResult b = shrink(s, oracle, keep);
  EXPECT_EQ(to_sa(a.sample), to_sa(b.sample));
  EXPECT_EQ(a.steps, b.steps);
}

TEST(FuzzShrink, SeededBreakageShrinksToTenLinesOrFewer) {
  // Acceptance bar from the issue: an intentionally-broken design must
  // reduce to a <=10-line reproducer (comments excluded).
  const OracleOptions oracle = quick_oracle();
  const FuzzSample s = mutated_sample(41, "step-on-nullplace");
  const OracleResult before = classify(s, oracle);
  ASSERT_NE(before.outcome, Outcome::Pass);
  const ShrinkResult reduced =
      shrink(s, oracle, [&](const OracleResult& candidate) {
        return candidate.outcome == before.outcome;
      });
  EXPECT_LE(line_count(to_sa(reduced.sample)), 10u)
      << to_sa(reduced.sample);
}

TEST(FuzzShrink, ShrunkProbeSizesAreMinimal) {
  const OracleOptions oracle = quick_oracle();
  const FuzzSample s = mutated_sample(43, "drop-loading");
  const OracleResult before = classify(s, oracle);
  ASSERT_NE(before.outcome, Outcome::Pass);
  const ShrinkResult reduced =
      shrink(s, oracle, [&](const OracleResult& candidate) {
        return candidate.outcome == before.outcome;
      });
  // Static rejects do not depend on the probe point, so every size must
  // have been walked down to 1.
  for (const auto& [sym, value] : reduced.sample.probe) {
    EXPECT_EQ(value, 1) << sym;
  }
}

}  // namespace
}  // namespace systolize::fuzz

// Graceful degradation: pressure escalates, success recovers, the plan
// cache budget follows the level.
#include "service/degradation.hpp"

#include <gtest/gtest.h>

namespace systolize::service {
namespace {

DegradationConfig small_config() {
  DegradationConfig cfg;
  cfg.cache_budget = 1 << 20;
  cfg.reduced_cache_budget = 1 << 10;
  cfg.recovery_successes = 3;
  return cfg;
}

TEST(Degradation, PressureEscalatesAndShrinksTheCache) {
  PlanCache cache(1 << 20);
  Degradation d(small_config(), cache);
  EXPECT_EQ(d.level(), DegradeLevel::Normal);

  d.on_pressure();
  EXPECT_EQ(d.level(), DegradeLevel::ReducedCache);
  EXPECT_EQ(cache.byte_budget(), std::size_t{1} << 10);

  d.on_pressure();  // already at the floor: stays there
  EXPECT_EQ(d.level(), DegradeLevel::ReducedCache);
  EXPECT_EQ(d.escalations(), 1u);
}

TEST(Degradation, ConsecutiveSuccessesStepBackOneLevelAtATime) {
  PlanCache cache(1 << 20);
  Degradation d(small_config(), cache);
  d.on_pressure();
  ASSERT_EQ(d.level(), DegradeLevel::ReducedCache);

  d.on_success();
  d.on_success();
  EXPECT_EQ(d.level(), DegradeLevel::ReducedCache);  // 2 < 3, not yet
  EXPECT_EQ(cache.byte_budget(), std::size_t{1} << 10);  // still reduced
  d.on_success();
  EXPECT_EQ(d.level(), DegradeLevel::Normal);
  EXPECT_EQ(cache.byte_budget(), std::size_t{1} << 20);  // budget restored
  EXPECT_EQ(d.recoveries(), 1u);

  for (int i = 0; i < 3; ++i) d.on_success();  // Normal is the floor
  EXPECT_EQ(d.level(), DegradeLevel::Normal);
  EXPECT_EQ(d.recoveries(), 1u);
}

TEST(Degradation, PressureResetsTheRecoveryCount) {
  PlanCache cache(1 << 20);
  Degradation d(small_config(), cache);
  d.on_pressure();
  d.on_success();
  d.on_success();
  d.on_pressure();  // a new spike voids the progress
  EXPECT_EQ(d.level(), DegradeLevel::ReducedCache);
  d.on_success();
  d.on_success();
  EXPECT_EQ(d.level(), DegradeLevel::ReducedCache);  // counter restarted
  d.on_success();
  EXPECT_EQ(d.level(), DegradeLevel::Normal);
}

TEST(Degradation, JsonSnapshotNamesTheLevel) {
  PlanCache cache(1 << 20);
  Degradation d(small_config(), cache);
  EXPECT_NE(d.to_json().find("\"level\":\"Normal\""), std::string::npos);
  d.on_pressure();
  EXPECT_NE(d.to_json().find("\"level\":\"ReducedCache\""),
            std::string::npos);
}

}  // namespace
}  // namespace systolize::service

// Table II / §XI experiment-module tests.
#include <gtest/gtest.h>

#include "experiments/resources_experiment.hpp"

namespace p4auth::experiments {
namespace {

TEST(ResourcesExperiment, TwoRowsMatchingTableII) {
  const auto rows = run_resources_experiment();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].program, "Baseline");
  EXPECT_EQ(rows[1].program, "With P4Auth");

  // Paper Table II, with model tolerance.
  EXPECT_NEAR(rows[0].usage.tcam_pct, 8.3, 0.5);
  EXPECT_NEAR(rows[0].usage.sram_pct, 2.5, 0.5);
  EXPECT_NEAR(rows[0].usage.phv_pct, 11.0, 1.0);
  EXPECT_NEAR(rows[1].usage.tcam_pct, 8.3, 0.5);
  EXPECT_NEAR(rows[1].usage.sram_pct, 3.6, 0.7);
  EXPECT_NEAR(rows[1].usage.hash_pct, 51.4, 6.0);
  EXPECT_NEAR(rows[1].usage.phv_pct, 23.1, 1.5);
}

TEST(ResourcesExperiment, AbsoluteCountsArePinned) {
  // The exact blocks/units/bits behind Table II, so a change to how a
  // program declares itself cannot move the table within tolerance.
  const auto rows = run_resources_experiment();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].usage.tcam_blocks, 24);
  EXPECT_EQ(rows[0].usage.sram_blocks, 24);
  EXPECT_EQ(rows[0].usage.hash_units, 1);
  EXPECT_EQ(rows[0].usage.phv_bits, 450);
  EXPECT_EQ(rows[1].usage.tcam_blocks, 24);
  EXPECT_EQ(rows[1].usage.sram_blocks, 37);
  EXPECT_EQ(rows[1].usage.hash_units, 38);
  EXPECT_EQ(rows[1].usage.phv_bits, 946);
}

TEST(ResourcesExperiment, P4AuthNeverAddsTcam) {
  const auto rows = run_resources_experiment();
  EXPECT_EQ(rows[0].usage.tcam_blocks, rows[1].usage.tcam_blocks);
}

TEST(DigestAblation, MatchesPaperQuotes) {
  const auto points = run_digest_ablation();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points.front().digest_bits, 32);
  EXPECT_EQ(points.back().digest_bits, 256);
  // §XI: ~560% more hash units and ~100% more stages at 256 bit.
  EXPECT_NEAR(points.back().hash_unit_growth_pct, 560.0, 40.0);
  EXPECT_NEAR(points.back().stage_growth_pct, 100.0, 1.0);
  // Monotone growth across the sweep.
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].hash_units, points[i - 1].hash_units);
    EXPECT_GE(points[i].stages, points[i - 1].stages);
  }
}

}  // namespace
}  // namespace p4auth::experiments

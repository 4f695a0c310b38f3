// Table I shape guards: for every victim system class, the attack hurts
// the baseline metric, P4Auth restores it, and only P4Auth detects the
// attack. One exact pin holds every row's numbers to the last bit.
#include <gtest/gtest.h>

#include <iterator>

#include "experiments/table1_experiment.hpp"

namespace p4auth::experiments {
namespace {

class Table1 : public ::testing::Test {
 protected:
  static const std::vector<Table1Row>& rows() {
    static const std::vector<Table1Row> r = run_table1_experiment(/*seed=*/1);
    return r;
  }
  static const Table1Row& row(const std::string& prefix) {
    for (const auto& r : rows()) {
      if (r.system.rfind(prefix, 0) == 0) return r;
    }
    throw std::runtime_error("row not found: " + prefix);
  }
};

TEST_F(Table1, HasAllSystemClasses) {
  ASSERT_EQ(rows().size(), 6u);  // FRR x2 (RouteScout, Blink) + 4 others
}

TEST_F(Table1, BlinkAttackHijacksNextHopAndP4AuthRestores) {
  const auto& r = row("FRR (Blink)");
  EXPECT_GT(r.baseline, 95.0);
  EXPECT_LT(r.attacked, 5.0);   // hijacked to the attacker's port
  EXPECT_GT(r.with_p4auth, 95.0);
  EXPECT_FALSE(r.detected_without);
  EXPECT_TRUE(r.detected_with);
}

TEST_F(Table1, FrrAttackDivertsAndP4AuthRestores) {
  const auto& r = row("FRR");
  EXPECT_GT(r.attacked, r.baseline + 15.0);           // traffic diverted
  EXPECT_NEAR(r.with_p4auth, r.baseline, 12.0);       // split retained
  EXPECT_FALSE(r.detected_without);
  EXPECT_TRUE(r.detected_with);
}

TEST_F(Table1, LbAttackStrandsConnectionsAndP4AuthRestores) {
  const auto& r = row("LB");
  EXPECT_LT(r.baseline, 5.0);        // new conns use the new pool
  EXPECT_GT(r.attacked, 90.0);       // stranded on the draining pool
  EXPECT_LT(r.with_p4auth, 5.0);
  EXPECT_FALSE(r.detected_without);
  EXPECT_TRUE(r.detected_with);
}

TEST_F(Table1, IdsAttackEvadesAndP4AuthRestoresDetection) {
  const auto& r = row("IDS");
  EXPECT_EQ(r.baseline, 1.0);     // covert flow blocked
  EXPECT_EQ(r.attacked, 0.0);     // evasion
  EXPECT_EQ(r.with_p4auth, 1.0);  // blocked again
  EXPECT_FALSE(r.detected_without);
  EXPECT_TRUE(r.detected_with);
}

TEST_F(Table1, CacheAttackInflatesRetrievalTime) {
  const auto& r = row("Cache");
  EXPECT_LT(r.baseline, 100.0);            // mostly hits
  EXPECT_GT(r.attacked, 2.0 * r.baseline); // Table I: inflated retrieval time
  EXPECT_NEAR(r.with_p4auth, r.baseline, 30.0);
  EXPECT_TRUE(r.detected_with);
}

TEST_F(Table1, MeasurementAttackPoisonsDecode) {
  const auto& r = row("Measurement");
  EXPECT_GT(r.baseline, 95.0);            // clean decode
  EXPECT_LT(r.attacked, r.baseline - 10.0);  // poisoned counts
  EXPECT_GT(r.with_p4auth, 95.0);
  EXPECT_TRUE(r.detected_with);
}

TEST_F(Table1, RowsMatchParentExactly) {
  // Seed 1, recorded before the controller-side apps shared one register-op
  // fan-out: that refactor must not move a single bit of Table I.
  struct Expected {
    const char* system;
    double baseline, attacked, with_p4auth;
    bool detected_without, detected_with;
  };
  const Expected expected[] = {
      {"FRR (RouteScout)", 0x1.c9cd4e445e075p+3, 0x1.2b20e22df4dc5p+6, 0x1.c7b450e2c424ep+3,
       false, true},
      {"FRR (Blink)", 0x1.9p+6, 0x0p+0, 0x1.9p+6, false, true},
      {"LB (SilkRoad)", 0x0p+0, 0x1.9p+6, 0x0p+0, false, true},
      {"IDS/IPS (Netwarden)", 0x1p+0, 0x0p+0, 0x1p+0, false, true},
      {"Cache (NetCache)", 0x1.43eb851eb851fp+5, 0x1.9p+7, 0x1.43eb851eb851fp+5, false, true},
      {"Measurement (FlowRadar)", 0x1.9p+6, 0x1.ep+5, 0x1.9p+6, false, true},
  };
  ASSERT_EQ(rows().size(), std::size(expected));
  for (std::size_t i = 0; i < rows().size(); ++i) {
    const Table1Row& r = rows()[i];
    const Expected& e = expected[i];
    SCOPED_TRACE(e.system);
    EXPECT_EQ(r.system, e.system);
    EXPECT_EQ(r.baseline, e.baseline);
    EXPECT_EQ(r.attacked, e.attacked);
    EXPECT_EQ(r.with_p4auth, e.with_p4auth);
    EXPECT_EQ(r.detected_without, e.detected_without);
    EXPECT_EQ(r.detected_with, e.detected_with);
  }
}

}  // namespace
}  // namespace p4auth::experiments

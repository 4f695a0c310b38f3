// NetCache control loop over the full stack: the controller reads key
// popularity from the sketch through authenticated C-DP messages, picks
// the hottest candidate, and installs it into the cache.
#include <gtest/gtest.h>

#include "apps/netcache/netcache.hpp"
#include "experiments/fabric.hpp"

namespace p4auth::experiments {
namespace {

namespace nc = apps::netcache;
constexpr NodeId kSw{1};

struct NetCacheStack : ::testing::Test {
  void SetUp() override {
    fabric = std::make_unique<Fabric>(Fabric::Options{});
    sw = &fabric->add_switch(kSw, [&](dataplane::RegisterFile& registers) {
      auto p = std::make_unique<nc::NetCacheProgram>(nc::NetCacheProgram::Config{}, registers);
      program = p.get();
      return p;
    });
    ASSERT_TRUE(program->expose_to(*sw->agent).ok());
    ASSERT_TRUE(fabric->init_all_keys().ok());
  }

  void query(std::uint32_t key, int times) {
    for (int i = 0; i < times; ++i) {
      fabric->net.inject(kSw, PortId{9}, nc::encode_query({key}),
                         SimTime::from_us(static_cast<std::uint64_t>(7 * i)));
    }
    fabric->sim.run();
  }

  std::unique_ptr<Fabric> fabric;
  FabricSwitch* sw = nullptr;
  nc::NetCacheProgram* program = nullptr;
};

TEST_F(NetCacheStack, EstimateMatchesDataPlaneSketch) {
  query(0xAAAA, 9);
  query(0xBBBB, 2);
  nc::NetCacheManager manager(fabric->controller, kSw);
  std::optional<Result<std::uint64_t>> estimate;
  manager.estimate_key(0xAAAA, [&](auto r) { estimate = std::move(r); });
  fabric->sim.run();
  ASSERT_TRUE(estimate.has_value() && estimate->ok());
  EXPECT_EQ(estimate->value(), program->estimate(0xAAAA));
  EXPECT_GE(estimate->value(), 9u);
}

TEST_F(NetCacheStack, InstallHottestPicksThePopularKey) {
  query(0xAAAA, 12);
  query(0xBBBB, 3);
  query(0xCCCC, 6);

  nc::NetCacheManager manager(fabric->controller, kSw);
  std::optional<Result<std::uint32_t>> installed;
  manager.install_hottest({0xAAAA, 0xBBBB, 0xCCCC}, /*slot=*/0, /*value=*/777,
                          [&](auto r) { installed = std::move(r); });
  fabric->sim.run();
  ASSERT_TRUE(installed.has_value());
  ASSERT_TRUE(installed->ok());
  EXPECT_EQ(installed->value(), 0xAAAAu);

  // Subsequent hot-key queries hit the cache.
  const auto hits_before = program->stats().hits;
  query(0xAAAA, 5);
  EXPECT_EQ(program->stats().hits - hits_before, 5u);
}

TEST_F(NetCacheStack, ClearSketchResetsPopularity) {
  query(0xAAAA, 9);
  nc::NetCacheManager manager(fabric->controller, kSw);
  std::optional<Status> cleared;
  manager.clear_sketch(64 * 4, [&](Status s) { cleared = std::move(s); });
  fabric->sim.run();
  ASSERT_TRUE(cleared.has_value() && cleared->ok());
  EXPECT_EQ(program->estimate(0xAAAA), 0u);
}

TEST_F(NetCacheStack, InstallHottestBreaksTiesTowardTheLaterCandidate) {
  // An empty sketch estimates every key at 0: the argmax runs with >= in
  // candidate order, so the last candidate wins.
  nc::NetCacheManager manager(fabric->controller, kSw);
  std::optional<Result<std::uint32_t>> installed;
  manager.install_hottest({0xAAAA, 0xBBBB, 0xCCCC}, /*slot=*/0, /*value=*/1,
                          [&](auto r) { installed = std::move(r); });
  fabric->sim.run();
  ASSERT_TRUE(installed.has_value() && installed->ok());
  EXPECT_EQ(installed->value(), 0xCCCCu);
}

TEST_F(NetCacheStack, ClearingZeroEntriesCompletesAtOnce) {
  nc::NetCacheManager manager(fabric->controller, kSw);
  std::optional<Status> cleared;
  manager.clear_sketch(0, [&](Status s) { cleared = std::move(s); });
  ASSERT_TRUE(cleared.has_value());
  EXPECT_TRUE(cleared->ok());
  EXPECT_TRUE(fabric->sim.empty());
}

TEST_F(NetCacheStack, EmptyCandidateListFails) {
  nc::NetCacheManager manager(fabric->controller, kSw);
  std::optional<Result<std::uint32_t>> installed;
  manager.install_hottest({}, 0, 1, [&](auto r) { installed = std::move(r); });
  ASSERT_TRUE(installed.has_value());
  EXPECT_FALSE(installed->ok());
}

}  // namespace
}  // namespace p4auth::experiments

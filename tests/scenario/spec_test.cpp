// ScenarioSpec: deterministic generation, validity by construction, and
// JSON round-trips (spec_json -> parse_spec is the --repro input path).
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "scenario/apps.hpp"
#include "scenario/json_in.hpp"

namespace p4auth::scenario {
namespace {

TEST(ScenarioSpec, GenerationIsDeterministic) {
  for (std::uint32_t index = 0; index < 64; ++index) {
    EXPECT_EQ(generate_spec(42, index), generate_spec(42, index));
  }
}

TEST(ScenarioSpec, DistinctSeedsAndIndicesDiverge) {
  // Not a randomness proof — just a tripwire against the derivation
  // collapsing (e.g. ignoring the index or the campaign seed).
  EXPECT_NE(generate_spec(1, 0).seed, generate_spec(1, 1).seed);
  EXPECT_NE(generate_spec(1, 0).seed, generate_spec(2, 0).seed);
}

TEST(ScenarioSpec, GeneratedSpecsAreValidByConstruction) {
  for (std::uint64_t seed : {1ull, 7ull, 0xDEADBEEFull}) {
    for (std::uint32_t index = 0; index < 300; ++index) {
      const ScenarioSpec spec = generate_spec(seed, index);
      EXPECT_TRUE(spec_valid(spec)) << spec_json(spec);
      EXPECT_EQ(spec.index, index);
      EXPECT_NE(spec.seed, 0u);
    }
  }
}

TEST(ScenarioSpec, GeneratorCoversEveryAttackKind) {
  bool seen[8] = {};
  for (std::uint32_t index = 0; index < 300; ++index) {
    seen[static_cast<int>(generate_spec(5, index).attack)] = true;
  }
  for (int kind = 0; kind < 8; ++kind) {
    EXPECT_TRUE(seen[kind]) << "attack kind " << kind << " never generated";
  }
}

TEST(ScenarioSpec, NamesRoundTrip) {
  for (int i = 0; i < 3; ++i) {
    const auto app = static_cast<AppKind>(i);
    EXPECT_EQ(app_from_name(app_name(app)).value(), app);
  }
  for (int i = 0; i < 3; ++i) {
    const auto shape = static_cast<TopologyShape>(i);
    EXPECT_EQ(topology_from_name(topology_name(shape)).value(), shape);
  }
  for (int i = 0; i < 8; ++i) {
    const auto attack = static_cast<AttackKind>(i);
    EXPECT_EQ(attack_from_name(attack_name(attack)).value(), attack);
  }
  for (int i = 0; i < 4; ++i) {
    const auto phase = static_cast<RotationPhase>(i);
    EXPECT_EQ(rotation_from_name(rotation_name(phase)).value(), phase);
  }
  EXPECT_FALSE(attack_from_name("nosuch").ok());
}

TEST(ScenarioSpec, JsonRoundTripsGeneratedSpecs) {
  for (std::uint32_t index = 0; index < 100; ++index) {
    const ScenarioSpec spec = generate_spec(9, index);
    const auto parsed = parse_spec(spec_json(spec));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed.value(), spec);
  }
}

TEST(ScenarioSpec, JsonRoundTripsClaimBenign) {
  ScenarioSpec spec = generate_spec(9, 3);
  spec.claim_benign = true;
  const auto parsed = parse_spec(spec_json(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_TRUE(parsed.value().claim_benign);
  EXPECT_EQ(parsed.value(), spec);
}

TEST(ScenarioSpec, ParseAcceptsCorpusEntryShape) {
  const ScenarioSpec spec = generate_spec(11, 0);
  const std::string entry = "{\"schema\":\"p4auth.fuzz.v1\",\"campaign_seed\":11,\"spec\":" +
                            spec_json(spec) + ",\"pass\":false,\"violations\":[]}";
  const auto parsed = parse_spec(entry);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value(), spec);
}

TEST(ScenarioSpec, ParseRejectsUnknownFields) {
  EXPECT_FALSE(parse_spec("{\"app\":\"blink\",\"frobnicate\":1}").ok());
}

TEST(ScenarioSpec, ParseRejectsInvalidCombination) {
  // link_mitm requires blink on a line topology.
  EXPECT_FALSE(parse_spec("{\"attack\":\"link_mitm\",\"app\":\"l3fwd\","
                          "\"attack_count\":1}")
                   .ok());
  // extra switches on a single-switch topology.
  EXPECT_FALSE(parse_spec("{\"topology\":\"single\",\"extra_switches\":2}").ok());
}

TEST(ScenarioSpec, AttacksRunOnTheRowsWithWhatTheyNeed) {
  // The compatibility matrix, derived from the app table: LinkMitm needs
  // feedback to corrupt, the implants an installed register.
  const auto apps = [](AttackKind attack) {
    const AppChoice choice = apps_for(attack);
    return std::vector<AppKind>(choice.apps, choice.apps + choice.size);
  };
  const std::vector<AppKind> all = {AppKind::L3Fwd, AppKind::Blink, AppKind::NetCache};
  EXPECT_EQ(apps(AttackKind::LinkMitm), std::vector<AppKind>{AppKind::Blink});
  EXPECT_EQ(apps(AttackKind::CpWriteTamper),
            (std::vector<AppKind>{AppKind::Blink, AppKind::NetCache}));
  EXPECT_EQ(apps(AttackKind::ReportInflate),
            (std::vector<AppKind>{AppKind::Blink, AppKind::NetCache}));
  for (AttackKind attack : {AttackKind::None, AttackKind::TablePoison, AttackKind::KmpFlood,
                            AttackKind::AlertFlood, AttackKind::RegisterExhaust}) {
    EXPECT_EQ(apps(attack), all) << attack_name(attack);
  }
}

TEST(ScenarioSpec, ValidityIsMembershipInTheHostingRows) {
  for (int a = 0; a < 8; ++a) {
    const auto attack = static_cast<AttackKind>(a);
    const AppChoice choice = apps_for(attack);
    for (int i = 0; i < static_cast<int>(kAppCount); ++i) {
      ScenarioSpec spec;
      spec.app = static_cast<AppKind>(i);
      spec.attack = attack;
      spec.attack_count = attack == AttackKind::None ? 0 : 1;
      spec.topology = TopologyShape::Line;
      spec.extra_switches = 1;
      const bool listed =
          std::find(choice.apps, choice.apps + choice.size, spec.app) != choice.apps + choice.size;
      EXPECT_EQ(spec_valid(spec), listed) << spec_json(spec);
    }
  }
}

TEST(ScenarioSpec, LinkMitmNeedsALineAndEveryAttackAShot) {
  ScenarioSpec spec;
  spec.app = AppKind::Blink;
  spec.attack = AttackKind::LinkMitm;
  spec.attack_count = 2;
  spec.topology = TopologyShape::Star;
  spec.extra_switches = 1;
  EXPECT_FALSE(spec_valid(spec));
  spec.topology = TopologyShape::Line;
  EXPECT_TRUE(spec_valid(spec));
  // attack_count is 0 exactly when the attack is none.
  spec.attack_count = 0;
  EXPECT_FALSE(spec_valid(spec));
  spec.attack = AttackKind::None;
  EXPECT_TRUE(spec_valid(spec));
}

TEST(ScenarioSpec, ParseRejectsMalformedJson) {
  EXPECT_FALSE(parse_spec("{\"app\":").ok());
  EXPECT_FALSE(parse_spec("[1,2]").ok());
  EXPECT_FALSE(parse_spec("{\"seed\":-1}").ok());
  EXPECT_FALSE(parse_spec("{} trailing").ok());
}

}  // namespace
}  // namespace p4auth::scenario

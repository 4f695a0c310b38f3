#include "scenario/apps.hpp"

#include "apps/blink/blink.hpp"
#include "apps/l3fwd/l3fwd.hpp"
#include "apps/netcache/netcache.hpp"
#include "core/agent.hpp"
#include "experiments/fabric.hpp"

namespace p4auth::scenario {
namespace {

namespace bk = apps::blink;
namespace nc = apps::netcache;
namespace l3 = apps::l3fwd;
using dataplane::DataPlaneProgram;
using dataplane::RegisterFile;
using experiments::Fabric;

constexpr std::uint32_t kRoutePrefix = 0xC0A80000;  // 192.168/16
constexpr std::uint32_t kHotKey = 0xABCD;
constexpr std::uint64_t kHotValue = 777;

template <typename Program>
void expose(DataPlaneProgram& program, core::P4AuthAgent& agent) {
  (void)static_cast<Program&>(program).expose_to(agent);
}

// Indexed by AppKind.
constexpr AppRow kApps[kAppCount] = {
    {
        "l3fwd",
        [](RegisterFile& registers) -> std::unique_ptr<DataPlaneProgram> {
          return std::make_unique<l3::L3FwdProgram>(registers);
        },
        expose<l3::L3FwdProgram>,
        [](Fabric&, DataPlaneProgram& program) {
          return static_cast<l3::L3FwdProgram&>(program).add_route(kRoutePrefix, 16, PortId{1});
        },
        [](std::uint32_t i) { return l3::encode_ipv4({kRoutePrefix + 1 + i % 16, 100}); },
        [](const DataPlaneProgram& program) {
          return static_cast<const l3::L3FwdProgram&>(program).forwarded();
        },
        {l3::kStatsReg, 0, 0xDEADBEEFull},
        l3::kStatsReg,
        std::nullopt,
        std::nullopt,
    },
    {
        "blink",
        [](RegisterFile& registers) -> std::unique_ptr<DataPlaneProgram> {
          return std::make_unique<bk::BlinkProgram>(bk::BlinkProgram::Config{}, registers);
        },
        expose<bk::BlinkProgram>,
        [](Fabric& fabric, DataPlaneProgram&) {
          bk::BlinkManager manager(fabric.controller, kAppSwitch);
          // 5 attempts: a CpWriteTamper implant with 3 shots can spoil up
          // to three tries before it runs dry.
          return retry_sync(fabric, 5, [&](auto done) {
            manager.install_next_hops(1, {PortId{1}, PortId{2}, PortId{3}}, done);
          });
        },
        [](std::uint32_t i) { return bk::encode_packet({1, i, false}); },
        [](const DataPlaneProgram& program) {
          return static_cast<const bk::BlinkProgram&>(program).stats().forwarded;
        },
        // Prefix 1's slot 0 lives at index prefix * kNextHopSlots = 3; the
        // poison re-points it at attacker port 8 (stored +1).
        {bk::kNextHopsReg, 3, 9},
        bk::kRetxCntReg,
        RegisterCell{bk::kNextHopsReg, 3, 2},  // prefix 1 slot 0: port 1, +1
        bk::kPacketMagic,
    },
    {
        "netcache",
        [](RegisterFile& registers) -> std::unique_ptr<DataPlaneProgram> {
          return std::make_unique<nc::NetCacheProgram>(nc::NetCacheProgram::Config{}, registers);
        },
        expose<nc::NetCacheProgram>,
        [](Fabric& fabric, DataPlaneProgram&) {
          nc::NetCacheManager manager(fabric.controller, kAppSwitch);
          return retry_sync(fabric, 5, [&](auto done) {
            manager.install_hot_key(0, kHotKey, kHotValue, done);
          });
        },
        [](std::uint32_t i) { return nc::encode_query({i % 4 == 0 ? 1 + i : kHotKey}); },
        [](const DataPlaneProgram& program) {
          const auto& stats = static_cast<const nc::NetCacheProgram&>(program).stats();
          return stats.hits + stats.misses;
        },
        {nc::kCacheValReg, 0, 0xDEADull},
        nc::kCmsReg,
        RegisterCell{nc::kCacheValReg, 0, kHotValue},
        std::nullopt,
    },
};

}  // namespace

const AppRow& app_row(AppKind app) noexcept {
  const auto i = static_cast<std::size_t>(app);
  return kApps[i < kAppCount ? i : 0];
}

bool hosts(const AppRow& row, AttackKind attack) noexcept {
  switch (attack) {
    case AttackKind::LinkMitm:
      return row.feedback_magic.has_value();
    case AttackKind::CpWriteTamper:
    case AttackKind::ReportInflate:
      return row.installed.has_value();
    default:
      return true;
  }
}

AppChoice apps_for(AttackKind attack) noexcept {
  AppChoice choice;
  for (std::size_t i = 0; i < kAppCount; ++i) {
    if (hosts(kApps[i], attack)) choice.apps[choice.size++] = static_cast<AppKind>(i);
  }
  return choice;
}

}  // namespace p4auth::scenario

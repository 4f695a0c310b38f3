// SilkRoad-lite — stateful L4 load balancing (Miao et al., SIGCOMM'17;
// Table I's LB row).
//
// During a DIP-pool migration, new connections consult a transit bloom
// filter: while a VIP's bit is set, new connections still go to the old
// pool; once all pending connections are inserted into the connection
// table, the controller *clears* the filter so new connections use the
// new pool. Table I's attack: tampering with that C-DP clear message
// strands new connections on the old (draining) pool.
#pragma once

#include <functional>

#include "controller/controller.hpp"
#include "dataplane/program.hpp"

namespace p4auth::apps::silkroad {

inline constexpr std::uint8_t kConnMagic = 0x53;  // 'S'

inline constexpr RegisterId kTransitReg{5001};
inline constexpr RegisterId kDipsOldReg{5002};
inline constexpr RegisterId kDipsNewReg{5003};

struct ConnPacket {
  std::uint16_t vip = 0;
  std::uint64_t conn_id = 0;
};

Bytes encode_conn(const ConnPacket& packet);
Result<ConnPacket> decode_conn(std::span<const std::uint8_t> frame);

class SilkRoadProgram : public dataplane::DataPlaneProgram {
 public:
  struct Config {
    std::size_t max_vips = 16;
    std::size_t dips_per_pool = 4;
    std::size_t conn_slots = 1024;
    PortId out_port{1};
  };

  SilkRoadProgram(Config config, dataplane::RegisterFile& registers);

  dataplane::PipelineOutput process(dataplane::Packet& packet,
                                    dataplane::PipelineContext& ctx) override;
  dataplane::PipelineModel pipeline_model() const override;

  template <typename Agent>
  Status expose_to(Agent& agent) {
    if (auto s = agent.expose_register(kTransitReg, "slk_transit"); !s.ok()) return s;
    if (auto s = agent.expose_register(kDipsOldReg, "slk_dips_old"); !s.ok()) return s;
    return agent.expose_register(kDipsNewReg, "slk_dips_new");
  }

  struct Stats {
    std::uint64_t to_old_pool = 0;  ///< new connections landed on old DIPs
    std::uint64_t to_new_pool = 0;
    std::uint64_t pinned = 0;       ///< existing connections (table hit)
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  Config config_;
  dataplane::RegisterArray* transit_;   ///< per-VIP migration bit
  dataplane::RegisterArray* dips_old_;
  dataplane::RegisterArray* dips_new_;
  dataplane::RegisterArray* conn_dip_;  ///< connection table: conn -> dip+1
  Stats stats_;
};

/// Controller-side migration steps.
class SilkRoadManager {
 public:
  SilkRoadManager(controller::Controller& controller, NodeId sw)
      : controller_(controller), sw_(sw) {}

  /// Starts a migration for `vip`: sets the transit bit.
  void begin_migration(std::uint16_t vip, std::function<void(Status)> done);
  /// Finishes it: clears the transit bit (the attacked message).
  void finish_migration(std::uint16_t vip, std::function<void(Status)> done);

 private:
  controller::Controller& controller_;
  NodeId sw_;
};

}  // namespace p4auth::apps::silkroad

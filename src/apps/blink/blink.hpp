// Blink-lite — data-plane connectivity-failure recovery (Holterbach et
// al., NSDI'19; Table I's other FRR row).
//
// Blink infers remote outages from bursts of TCP retransmissions observed
// entirely in the data plane and fails over to a backup next hop without
// waiting for routing to converge. The controller maintains the
// per-prefix next-hop list in registers ("C updates per-prefix next hop
// list maintained in registers", Table I) — the message the attacker
// rewrites to poison rerouting.
#pragma once

#include <functional>
#include <vector>

#include "controller/controller.hpp"
#include "dataplane/program.hpp"

namespace p4auth::apps::blink {

inline constexpr std::uint8_t kPacketMagic = 0x42;  // 'B'

inline constexpr RegisterId kNextHopsReg{7001};   ///< flattened [prefix][slot]
inline constexpr RegisterId kActiveIdxReg{7002};  ///< active slot per prefix
inline constexpr RegisterId kRetxCntReg{7003};    ///< retransmission window count

struct BlinkPacket {
  std::uint16_t prefix = 0;
  std::uint64_t flow_id = 0;
  bool is_retransmission = false;
};

Bytes encode_packet(const BlinkPacket& packet);
Result<BlinkPacket> decode_packet(std::span<const std::uint8_t> frame);

class BlinkProgram : public dataplane::DataPlaneProgram {
 public:
  struct Config {
    std::size_t max_prefixes = 16;
    static constexpr std::size_t kNextHopSlots = 3;
    /// Retransmissions within the window that trigger failover.
    std::uint64_t retx_threshold = 8;
    SimTime retx_window = SimTime::from_ms(50);
  };

  BlinkProgram(Config config, dataplane::RegisterFile& registers);

  dataplane::PipelineOutput process(dataplane::Packet& packet,
                                    dataplane::PipelineContext& ctx) override;
  dataplane::PipelineModel pipeline_model() const override;

  template <typename Agent>
  Status expose_to(Agent& agent) {
    if (auto s = agent.expose_register(kNextHopsReg, "bk_nexthops"); !s.ok()) return s;
    if (auto s = agent.expose_register(kActiveIdxReg, "bk_active_idx"); !s.ok()) return s;
    return agent.expose_register(kRetxCntReg, "bk_retx_cnt");
  }

  struct Stats {
    std::uint64_t forwarded = 0;
    std::uint64_t dropped_no_hop = 0;
    std::uint64_t failovers = 0;
    /// Packets per egress port — the attack-impact metric.
    std::unordered_map<PortId, std::uint64_t> egress_packets;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  Config config_;
  dataplane::RegisterArray* next_hops_;   ///< port+1 per slot; 0 = empty
  dataplane::RegisterArray* active_idx_;
  dataplane::RegisterArray* retx_cnt_;
  dataplane::RegisterArray* retx_window_start_;
  Stats stats_;
};

/// Controller-side Blink logic: install the next-hop list for a prefix
/// (primary first, then backups) over authenticated writes.
class BlinkManager {
 public:
  BlinkManager(controller::Controller& controller, NodeId sw)
      : controller_(controller), sw_(sw) {}

  void install_next_hops(std::uint16_t prefix, const std::vector<PortId>& hops,
                         std::function<void(Status)> done);

 private:
  controller::Controller& controller_;
  NodeId sw_;
};

}  // namespace p4auth::apps::blink

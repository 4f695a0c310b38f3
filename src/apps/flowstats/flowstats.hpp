// Netwarden-lite — covert-timing-channel mitigation (Xing et al., USENIX
// Security'20; Table I's IDS/IPS row).
//
// The data plane tracks inter-packet delays (IPD) of flagged connections
// in registers; the controller reads the aggregates, classifies flows
// whose average IPD sits inside the covert-channel band, and writes a
// per-flow block bit back into the plane. Table I's attack: inflating the
// reported IPDs in the C-DP report evades detection.
#pragma once

#include <functional>
#include <vector>

#include "controller/controller.hpp"
#include "dataplane/program.hpp"

namespace p4auth::apps::flowstats {

inline constexpr std::uint8_t kPacketMagic = 0x46;  // 'F'

inline constexpr RegisterId kIpdSumReg{4001};
inline constexpr RegisterId kIpdCntReg{4002};
inline constexpr RegisterId kBlockedReg{4003};

struct FlowPacket {
  std::uint16_t flow = 0;  ///< flagged-connection index
  std::uint32_t size_bytes = 0;
};

Bytes encode_packet(const FlowPacket& packet);
Result<FlowPacket> decode_packet(std::span<const std::uint8_t> frame);

class FlowStatsProgram : public dataplane::DataPlaneProgram {
 public:
  struct Config {
    PortId out_port{1};
    std::size_t max_flows = 64;
  };

  FlowStatsProgram(Config config, dataplane::RegisterFile& registers);

  dataplane::PipelineOutput process(dataplane::Packet& packet,
                                    dataplane::PipelineContext& ctx) override;
  dataplane::PipelineModel pipeline_model() const override;

  template <typename Agent>
  Status expose_to(Agent& agent) {
    if (auto s = agent.expose_register(kIpdSumReg, "fs_ipd_sum"); !s.ok()) return s;
    if (auto s = agent.expose_register(kIpdCntReg, "fs_ipd_cnt"); !s.ok()) return s;
    return agent.expose_register(kBlockedReg, "fs_blocked");
  }

  struct Stats {
    std::uint64_t forwarded = 0;
    std::uint64_t blocked = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  Config config_;
  dataplane::RegisterArray* ipd_sum_;
  dataplane::RegisterArray* ipd_cnt_;
  dataplane::RegisterArray* last_ts_;
  dataplane::RegisterArray* blocked_;
  Stats stats_;
};

/// Controller-side Netwarden logic: classify and block covert flows.
class FlowStatsManager {
 public:
  struct Band {
    double low_us = 900.0;   ///< covert channels modulate IPDs in a
    double high_us = 1100.0; ///< narrow timing band
  };

  FlowStatsManager(controller::Controller& controller, NodeId sw)
      : FlowStatsManager(controller, sw, Band{}) {}
  FlowStatsManager(controller::Controller& controller, NodeId sw, Band band)
      : controller_(controller), sw_(sw), band_(band) {}

  /// Reads flow `flow`'s IPD aggregate; if the average falls inside the
  /// covert band, writes the block bit. Reports what it decided.
  struct Verdict {
    double avg_ipd_us = 0.0;
    bool blocked = false;
  };
  void inspect_flow(std::uint16_t flow, std::function<void(Result<Verdict>)> done);

 private:
  controller::Controller& controller_;
  NodeId sw_;
  Band band_;
};

}  // namespace p4auth::apps::flowstats

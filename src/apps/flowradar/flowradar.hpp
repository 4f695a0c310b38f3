// FlowRadar-lite — encoded per-flow measurement (Li et al., NSDI'16;
// Table I's measurement row).
//
// The data plane folds every packet into an invertible encoded flowset
// (k hashed cells, each keeping flow-XOR / flow-count / packet-count).
// The controller periodically exports the cells over C-DP reads and
// decodes them by IBLT-style peeling. Table I's attack: tampering the
// export poisons the decode — flows vanish or acquire bogus counts,
// corrupting loss analysis.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "controller/controller.hpp"
#include "dataplane/program.hpp"

namespace p4auth::apps::flowradar {

inline constexpr std::uint8_t kPacketMagic = 0x58;  // 'X'

inline constexpr RegisterId kFlowXorReg{6001};
inline constexpr RegisterId kFlowCntReg{6002};
inline constexpr RegisterId kPktCntReg{6003};

struct FlowPacket {
  std::uint32_t flow = 0;
};

Bytes encode_packet(const FlowPacket& packet);
Result<FlowPacket> decode_packet(std::span<const std::uint8_t> frame);

class FlowRadarProgram : public dataplane::DataPlaneProgram {
 public:
  struct Config {
    std::size_t cells = 128;
    static constexpr int kHashes = 3;
    PortId out_port{1};
  };

  FlowRadarProgram(Config config, dataplane::RegisterFile& registers);

  dataplane::PipelineOutput process(dataplane::Packet& packet,
                                    dataplane::PipelineContext& ctx) override;
  dataplane::PipelineModel pipeline_model() const override;

  template <typename Agent>
  Status expose_to(Agent& agent) {
    if (auto s = agent.expose_register(kFlowXorReg, "fr_flow_xor"); !s.ok()) return s;
    if (auto s = agent.expose_register(kFlowCntReg, "fr_flow_cnt"); !s.ok()) return s;
    return agent.expose_register(kPktCntReg, "fr_pkt_cnt");
  }

  std::size_t cells() const noexcept { return config_.cells; }

  /// Cell indices for a flow — shared with the decoder.
  static std::vector<std::size_t> cell_indices(std::uint32_t flow, std::size_t cells);

 private:
  Config config_;
  dataplane::RegisterArray* flow_xor_;
  dataplane::RegisterArray* flow_cnt_;
  dataplane::RegisterArray* pkt_cnt_;
  dataplane::RegisterArray* flow_filter_;  ///< bloom filter: seen flows
};

/// Pure decoder: IBLT peeling over an exported snapshot.
/// Returns flow -> packet count; `clean` is false when peeling stalls or
/// produces inconsistent leftovers (the tamper signature).
struct DecodeResult {
  std::map<std::uint32_t, std::uint64_t> flows;
  bool clean = true;
};
DecodeResult decode_flowset(std::vector<std::uint64_t> flow_xor,
                            std::vector<std::uint64_t> flow_cnt,
                            std::vector<std::uint64_t> pkt_cnt);

/// Controller-side export: reads all 3*cells registers and decodes.
class FlowRadarManager {
 public:
  FlowRadarManager(controller::Controller& controller, NodeId sw, std::size_t cells)
      : controller_(controller), sw_(sw), cells_(cells) {}

  void export_and_decode(std::function<void(Result<DecodeResult>)> done);

 private:
  controller::Controller& controller_;
  NodeId sw_;
  std::size_t cells_;
};

}  // namespace p4auth::apps::flowradar

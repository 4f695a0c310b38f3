// Destination-based L3 port forwarding — the paper's evaluation base
// program (§IX-B): two match-action tables (LPM route + exact port map)
// and one register. P4Auth's modules are added on top of this program for
// Figs 18/19 and Table II.
#pragma once

#include <array>

#include "dataplane/program.hpp"
#include "dataplane/table.hpp"

namespace p4auth::apps::l3fwd {

inline constexpr std::uint8_t kIpv4Magic = 0x49;  // 'I'
inline constexpr RegisterId kStatsReg{1001};

struct Ipv4Packet {
  std::uint32_t dst = 0;
  std::uint32_t size_bytes = 0;
};

Bytes encode_ipv4(const Ipv4Packet& packet);
Result<Ipv4Packet> decode_ipv4(std::span<const std::uint8_t> frame);

class L3FwdProgram : public dataplane::DataPlaneProgram {
 public:
  explicit L3FwdProgram(dataplane::RegisterFile& registers);

  /// Installs a route: dst/len -> egress port.
  Status add_route(std::uint32_t prefix, int prefix_len, PortId egress);

  dataplane::PipelineOutput process(dataplane::Packet& packet,
                                    dataplane::PipelineContext& ctx) override;
  dataplane::PipelineModel pipeline_model() const override;

  template <typename Agent>
  Status expose_to(Agent& agent) {
    return agent.expose_register(kStatsReg, "l3_stats");
  }

  std::uint64_t forwarded() const noexcept { return forwarded_; }

 private:
  /// Serialises the port into a stack scratch key (u32, network order);
  /// the forwarding path looks it up as a ByteView without touching the
  /// heap.
  static std::array<std::uint8_t, 4> port_key(PortId port) noexcept;

  dataplane::LpmTable routes_;
  dataplane::ExactTable port_map_;
  dataplane::RegisterArray* stats_;
  std::uint64_t forwarded_ = 0;
};

}  // namespace p4auth::apps::l3fwd

// HULA — scalable load balancing in the data plane (Katta et al., SOSR'16;
// the paper's second victim system, §IX-A and §IX-C).
//
// Each ToR periodically floods probes advertising itself; every switch
// tracks, per destination ToR, the best next hop and its path utilization,
// and forwards data packets along the current best hop with
// flowlet-granularity stickiness. State lives in switch registers — the
// state P4Auth protects:
//   hula_best_hop[tor], hula_best_util[tor], hula_last_update[tor],
//   hula_flowlet_port[h], hula_flowlet_time[h], hula_util_bytes[port].
//
// Utilization is self-measured: a decaying per-ingress-port byte counter
// (the data-plane analogue of HULA's link utilization estimator).
#pragma once

#include <unordered_map>
#include <vector>

#include "apps/hula/probe.hpp"
#include "dataplane/program.hpp"

namespace p4auth::apps::hula {

class HulaProgram : public dataplane::DataPlaneProgram {
 public:
  struct Config {
    NodeId self{};
    bool is_tor = false;             ///< ToRs originate probes and sink data
    std::vector<PortId> probe_ports; ///< fabric ports probes travel on
    int max_tors = 16;
    std::size_t flowlet_slots = 1024;
    SimTime flowlet_timeout = SimTime::from_us(500);
    SimTime entry_timeout = SimTime::from_ms(300);   ///< best-hop staleness bound
    SimTime util_window = SimTime::from_ms(1);       ///< utilization decay constant
    double capacity_bytes_per_window = 125'000.0;    ///< 1 Gb/s * 1 ms
  };

  HulaProgram(Config config, dataplane::RegisterFile& registers);

  dataplane::PipelineOutput process(dataplane::Packet& packet,
                                    dataplane::PipelineContext& ctx) override;
  dataplane::PipelineModel pipeline_model() const override;

  struct Stats {
    std::uint64_t probes_generated = 0;
    std::uint64_t probes_processed = 0;
    std::uint64_t data_forwarded = 0;
    std::uint64_t data_delivered = 0;  ///< sunk at this ToR
    std::uint64_t data_dropped = 0;
    /// Bytes of data traffic sent per egress port — the Fig 16/17 metric.
    std::unordered_map<PortId, std::uint64_t> egress_bytes;
    /// When the most recent probe was processed — the Fig 21 timestamp.
    SimTime last_probe_time{};
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Current best hop toward `tor`, if fresh (tests/benches).
  std::optional<PortId> best_hop(NodeId tor, SimTime now) const;

 private:
  void bump_util(PortId port, std::size_t bytes, SimTime now);
  std::uint8_t util_pct(PortId port, SimTime now) const;

  /// Updates best-hop state from probe_ (the decoded arrival), stamps
  /// this hop into it and replicates it.
  dataplane::PipelineOutput handle_probe(dataplane::Packet& packet,
                                         dataplane::PipelineContext& ctx);
  dataplane::PipelineOutput handle_data(const DataPacket& data, dataplane::Packet& packet,
                                        dataplane::PipelineContext& ctx);
  dataplane::PipelineOutput generate_probe(dataplane::PipelineContext& ctx);
  /// Emits probe_ on every probe port except `except`.
  dataplane::PipelineOutput replicate_probe(std::optional<PortId> except,
                                            dataplane::PipelineContext& ctx);

  Config config_;
  dataplane::RegisterArray* best_hop_;
  dataplane::RegisterArray* best_util_;
  dataplane::RegisterArray* last_update_;
  dataplane::RegisterArray* flowlet_port_;
  dataplane::RegisterArray* flowlet_time_;
  dataplane::RegisterArray* util_bytes_;  ///< fixed-point decayed byte counts
  dataplane::RegisterArray* util_time_;   ///< last decay timestamp per port
  Stats stats_;
  /// The probe being generated or forwarded. Kept across packets so its
  /// trace keeps its capacity and a probe hop decodes, stamps and
  /// re-encodes without allocating.
  Probe probe_;
};

}  // namespace p4auth::apps::hula

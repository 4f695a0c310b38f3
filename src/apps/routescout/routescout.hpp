// RouteScout — performance-aware path selection at the network edge
// (Apostolaki et al., SOSR'21; the paper's first victim system, §IX-A).
//
// The data plane aggregates per-path latency samples into registers
// (rs_lat_sum / rs_lat_cnt) and splits outgoing flows across paths
// according to a controller-written ratio register (rs_split). Each epoch
// the controller reads the aggregates, recomputes the split
// (inverse-latency weighting), writes it back, and clears the aggregates —
// all over C-DP messages, which is exactly the surface the Fig. 2 attack
// manipulates and P4Auth protects.
#pragma once

#include <functional>
#include <vector>

#include "controller/controller.hpp"
#include "dataplane/program.hpp"

namespace p4auth::apps::routescout {

inline constexpr std::uint8_t kDataMagic = 0x52;    // 'R'
inline constexpr std::uint8_t kSampleMagic = 0x4C;  // 'L'

/// Register ids in the controller's p4Info view.
inline constexpr RegisterId kLatSumReg{2001};
inline constexpr RegisterId kLatCntReg{2002};
inline constexpr RegisterId kSplitReg{2003};

struct RsData {
  std::uint64_t flow_id = 0;
  std::uint32_t size_bytes = 0;
};

struct RsSample {
  std::uint8_t path = 0;
  std::uint32_t latency_us = 0;
};

Bytes encode_data(const RsData& data);
Result<RsData> decode_data(std::span<const std::uint8_t> frame);
Bytes encode_sample(const RsSample& sample);
Result<RsSample> decode_sample(std::span<const std::uint8_t> frame);

class RouteScoutProgram : public dataplane::DataPlaneProgram {
 public:
  struct Config {
    std::vector<PortId> path_ports;  ///< egress port per path id
  };

  RouteScoutProgram(Config config, dataplane::RegisterFile& registers);

  dataplane::PipelineOutput process(dataplane::Packet& packet,
                                    dataplane::PipelineContext& ctx) override;
  dataplane::PipelineModel pipeline_model() const override;

  /// Wires the three state registers into a P4Auth agent's mapping table.
  template <typename Agent>
  Status expose_to(Agent& agent) {
    if (auto s = agent.expose_register(kLatSumReg, "rs_lat_sum"); !s.ok()) return s;
    if (auto s = agent.expose_register(kLatCntReg, "rs_lat_cnt"); !s.ok()) return s;
    return agent.expose_register(kSplitReg, "rs_split");
  }

  struct Stats {
    std::uint64_t data_forwarded = 0;
    std::uint64_t samples_recorded = 0;
    std::vector<std::uint64_t> path_bytes;  ///< the Fig 16 metric
  };
  const Stats& stats() const noexcept { return stats_; }
  std::size_t num_paths() const noexcept { return config_.path_ports.size(); }

 private:
  Config config_;
  dataplane::RegisterArray* lat_sum_;
  dataplane::RegisterArray* lat_cnt_;
  dataplane::RegisterArray* split_;
  Stats stats_;
};

/// Controller-side RouteScout logic: one `run_epoch` performs the paper's
/// periodic pull-analyze-push loop over authenticated C-DP messages. If
/// any read/write fails verification, the epoch aborts and the previous
/// split ratio stays in force — the Fig 16 "with P4Auth" behaviour.
class RouteScoutManager {
 public:
  RouteScoutManager(controller::Controller& controller, NodeId sw, int num_paths)
      : controller_(controller), sw_(sw), num_paths_(num_paths) {}

  void run_epoch(std::function<void(Status)> done);

  struct Stats {
    std::uint64_t epochs_completed = 0;
    std::uint64_t epochs_aborted = 0;
    std::vector<std::uint64_t> last_split;
    std::vector<double> last_avg_latency_us;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct EpochState {
    std::vector<std::uint64_t> sums;
    std::vector<std::uint64_t> counts;
    std::size_t reads_done = 0;
    std::size_t writes_done = 0;
    bool failed = false;
    std::function<void(Status)> done;
  };

  void finish_epoch(const std::shared_ptr<EpochState>& epoch);

  controller::Controller& controller_;
  NodeId sw_;
  int num_paths_;
  Stats stats_;
};

}  // namespace p4auth::apps::routescout

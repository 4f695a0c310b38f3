// NetCache-lite — in-network key-value caching (Jin et al., SOSP'17;
// Table I's in-network-compute row).
//
// The data plane answers GETs for cached hot keys directly and counts key
// popularity in a count-min sketch. The controller periodically reads the
// sketch, installs hot keys into the cache registers, and clears the
// sketch — all over C-DP messages. Table I's attack: altering those
// update/clear messages evicts or corrupts hot keys, inflating retrieval
// time (misses go to the server).
#pragma once

#include <functional>
#include <vector>

#include "controller/controller.hpp"
#include "dataplane/program.hpp"

namespace p4auth::apps::netcache {

inline constexpr std::uint8_t kQueryMagic = 0x51;     // 'Q'
inline constexpr std::uint8_t kResponseMagic = 0x71;  // 'q'

inline constexpr RegisterId kCacheKeyReg{3001};
inline constexpr RegisterId kCacheValReg{3002};
inline constexpr RegisterId kCmsReg{3003};

struct Query {
  std::uint32_t key = 0;
};

struct Response {
  std::uint32_t key = 0;
  std::uint64_t value = 0;
  bool from_cache = false;
};

Bytes encode_query(const Query& query);
Result<Query> decode_query(std::span<const std::uint8_t> frame);
Bytes encode_response(const Response& response);
Result<Response> decode_response(std::span<const std::uint8_t> frame);

class NetCacheProgram : public dataplane::DataPlaneProgram {
 public:
  struct Config {
    PortId client_port{1};
    PortId server_port{2};
    std::size_t cache_slots = 8;
    std::size_t cms_width = 64;
    static constexpr int kCmsRows = 4;
  };

  NetCacheProgram(Config config, dataplane::RegisterFile& registers);

  dataplane::PipelineOutput process(dataplane::Packet& packet,
                                    dataplane::PipelineContext& ctx) override;
  dataplane::PipelineModel pipeline_model() const override;

  template <typename Agent>
  Status expose_to(Agent& agent) {
    if (auto s = agent.expose_register(kCacheKeyReg, "nc_cache_key"); !s.ok()) return s;
    if (auto s = agent.expose_register(kCacheValReg, "nc_cache_val"); !s.ok()) return s;
    return agent.expose_register(kCmsReg, "nc_cms");
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

  /// CMS popularity estimate for a key (min over rows).
  std::uint64_t estimate(std::uint32_t key) const;

  /// Sketch cell for (row, key) — shared with the controller-side reader.
  static std::size_t cms_index(int row, std::uint32_t key, std::size_t width);

 private:

  Config config_;
  dataplane::RegisterArray* cache_key_;
  dataplane::RegisterArray* cache_val_;
  dataplane::RegisterArray* cms_;
  Stats stats_;
};

/// Controller-side NetCache logic: read key popularity from the sketch,
/// install hot keys, clear the sketch.
class NetCacheManager {
 public:
  NetCacheManager(controller::Controller& controller, NodeId sw, std::size_t cms_width = 64)
      : controller_(controller), sw_(sw), cms_width_(cms_width) {}

  /// Reads a key's popularity estimate over authenticated C-DP reads
  /// (min over the sketch rows).
  void estimate_key(std::uint32_t key, std::function<void(Result<std::uint64_t>)> done);

  /// Ranks `candidates` by sketch estimate and installs the hottest into
  /// `slot` with `value` ("C updates hot keys in the DP", Table I).
  void install_hottest(std::vector<std::uint32_t> candidates, std::uint32_t slot,
                       std::uint64_t value,
                       std::function<void(Result<std::uint32_t>)> done);

  /// Installs `key`->`value` into cache slot `slot` (two writes). A failed
  /// write leaves the cache untouched and reports the error.
  void install_hot_key(std::uint32_t slot, std::uint32_t key, std::uint64_t value,
                       std::function<void(Status)> done);

  /// Clears `entries` sketch counters (Table I: "C periodically clears
  /// query statistics"). Zero entries complete at once.
  void clear_sketch(std::size_t entries, std::function<void(Status)> done);

 private:
  /// Appends the kCmsRows sketch reads behind `key`'s estimate.
  void append_sketch_reads(std::uint32_t key,
                           std::vector<controller::Controller::RegisterOp>& reads) const;

  controller::Controller& controller_;
  NodeId sw_;
  std::size_t cms_width_;
};

}  // namespace p4auth::apps::netcache

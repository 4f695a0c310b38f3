// HULA wire formats (probe / data / probe-generation trigger).
//
// The probe carries the max path utilization from its origin ToR (the
// paper's `probeUtil`, the field the Fig. 3 adversary rewrites) plus an
// INT-style per-hop trace appended by every switch. The trace is what
// makes the digested byte count grow with hop count — the mechanism
// behind Fig 21's increasing P4Auth overhead.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/types.hpp"

namespace p4auth::apps::hula {

inline constexpr std::uint8_t kProbeMagic = 0x48;    // 'H'
inline constexpr std::uint8_t kDataMagic = 0x44;     // 'D'
inline constexpr std::uint8_t kProbeGenMagic = 0x47; // 'G'

struct HopRecord {
  NodeId node{};
  PortId ingress{};
  std::uint8_t util = 0;  ///< local link utilization this hop observed
  friend bool operator==(const HopRecord&, const HopRecord&) = default;
};

inline constexpr std::size_t kHopRecordSize = 8;  // 2+2+1+3 pad

struct Probe {
  NodeId origin_tor{};       ///< the ToR this probe advertises a path to
  std::uint8_t max_util = 0; ///< max utilization along the path, 0..255
  std::vector<HopRecord> trace;

  friend bool operator==(const Probe&, const Probe&) = default;
};

Bytes encode_probe(const Probe& probe);
Result<Probe> decode_probe(std::span<const std::uint8_t> frame);

/// Encoded size of `probe`: the 5-byte header plus one record per hop.
std::size_t encoded_probe_size(const Probe& probe) noexcept;

/// encode_probe into `out`, resized once to the exact size: a recycled
/// buffer with that much capacity is filled without allocating.
void encode_probe_into(const Probe& probe, Bytes& out);

/// encode_probe over `out`, which must be exactly encoded_probe_size(probe)
/// bytes (e.g. a probe rewritten in place inside a larger frame).
void encode_probe_to(const Probe& probe, std::span<std::uint8_t> out) noexcept;

/// decode_probe into `probe`, reusing its trace storage: once the trace
/// has held as many hops as the frame carries, decoding does not
/// allocate. On failure `probe` holds a partial decode.
Status decode_probe_into(std::span<const std::uint8_t> frame, Probe& probe);

struct DataPacket {
  NodeId dst_tor{};
  std::uint64_t flow_id = 0;
  std::uint32_t size_bytes = 0;  ///< declared payload size (for util accounting)

  friend bool operator==(const DataPacket&, const DataPacket&) = default;
};

/// Encoded size of a data packet: magic, dst_tor, flow_id, size_bytes.
inline constexpr std::size_t kDataSize = 15;

Bytes encode_data(const DataPacket& packet);
/// encode_data over the first kDataSize bytes of `out`, which must hold
/// at least that many; bytes past them are left alone (padding).
void encode_data_to(const DataPacket& packet, std::span<std::uint8_t> out) noexcept;
Result<DataPacket> decode_data(std::span<const std::uint8_t> frame);

/// Harness-injected trigger telling a ToR to emit a fresh probe round.
Bytes encode_probe_gen();

}  // namespace p4auth::apps::hula

#include "apps/hula/probe.hpp"

namespace p4auth::apps::hula {

Bytes encode_probe(const Probe& probe) {
  Bytes out;
  encode_probe_into(probe, out);
  return out;
}

Result<Probe> decode_probe(std::span<const std::uint8_t> frame) {
  Probe probe;
  if (auto status = decode_probe_into(frame, probe); !status.ok()) return status.error();
  return probe;
}

std::size_t encoded_probe_size(const Probe& probe) noexcept {
  return 5 + kHopRecordSize * probe.trace.size();
}

void encode_probe_into(const Probe& probe, Bytes& out) {
  out.resize(encoded_probe_size(probe));
  encode_probe_to(probe, out);
}

void encode_probe_to(const Probe& probe, std::span<std::uint8_t> out) noexcept {
  ScratchWriter w(out.data());
  w.u8(kProbeMagic)
      .u16(probe.origin_tor.value)
      .u8(probe.max_util)
      .u8(static_cast<std::uint8_t>(probe.trace.size()));
  for (const auto& hop : probe.trace) {
    w.u16(hop.node.value).u16(hop.ingress.value).u8(hop.util).u8(0).u16(0);
  }
}

Status decode_probe_into(std::span<const std::uint8_t> frame, Probe& probe) {
  ByteReader r(frame);
  if (r.u8() != kProbeMagic) return make_error("not a HULA probe");
  if (r.remaining() < 4) return make_error("probe truncated");
  probe.origin_tor = NodeId{r.u16()};
  probe.max_util = r.u8();
  const std::uint8_t hops = r.u8();
  if (r.remaining() < kHopRecordSize * hops) return make_error("probe trace truncated");
  if (r.remaining() > kHopRecordSize * hops) return make_error("probe has trailing bytes");
  // The length checks above cover every record, so the trace is read
  // from one view with direct loads. Sized once, filled in place: every
  // field of a record is overwritten.
  const std::uint8_t* rec = r.view(kHopRecordSize * hops).data();
  const auto be16 = [](const std::uint8_t* p) noexcept {
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
  };
  probe.trace.resize(hops);
  for (HopRecord& hop : probe.trace) {
    hop.node = NodeId{be16(rec)};
    hop.ingress = PortId{be16(rec + 2)};
    hop.util = rec[4];  // rec[5..7]: padding
    rec += kHopRecordSize;
  }
  return {};
}

Bytes encode_data(const DataPacket& packet) {
  Bytes out(kDataSize);
  encode_data_to(packet, out);
  return out;
}

void encode_data_to(const DataPacket& packet, std::span<std::uint8_t> out) noexcept {
  ScratchWriter(out.data())
      .u8(kDataMagic)
      .u16(packet.dst_tor.value)
      .u64(packet.flow_id)
      .u32(packet.size_bytes);
}

Result<DataPacket> decode_data(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  if (r.u8() != kDataMagic) return make_error("not a HULA data packet");
  if (r.remaining() < 14) return make_error("data packet truncated");
  DataPacket packet;
  packet.dst_tor = NodeId{r.u16()};
  packet.flow_id = r.u64();
  packet.size_bytes = r.u32();
  return packet;
}

Bytes encode_probe_gen() { return Bytes{kProbeGenMagic}; }

}  // namespace p4auth::apps::hula

#include "core/lldp.hpp"

namespace p4auth::core {

Bytes encode_lldp(const LldpAnnouncement& announcement) {
  Bytes out;
  out.reserve(5);  // magic, sender, sender_port
  ByteWriter w(out);
  w.u8(kLldpMagic).u16(announcement.sender.value).u16(announcement.sender_port.value);
  return out;
}

Result<LldpAnnouncement> decode_lldp(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  if (r.u8() != kLldpMagic) return make_error("not an LLDP frame");
  if (r.remaining() < 4) return make_error("LLDP frame truncated");
  LldpAnnouncement announcement;
  announcement.sender = NodeId{r.u16()};
  announcement.sender_port = PortId{r.u16()};
  return announcement;
}

Bytes encode_lldp_report(const LldpReport& report) {
  Bytes out;
  out.reserve(9);  // magic, two (node, port) pairs
  ByteWriter w(out);
  w.u8(kLldpReportMagic)
      .u16(report.sender.value)
      .u16(report.sender_port.value)
      .u16(report.receiver.value)
      .u16(report.receiver_port.value);
  return out;
}

Result<LldpReport> decode_lldp_report(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  if (r.u8() != kLldpReportMagic) return make_error("not an LLDP report");
  if (r.remaining() < 8) return make_error("LLDP report truncated");
  LldpReport report;
  report.sender = NodeId{r.u16()};
  report.sender_port = PortId{r.u16()};
  report.receiver = NodeId{r.u16()};
  report.receiver_port = PortId{r.u16()};
  return report;
}

Bytes encode_lldp_gen() { return Bytes{kLldpGenMagic}; }

}  // namespace p4auth::core

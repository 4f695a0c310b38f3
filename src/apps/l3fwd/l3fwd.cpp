#include "apps/l3fwd/l3fwd.hpp"

namespace p4auth::apps::l3fwd {

Bytes encode_ipv4(const Ipv4Packet& packet) {
  Bytes out;
  ByteWriter w(out);
  w.u8(kIpv4Magic).u32(packet.dst).u32(packet.size_bytes);
  return out;
}

Result<Ipv4Packet> decode_ipv4(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  if (r.u8() != kIpv4Magic) return make_error("not an ipv4 packet");
  if (r.remaining() < 8) return make_error("ipv4 packet truncated");
  Ipv4Packet packet;
  packet.dst = r.u32();
  packet.size_bytes = r.u32();
  return packet;
}

L3FwdProgram::L3FwdProgram(dataplane::RegisterFile& registers)
    : routes_("ipv4_lpm", 12288), port_map_("port_fwd", 32, 2048) {
  stats_ = registers.create("l3_stats", kStatsReg, 32768, 32).value();
}

Status L3FwdProgram::add_route(std::uint32_t prefix, int prefix_len, PortId egress) {
  // The port map rewrites the route's logical port to a physical one;
  // identity by default, like the generated default entries on a target.
  if (!port_map_.lookup(port_key(egress))) {
    const auto mapped = port_map_.insert(port_key(egress), dataplane::Action{2, egress.value});
    if (!mapped.ok()) return mapped;
  }
  return routes_.insert(prefix, prefix_len, dataplane::Action{1, egress.value});
}

std::array<std::uint8_t, 4> L3FwdProgram::port_key(PortId port) noexcept {
  const std::uint32_t v = port.value;
  return {static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
}

dataplane::PipelineOutput L3FwdProgram::process(dataplane::Packet& packet,
                                                dataplane::PipelineContext& ctx) {
  const auto decoded = decode_ipv4(packet.payload);
  if (!decoded.ok()) return dataplane::PipelineOutput::drop();

  ctx.costs().table_lookups += 2;  // lpm + port map
  ctx.note_table(routes_.shape().name);
  const auto route = routes_.lookup(decoded.value().dst);
  if (!route.has_value()) return dataplane::PipelineOutput::drop();

  auto egress = PortId{static_cast<std::uint16_t>(route->data)};
  ctx.note_table(port_map_.shape().name);
  if (const auto mapped = port_map_.lookup(port_key(egress))) {
    egress = PortId{static_cast<std::uint16_t>(mapped->data)};
  }
  const std::size_t stat_slot = decoded.value().dst % stats_->size();
  (void)stats_->write(stat_slot, stats_->read(stat_slot).value_or(0) + 1);
  ctx.costs().register_accesses += 2;

  ++forwarded_;
  return dataplane::PipelineOutput::unicast(egress, packet.payload);
}

dataplane::PipelineModel L3FwdProgram::pipeline_model() const {
  using M = dataplane::PipelineModel;
  // The paper's base: 2 MATs + 1 register (Table II baseline row).
  M m;
  m.name = "baseline_l3";
  m.header_phv_bits = 112 + 160;  // eth + ipv4
  m.metadata_phv_bits = 178;
  const auto entry = m.add(M::parse("ipv4"));
  m.then(entry, M::drop(), "malformed", {{"hdr.ipv4.valid", false}});
  const auto lpm = m.then(entry, M::table(routes_.shape()), "ipv4",
                          {{"hdr.ipv4.valid", true}});
  m.then(lpm, M::drop(), "miss", {{"tbl.ipv4_lpm.hit", false}});
  const auto pmap = m.then(lpm, M::table(port_map_.shape()), "hit",
                           {{"tbl.ipv4_lpm.hit", true}});
  const auto stats = m.then(pmap, M::reg_write(*stats_, 2));
  m.then(stats, M::emit("data"));
  return m;
}

}  // namespace p4auth::apps::l3fwd

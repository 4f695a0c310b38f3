#include "apps/blink/blink.hpp"

namespace p4auth::apps::blink {

Bytes encode_packet(const BlinkPacket& packet) {
  Bytes out;
  ByteWriter w(out);
  w.u8(kPacketMagic)
      .u16(packet.prefix)
      .u64(packet.flow_id)
      .u8(packet.is_retransmission ? 1 : 0);
  return out;
}

Result<BlinkPacket> decode_packet(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  if (r.u8() != kPacketMagic) return make_error("not a blink packet");
  if (r.remaining() < 11) return make_error("blink packet truncated");
  BlinkPacket packet;
  packet.prefix = r.u16();
  packet.flow_id = r.u64();
  packet.is_retransmission = r.u8() != 0;
  return packet;
}

BlinkProgram::BlinkProgram(Config config, dataplane::RegisterFile& registers)
    : config_(config) {
  next_hops_ = registers
                   .create("bk_nexthops", kNextHopsReg,
                           config_.max_prefixes * Config::kNextHopSlots, 16)
                   .value();
  active_idx_ =
      registers.create("bk_active_idx", kActiveIdxReg, config_.max_prefixes, 8).value();
  retx_cnt_ = registers.create("bk_retx_cnt", kRetxCntReg, config_.max_prefixes, 32).value();
  retx_window_start_ =
      registers.create("bk_retx_window", RegisterId{0xFFFA0001}, config_.max_prefixes, 64)
          .value();
}

dataplane::PipelineOutput BlinkProgram::process(dataplane::Packet& packet,
                                                dataplane::PipelineContext& ctx) {
  const auto decoded = decode_packet(packet.payload);
  if (!decoded.ok()) return dataplane::PipelineOutput::drop();
  const auto& pkt = decoded.value();
  if (pkt.prefix >= config_.max_prefixes) return dataplane::PipelineOutput::drop();

  const SimTime now = ctx.now();

  // Failure inference: count retransmissions in a sliding window; a burst
  // beyond the threshold fails over to the next hop in the list.
  if (pkt.is_retransmission) {
    const auto window_start = SimTime::from_ns(retx_window_start_->read(pkt.prefix).value_or(0));
    std::uint64_t count = retx_cnt_->read(pkt.prefix).value_or(0);
    if (window_start.ns() == 0 || now - window_start > config_.retx_window) {
      (void)retx_window_start_->write(pkt.prefix, now.ns());
      count = 0;
    }
    ++count;
    (void)retx_cnt_->write(pkt.prefix, count);
    ctx.costs().register_accesses += 4;
    if (count == config_.retx_threshold) {
      const std::uint64_t active = active_idx_->read(pkt.prefix).value_or(0);
      (void)active_idx_->write(pkt.prefix, (active + 1) % Config::kNextHopSlots);
      (void)retx_cnt_->write(pkt.prefix, 0);
      (void)retx_window_start_->write(pkt.prefix, 0);
      ctx.costs().register_accesses += 4;
      ++stats_.failovers;
    }
  }

  const std::uint64_t active = active_idx_->read(pkt.prefix).value_or(0);
  const std::size_t slot =
      static_cast<std::size_t>(pkt.prefix) * Config::kNextHopSlots + active;
  const std::uint64_t hop = next_hops_->read(slot).value_or(0);
  ctx.costs().register_accesses += 2;
  ++ctx.costs().table_lookups;
  ctx.note_table("bk_prefix_match");
  if (hop == 0) {
    ++stats_.dropped_no_hop;
    return dataplane::PipelineOutput::drop();
  }
  const PortId egress{static_cast<std::uint16_t>(hop - 1)};
  ++stats_.forwarded;
  ++stats_.egress_packets[egress];
  return dataplane::PipelineOutput::unicast(egress, packet.payload);
}

dataplane::PipelineModel BlinkProgram::pipeline_model() const {
  using M = dataplane::PipelineModel;
  M m;
  m.name = "blink";
  m.header_phv_bits = 8 + 88;
  m.metadata_phv_bits = 96;
  const auto entry = m.add(M::parse("tcp"));
  m.then(entry, M::drop(), "malformed", {{"hdr.tcp.valid", false}});
  const auto valid = m.then(entry, M::parse("retx_check"), "tcp",
                            {{"hdr.tcp.valid", true}});
  // Failure inference: sliding retransmission window per prefix.
  const auto window = m.then(valid, M::reg_read(*retx_window_start_), "retx",
                             {{"hdr.retx", true}});
  const auto reset = m.add(M::reg_write(*retx_window_start_));
  m.branch(window, reset, "window_expired", {{"retx.window_expired", true}});
  const auto count = m.add(M::reg_write(*retx_cnt_, 2));
  m.branch(window, count, "window_live", {{"retx.window_expired", false}});
  m.branch(reset, count);
  const auto lookup = m.add(M::reg_read(*active_idx_));
  m.branch(count, lookup, "below_threshold", {{"retx.threshold", false}});
  const auto failover = m.then(count, M::reg_write(*active_idx_, 4), "failover",
                               {{"retx.threshold", true}});
  m.branch(failover, lookup);
  m.branch(valid, lookup, "data", {{"hdr.retx", false}});
  const auto hops = m.then(lookup, M::reg_read(*next_hops_));
  const auto table =
      m.then(hops, M::table({"bk_prefix_match", dataplane::MatchKind::Lpm, 32, 64, 2048}));
  m.then(table, M::drop(), "no_hop", {{"tbl.bk_prefix_match.hit", false}});
  m.then(table, M::emit("data"), "hit", {{"tbl.bk_prefix_match.hit", true}});
  return m;
}

void BlinkManager::install_next_hops(std::uint16_t prefix, const std::vector<PortId>& hops,
                                     std::function<void(Status)> done) {
  std::vector<controller::Controller::RegisterOp> writes;
  for (std::size_t slot = 0; slot < BlinkProgram::Config::kNextHopSlots; ++slot) {
    const std::uint64_t value = slot < hops.size() ? hops[slot].value + 1 : 0;
    const auto idx = static_cast<std::uint32_t>(
        static_cast<std::size_t>(prefix) * BlinkProgram::Config::kNextHopSlots + slot);
    writes.push_back({core::RegisterMsg::WriteReq, kNextHopsReg, idx, value});
  }
  controller_.run_register_ops(
      sw_, writes,
      [done = std::move(done)](Result<std::vector<std::uint64_t>> r) { done(status_of(r)); });
}

}  // namespace p4auth::apps::blink

#include "apps/flowstats/flowstats.hpp"

namespace p4auth::apps::flowstats {

Bytes encode_packet(const FlowPacket& packet) {
  Bytes out;
  ByteWriter w(out);
  w.u8(kPacketMagic).u16(packet.flow).u32(packet.size_bytes);
  return out;
}

Result<FlowPacket> decode_packet(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  if (r.u8() != kPacketMagic) return make_error("not a flow packet");
  if (r.remaining() < 6) return make_error("flow packet truncated");
  FlowPacket packet;
  packet.flow = r.u16();
  packet.size_bytes = r.u32();
  return packet;
}

FlowStatsProgram::FlowStatsProgram(Config config, dataplane::RegisterFile& registers)
    : config_(config) {
  ipd_sum_ = registers.create("fs_ipd_sum", kIpdSumReg, config_.max_flows, 64).value();
  ipd_cnt_ = registers.create("fs_ipd_cnt", kIpdCntReg, config_.max_flows, 64).value();
  last_ts_ =
      registers.create("fs_last_ts", RegisterId{0xFFFD0001}, config_.max_flows, 64).value();
  blocked_ = registers.create("fs_blocked", kBlockedReg, config_.max_flows, 8).value();
}

dataplane::PipelineOutput FlowStatsProgram::process(dataplane::Packet& packet,
                                                    dataplane::PipelineContext& ctx) {
  const auto decoded = decode_packet(packet.payload);
  if (!decoded.ok()) return dataplane::PipelineOutput::drop();
  const std::uint16_t flow = decoded.value().flow;
  if (flow >= ipd_sum_->size()) return dataplane::PipelineOutput::drop();

  ctx.costs().register_accesses += 2;
  ctx.note_table("fs_flagged_flows");
  if (blocked_->read(flow).value_or(0) != 0) {
    ++stats_.blocked;
    return dataplane::PipelineOutput::drop();
  }

  const std::uint64_t last = last_ts_->read(flow).value_or(0);
  const std::uint64_t now_ns = ctx.now().ns();
  if (last != 0 && now_ns > last) {
    const std::uint64_t ipd_us = (now_ns - last) / 1000;
    (void)ipd_sum_->write(flow, ipd_sum_->read(flow).value_or(0) + ipd_us);
    (void)ipd_cnt_->write(flow, ipd_cnt_->read(flow).value_or(0) + 1);
    ctx.costs().register_accesses += 4;
  }
  (void)last_ts_->write(flow, now_ns);
  ++ctx.costs().register_accesses;

  ++stats_.forwarded;
  return dataplane::PipelineOutput::unicast(config_.out_port, packet.payload);
}

dataplane::PipelineModel FlowStatsProgram::pipeline_model() const {
  using M = dataplane::PipelineModel;
  M m;
  m.name = "flowstats";
  m.header_phv_bits = 8 + 48;
  m.metadata_phv_bits = 96;
  const auto entry = m.add(M::parse("flow"));
  m.then(entry, M::drop(), "malformed", {{"hdr.flow.valid", false}});
  const auto flagged =
      m.then(entry, M::table({"fs_flagged_flows", dataplane::MatchKind::Exact, 16, 64, 64}),
             "flow", {{"hdr.flow.valid", true}});
  const auto blocked = m.then(flagged, M::reg_read(*blocked_));
  m.then(blocked, M::drop(), "blocked", {{"flow.blocked", true}});
  const auto last = m.then(blocked, M::reg_read(*last_ts_), "clear",
                           {{"flow.blocked", false}});
  const auto stamp = m.add(M::reg_write(*last_ts_));
  m.branch(last, stamp, "first_packet", {{"flow.has_ipd", false}});
  const auto sum = m.then(last, M::reg_write(*ipd_sum_, 2), "accrue",
                          {{"flow.has_ipd", true}});
  const auto cnt = m.then(sum, M::reg_write(*ipd_cnt_, 2));
  m.branch(cnt, stamp);
  m.then(stamp, M::emit("data"));
  return m;
}

void FlowStatsManager::inspect_flow(std::uint16_t flow,
                                    std::function<void(Result<Verdict>)> done) {
  using core::RegisterMsg;
  controller_.run_register_ops(
      sw_, {{RegisterMsg::ReadReq, kIpdSumReg, flow}, {RegisterMsg::ReadReq, kIpdCntReg, flow}},
      [this, flow, done = std::move(done)](Result<std::vector<std::uint64_t>> read) mutable {
        if (!read.ok()) {
          done(read.error());
          return;
        }
        const std::uint64_t sum = read.value()[0];
        const std::uint64_t cnt = read.value()[1];
        Verdict verdict;
        verdict.avg_ipd_us = cnt > 0 ? static_cast<double>(sum) / static_cast<double>(cnt) : 0.0;
        verdict.blocked =
            verdict.avg_ipd_us >= band_.low_us && verdict.avg_ipd_us <= band_.high_us;
        if (!verdict.blocked) {
          done(verdict);
          return;
        }
        controller_.run_register_ops(
            sw_, {{RegisterMsg::WriteReq, kBlockedReg, flow, 1}},
            [verdict, done = std::move(done)](Result<std::vector<std::uint64_t>> written) {
              if (!written.ok()) {
                done(written.error());
                return;
              }
              done(verdict);
            });
      });
}

}  // namespace p4auth::apps::flowstats

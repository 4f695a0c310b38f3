#include "apps/flowstats/flowstats.hpp"

#include <memory>

namespace p4auth::apps::flowstats {

Bytes encode_packet(const FlowPacket& packet) {
  Bytes out;
  ByteWriter w(out);
  w.u8(kPacketMagic).u16(packet.flow).u32(packet.size_bytes);
  return out;
}

Result<FlowPacket> decode_packet(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  const auto magic = r.u8();
  if (!magic.ok() || magic.value() != kPacketMagic) return make_error("not a flow packet");
  if (r.remaining() < 6) return make_error("flow packet truncated");
  FlowPacket packet;
  packet.flow = r.u16().value();
  packet.size_bytes = r.u32().value();
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
  struct State {
    std::uint64_t sum = 0;
    std::uint64_t cnt = 0;
    int reads = 0;
    bool failed = false;
    std::function<void(Result<Verdict>)> done;
  };
  auto state = std::make_shared<State>();
  state->done = std::move(done);

  const auto on_read = [this, state, flow](bool is_sum, Result<std::uint64_t> value) {
    if (state->failed) return;
    if (!value.ok()) {
      state->failed = true;
      state->done(make_error("inspection aborted: " + value.error().message));
      return;
    }
    (is_sum ? state->sum : state->cnt) = value.value();
    if (++state->reads < 2) return;

    Verdict verdict;
    verdict.avg_ipd_us =
        state->cnt > 0 ? static_cast<double>(state->sum) / static_cast<double>(state->cnt) : 0.0;
    verdict.blocked = verdict.avg_ipd_us >= band_.low_us && verdict.avg_ipd_us <= band_.high_us;
    if (!verdict.blocked) {
      state->done(verdict);
      return;
    }
    controller_.write_register(sw_, kBlockedReg, flow, 1,
                               [state, verdict](Result<std::uint64_t> result) {
                                 if (!result.ok()) {
                                   state->done(result.error());
                                   return;
                                 }
                                 state->done(verdict);
                               });
  };
  controller_.read_register(sw_, kIpdSumReg, flow,
                            [on_read](Result<std::uint64_t> v) { on_read(true, std::move(v)); });
  controller_.read_register(sw_, kIpdCntReg, flow,
                            [on_read](Result<std::uint64_t> v) { on_read(false, std::move(v)); });
}

}  // namespace p4auth::apps::flowstats

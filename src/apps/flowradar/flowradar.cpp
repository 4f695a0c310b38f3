#include "apps/flowradar/flowradar.hpp"

#include "common/rng.hpp"
#include "crypto/crc32.hpp"

namespace p4auth::apps::flowradar {

Bytes encode_packet(const FlowPacket& packet) {
  Bytes out;
  ByteWriter w(out);
  w.u8(kPacketMagic).u32(packet.flow);
  return out;
}

Result<FlowPacket> decode_packet(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  const auto magic = r.u8();
  if (!magic.ok() || magic.value() != kPacketMagic) return make_error("not a flowradar packet");
  if (r.remaining() < 4) return make_error("flowradar packet truncated");
  return FlowPacket{r.u32().value()};
}

std::vector<std::size_t> FlowRadarProgram::cell_indices(std::uint32_t flow, std::size_t cells) {
  // Three independent hash functions (a real target provisions distinct
  // CRC polynomials per hash unit; a single CRC with XOR-related seeds is
  // GF(2)-linear, which couples the indices and breaks IBLT peeling).
  std::vector<std::size_t> indices;
  indices.reserve(Config::kHashes);
  for (int h = 0; h < Config::kHashes; ++h) {
    SplitMix64 mix((static_cast<std::uint64_t>(h + 1) << 32) | flow);
    const std::size_t idx = mix.next() % cells;
    // Distinct cells per flow keep peeling well-defined.
    if (std::find(indices.begin(), indices.end(), idx) == indices.end()) {
      indices.push_back(idx);
    }
  }
  return indices;
}

FlowRadarProgram::FlowRadarProgram(Config config, dataplane::RegisterFile& registers)
    : config_(config) {
  flow_xor_ = registers.create("fr_flow_xor", kFlowXorReg, config_.cells, 32).value();
  flow_cnt_ = registers.create("fr_flow_cnt", kFlowCntReg, config_.cells, 32).value();
  pkt_cnt_ = registers.create("fr_pkt_cnt", kPktCntReg, config_.cells, 32).value();
  flow_filter_ =
      registers.create("fr_flow_filter", RegisterId{0xFFFB0001}, 1024, 1).value();
}

dataplane::PipelineOutput FlowRadarProgram::process(dataplane::Packet& packet,
                                                    dataplane::PipelineContext& ctx) {
  const auto decoded = decode_packet(packet.payload);
  if (!decoded.ok()) return dataplane::PipelineOutput::drop();
  const std::uint32_t flow = decoded.value().flow;

  const auto indices = cell_indices(flow, config_.cells);
  // FlowRadar's flow filter: a bloom filter decides whether this is the
  // flow's first packet, so the flow is folded into flow_xor exactly once.
  bool is_new = false;
  for (int h = 0; h < 2; ++h) {
    crypto::Crc32 crc;
    crc.update_u32(0xF117E400u + static_cast<std::uint32_t>(h));
    crc.update_u32(flow);
    const std::size_t bit = crc.final() % flow_filter_->size();
    if (flow_filter_->read(bit).value_or(0) == 0) is_new = true;
    (void)flow_filter_->write(bit, 1);
    ctx.costs().add_hash(4);
    ctx.costs().register_accesses += 2;
  }
  for (const std::size_t idx : indices) {
    if (is_new) {
      (void)flow_xor_->write(idx, flow_xor_->read(idx).value_or(0) ^ flow);
      (void)flow_cnt_->write(idx, flow_cnt_->read(idx).value_or(0) + 1);
    }
    (void)pkt_cnt_->write(idx, pkt_cnt_->read(idx).value_or(0) + 1);
    ctx.costs().add_hash(4);
    ctx.costs().register_accesses += 4;
  }
  return dataplane::PipelineOutput::unicast(config_.out_port, packet.payload);
}

dataplane::PipelineModel FlowRadarProgram::pipeline_model() const {
  using M = dataplane::PipelineModel;
  M m;
  m.name = "flowradar";
  for (int h = 0; h < Config::kHashes; ++h) {
    m.hash_uses.push_back(dataplane::HashUse::crc32("fr_cell_hash"));
  }
  // Two more CRC units drive the flow filter (first-packet bloom check).
  for (int h = 0; h < 2; ++h) {
    m.hash_uses.push_back(dataplane::HashUse::crc32("fr_filter_hash", 4));
  }
  m.header_phv_bits = 8 + 32;
  m.metadata_phv_bits = 64;
  const auto entry = m.add(M::parse("flow"));
  m.then(entry, M::drop(), "malformed", {{"hdr.flow.valid", false}});
  // Bloom-filter membership check + set (first-packet detection).
  const auto filter_rd = m.then(entry, M::reg_read(*flow_filter_, 2), "flow",
                                {{"hdr.flow.valid", true}});
  const auto filter_wr = m.then(filter_rd, M::reg_write(*flow_filter_, 2));
  // IBLT cell updates: flow set folded in once, packet count always.
  const auto pkt = m.add(M::reg_write(*pkt_cnt_, 2));
  m.branch(filter_wr, pkt, "seen", {{"flow.is_new", false}});
  const auto fxor = m.then(filter_wr, M::reg_write(*flow_xor_, 2), "new",
                           {{"flow.is_new", true}});
  const auto fcnt = m.then(fxor, M::reg_write(*flow_cnt_, 2));
  m.branch(fcnt, pkt);
  m.then(pkt, M::emit("data"));
  return m;
}

DecodeResult decode_flowset(std::vector<std::uint64_t> flow_xor,
                            std::vector<std::uint64_t> flow_cnt,
                            std::vector<std::uint64_t> pkt_cnt) {
  DecodeResult result;
  const std::size_t cells = flow_xor.size();
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < cells; ++i) {
      if (flow_cnt[i] != 1) continue;
      const auto flow = static_cast<std::uint32_t>(flow_xor[i]);
      const auto count = pkt_cnt[i];
      const auto indices = FlowRadarProgram::cell_indices(flow, cells);
      // A decoded flow must actually hash to the cell it was peeled from;
      // otherwise the snapshot is corrupt.
      if (std::find(indices.begin(), indices.end(), i) == indices.end()) {
        result.clean = false;
        flow_cnt[i] = 0;  // poison: skip this cell
        continue;
      }
      result.flows[flow] += count;
      for (const std::size_t idx : indices) {
        flow_xor[idx] ^= flow;
        flow_cnt[idx] = flow_cnt[idx] > 0 ? flow_cnt[idx] - 1 : 0;
        pkt_cnt[idx] = pkt_cnt[idx] >= count ? pkt_cnt[idx] - count : 0;
      }
      progressed = true;
    }
  }
  for (std::size_t i = 0; i < cells; ++i) {
    if (flow_cnt[i] != 0 || flow_xor[i] != 0 || pkt_cnt[i] != 0) {
      result.clean = false;
      break;
    }
  }
  return result;
}

void FlowRadarManager::export_and_decode(std::function<void(Result<DecodeResult>)> done) {
  // Per cell, in this order: flow_xor, flow_cnt, pkt_cnt.
  constexpr RegisterId kExported[] = {kFlowXorReg, kFlowCntReg, kPktCntReg};
  std::vector<controller::Controller::RegisterOp> reads;
  reads.reserve(3 * cells_);
  for (std::size_t i = 0; i < cells_; ++i) {
    for (const RegisterId reg : kExported) {
      reads.push_back({core::RegisterMsg::ReadReq, reg, static_cast<std::uint32_t>(i)});
    }
  }
  controller_.run_register_ops(
      sw_, reads,
      [cells = cells_, done = std::move(done)](Result<std::vector<std::uint64_t>> snapshot) {
        if (!snapshot.ok()) {
          done(snapshot.error());
          return;
        }
        std::vector<std::uint64_t> flow_xor(cells), flow_cnt(cells), pkt_cnt(cells);
        for (std::size_t i = 0; i < cells; ++i) {
          flow_xor[i] = snapshot.value()[3 * i];
          flow_cnt[i] = snapshot.value()[3 * i + 1];
          pkt_cnt[i] = snapshot.value()[3 * i + 2];
        }
        done(decode_flowset(std::move(flow_xor), std::move(flow_cnt), std::move(pkt_cnt)));
      });
}

}  // namespace p4auth::apps::flowradar

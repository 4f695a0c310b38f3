#include "apps/silkroad/silkroad.hpp"

#include "common/rng.hpp"

namespace p4auth::apps::silkroad {

Bytes encode_conn(const ConnPacket& packet) {
  Bytes out;
  ByteWriter w(out);
  w.u8(kConnMagic).u16(packet.vip).u64(packet.conn_id);
  return out;
}

Result<ConnPacket> decode_conn(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  const auto magic = r.u8();
  if (!magic.ok() || magic.value() != kConnMagic) return make_error("not a connection packet");
  if (r.remaining() < 10) return make_error("connection packet truncated");
  ConnPacket packet;
  packet.vip = r.u16().value();
  packet.conn_id = r.u64().value();
  return packet;
}

SilkRoadProgram::SilkRoadProgram(Config config, dataplane::RegisterFile& registers)
    : config_(config) {
  transit_ = registers.create("slk_transit", kTransitReg, config_.max_vips, 8).value();
  dips_old_ = registers.create("slk_dips_old", kDipsOldReg,
                               config_.max_vips * config_.dips_per_pool, 32)
                  .value();
  dips_new_ = registers.create("slk_dips_new", kDipsNewReg,
                               config_.max_vips * config_.dips_per_pool, 32)
                  .value();
  conn_dip_ =
      registers.create("slk_conn_dip", RegisterId{0xFFFC0001}, config_.conn_slots, 32).value();
}

dataplane::PipelineOutput SilkRoadProgram::process(dataplane::Packet& packet,
                                                   dataplane::PipelineContext& ctx) {
  const auto decoded = decode_conn(packet.payload);
  if (!decoded.ok()) return dataplane::PipelineOutput::drop();
  const auto& conn = decoded.value();
  if (conn.vip >= config_.max_vips) return dataplane::PipelineOutput::drop();

  SplitMix64 mix(conn.conn_id);
  const std::size_t conn_slot = mix.next() % config_.conn_slots;
  const std::size_t dip_index = mix.next() % config_.dips_per_pool;
  const std::size_t pool_base = static_cast<std::size_t>(conn.vip) * config_.dips_per_pool;
  ctx.costs().add_hash(sizeof(conn.conn_id));

  ctx.costs().register_accesses += 2;
  ++ctx.costs().table_lookups;
  ctx.note_table("slk_conn_table");
  const std::uint64_t pinned = conn_dip_->read(conn_slot).value_or(0);
  std::uint32_t dip = 0;
  if (pinned != 0) {
    // Existing connection stays on its DIP (connection-table hit).
    dip = static_cast<std::uint32_t>(pinned - 1);
    ++stats_.pinned;
  } else {
    const bool in_transit = transit_->read(conn.vip).value_or(0) != 0;
    auto* pool = in_transit ? dips_old_ : dips_new_;
    dip = static_cast<std::uint32_t>(pool->read(pool_base + dip_index).value_or(0));
    (void)conn_dip_->write(conn_slot, static_cast<std::uint64_t>(dip) + 1);
    ctx.costs().register_accesses += 3;
    if (in_transit) {
      ++stats_.to_old_pool;
    } else {
      ++stats_.to_new_pool;
    }
  }
  // The chosen DIP rides in the (model) packet toward out_port.
  Bytes forwarded = packet.payload;
  ByteWriter w(forwarded);
  w.u32(dip);
  return dataplane::PipelineOutput::unicast(config_.out_port, std::move(forwarded));
}

dataplane::PipelineModel SilkRoadProgram::pipeline_model() const {
  using M = dataplane::PipelineModel;
  M m;
  m.name = "silkroad";
  m.hash_uses.push_back(dataplane::HashUse::crc32("slk_conn_hash"));
  m.header_phv_bits = 8 + 80;
  m.metadata_phv_bits = 64;
  const auto entry = m.add(M::parse("conn"));
  m.then(entry, M::drop(), "malformed", {{"hdr.conn.valid", false}});
  const auto table = m.then(entry,
                            M::table({"slk_conn_table", dataplane::MatchKind::Exact, 64, 64,
                                      config_.conn_slots}),
                            "conn", {{"hdr.conn.valid", true}});
  const auto pinned = m.then(table, M::reg_read(*conn_dip_));
  const auto out = m.add(M::emit("data"));
  m.branch(pinned, out, "pinned", {{"conn.pinned", true}});
  const auto transit = m.then(pinned, M::reg_read(*transit_), "fresh",
                              {{"conn.pinned", false}});
  const auto old_pool = m.then(transit, M::reg_read(*dips_old_), "in_transit",
                               {{"vip.in_transit", true}});
  const auto new_pool = m.then(transit, M::reg_read(*dips_new_), "stable",
                               {{"vip.in_transit", false}});
  const auto pin = m.add(M::reg_write(*conn_dip_, 3));
  m.branch(old_pool, pin);
  m.branch(new_pool, pin);
  m.branch(pin, out);
  return m;
}

void SilkRoadManager::begin_migration(std::uint16_t vip, std::function<void(Status)> done) {
  controller_.run_register_ops(
      sw_, {{core::RegisterMsg::WriteReq, kTransitReg, vip, 1}},
      [done = std::move(done)](Result<std::vector<std::uint64_t>> r) { done(status_of(r)); });
}

void SilkRoadManager::finish_migration(std::uint16_t vip, std::function<void(Status)> done) {
  controller_.run_register_ops(
      sw_, {{core::RegisterMsg::WriteReq, kTransitReg, vip, 0}},
      [done = std::move(done)](Result<std::vector<std::uint64_t>> r) { done(status_of(r)); });
}

}  // namespace p4auth::apps::silkroad

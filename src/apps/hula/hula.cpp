#include "apps/hula/hula.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace p4auth::apps::hula {
namespace {

// Flow hash for flowlet placement (stand-in for the switch hash unit).
std::uint64_t flow_hash(std::uint64_t flow_id) {
  SplitMix64 mix(flow_id);
  return mix.next();
}

constexpr std::uint64_t kNoHop = 0;  // best_hop/flowlet sentinel: port+1 stored

}  // namespace

HulaProgram::HulaProgram(Config config, dataplane::RegisterFile& registers)
    : config_(config) {
  const auto tors = static_cast<std::size_t>(config_.max_tors);
  best_hop_ = registers.create("hula_best_hop", RegisterId{0xFFFE0001}, tors, 16).value();
  best_util_ = registers.create("hula_best_util", RegisterId{0xFFFE0002}, tors, 8).value();
  last_update_ = registers.create("hula_last_update", RegisterId{0xFFFE0003}, tors, 64).value();
  flowlet_port_ =
      registers.create("hula_flowlet_port", RegisterId{0xFFFE0004}, config_.flowlet_slots, 16)
          .value();
  flowlet_time_ =
      registers.create("hula_flowlet_time", RegisterId{0xFFFE0005}, config_.flowlet_slots, 64)
          .value();
  util_bytes_ = registers.create("hula_util_bytes", RegisterId{0xFFFE0006}, 64, 64).value();
  util_time_ = registers.create("hula_util_time", RegisterId{0xFFFE0007}, 64, 64).value();
}

void HulaProgram::bump_util(PortId port, std::size_t bytes, SimTime now) {
  if (port.value >= util_bytes_->size()) return;
  const double prev = static_cast<double>(util_bytes_->read(port.value).value_or(0));
  const auto last = SimTime::from_ns(util_time_->read(port.value).value_or(0));
  const double tau = static_cast<double>(config_.util_window.ns());
  const double decayed =
      now > last ? prev * std::exp(-static_cast<double>((now - last).ns()) / tau) : prev;
  (void)util_bytes_->write(port.value,
                           static_cast<std::uint64_t>(decayed + static_cast<double>(bytes)));
  (void)util_time_->write(port.value, now.ns());
}

std::uint8_t HulaProgram::util_pct(PortId port, SimTime now) const {
  if (port.value >= util_bytes_->size()) return 0;
  const double stored = static_cast<double>(util_bytes_->read(port.value).value_or(0));
  const auto last = SimTime::from_ns(util_time_->read(port.value).value_or(0));
  const double tau = static_cast<double>(config_.util_window.ns());
  const double decayed =
      now > last ? stored * std::exp(-static_cast<double>((now - last).ns()) / tau) : stored;
  const double fraction = decayed / config_.capacity_bytes_per_window;
  return static_cast<std::uint8_t>(std::min(255.0, fraction * 255.0));
}

dataplane::PipelineOutput HulaProgram::process(dataplane::Packet& packet,
                                               dataplane::PipelineContext& ctx) {
  if (packet.payload.empty()) return dataplane::PipelineOutput::drop();
  switch (packet.payload[0]) {
    case kProbeGenMagic:
      if (!config_.is_tor) return dataplane::PipelineOutput::drop();
      return generate_probe(ctx);
    case kProbeMagic:
      if (!decode_probe_into(packet.payload, probe_).ok()) return dataplane::PipelineOutput::drop();
      return handle_probe(packet, ctx);
    case kDataMagic: {
      auto data = decode_data(packet.payload);
      if (!data.ok()) return dataplane::PipelineOutput::drop();
      return handle_data(data.value(), packet, ctx);
    }
    default:
      return dataplane::PipelineOutput::drop();
  }
}

dataplane::PipelineOutput HulaProgram::generate_probe(dataplane::PipelineContext& ctx) {
  probe_.origin_tor = config_.self;
  probe_.max_util = 0;
  probe_.trace.clear();
  probe_.trace.push_back(HopRecord{config_.self, kCpuPort, 0});
  ++stats_.probes_generated;
  return replicate_probe(std::nullopt, ctx);
}

dataplane::PipelineOutput HulaProgram::replicate_probe(std::optional<PortId> except,
                                                       dataplane::PipelineContext& ctx) {
  // Each copy lands in a recycled pool buffer. The probe is encoded once,
  // straight into the first copy, and the others copy its bytes.
  dataplane::PipelineOutput out;
  const std::size_t size = encoded_probe_size(probe_);
  for (const PortId port : config_.probe_ports) {
    if (port == except) continue;
    Bytes copy = ctx.acquire_buffer(size);
    if (out.emits.empty()) {
      encode_probe_into(probe_, copy);
    } else {
      const Bytes& first = out.emits[0].payload;
      copy.assign(first.begin(), first.end());
    }
    out.emits.push_back(dataplane::Emit{port, std::move(copy)});
  }
  return out;
}

dataplane::PipelineOutput HulaProgram::handle_probe(dataplane::Packet& packet,
                                                    dataplane::PipelineContext& ctx) {
  ++stats_.probes_processed;
  const SimTime now = ctx.now();
  stats_.last_probe_time = now;
  ctx.costs().register_accesses += 2;

  Probe& probe = probe_;
  // Loop prevention: never process a probe we already stamped.
  for (const auto& hop : probe.trace) {
    if (hop.node == config_.self) return dataplane::PipelineOutput::drop();
  }

  const std::uint8_t link_util = util_pct(packet.ingress, now);
  probe.max_util = std::max(probe.max_util, link_util);

  const std::uint16_t tor = probe.origin_tor.value;
  if (tor >= best_hop_->size()) return dataplane::PipelineOutput::drop();

  // HULA update rule: adopt the probe's path if it beats the current best,
  // refreshes the current best hop, or the current entry went stale.
  const std::uint64_t current_hop = best_hop_->read(tor).value_or(kNoHop);
  const std::uint64_t current_util = best_util_->read(tor).value_or(255);
  const auto last = SimTime::from_ns(last_update_->read(tor).value_or(0));
  const bool stale = last.ns() == 0 || now - last > config_.entry_timeout;
  const std::uint64_t encoded_hop = static_cast<std::uint64_t>(packet.ingress.value) + 1;
  ctx.costs().register_accesses += 3;
  if (stale || current_hop == kNoHop || probe.max_util <= current_util ||
      current_hop == encoded_hop) {
    (void)best_hop_->write(tor, encoded_hop);
    (void)best_util_->write(tor, probe.max_util);
    (void)last_update_->write(tor, now.ns());
    ctx.costs().register_accesses += 3;
  }

  probe.trace.push_back(HopRecord{config_.self, packet.ingress, link_util});
  return replicate_probe(packet.ingress, ctx);
}

dataplane::PipelineOutput HulaProgram::handle_data(const DataPacket& data,
                                                   dataplane::Packet& packet,
                                                   dataplane::PipelineContext& ctx) {
  const SimTime now = ctx.now();

  if (config_.is_tor && data.dst_tor == config_.self) {
    ++stats_.data_delivered;
    return dataplane::PipelineOutput{};  // consumed
  }
  const std::uint16_t tor = data.dst_tor.value;
  if (tor >= best_hop_->size()) {
    ++stats_.data_dropped;
    return dataplane::PipelineOutput::drop();
  }

  // Flowlet stickiness: reuse the slot's port while the gap is small.
  const std::size_t slot = flow_hash(data.flow_id) % config_.flowlet_slots;
  ctx.costs().add_hash(sizeof(data.flow_id));
  const std::uint64_t slot_port = flowlet_port_->read(slot).value_or(kNoHop);
  const auto slot_time = SimTime::from_ns(flowlet_time_->read(slot).value_or(0));
  ctx.costs().register_accesses += 2;
  ++ctx.costs().table_lookups;
  ctx.note_table("hula_tor_fwd");

  std::uint64_t chosen = kNoHop;
  if (slot_port != kNoHop && now - slot_time < config_.flowlet_timeout) {
    chosen = slot_port;
  } else {
    const std::uint64_t hop = best_hop_->read(tor).value_or(kNoHop);
    const auto last = SimTime::from_ns(last_update_->read(tor).value_or(0));
    ctx.costs().register_accesses += 2;
    if (hop != kNoHop && last.ns() != 0 && now - last <= config_.entry_timeout) chosen = hop;
  }
  if (chosen == kNoHop) {
    ++stats_.data_dropped;
    return dataplane::PipelineOutput::drop();
  }
  (void)flowlet_port_->write(slot, chosen);
  (void)flowlet_time_->write(slot, now.ns());
  ctx.costs().register_accesses += 2;

  const PortId egress{static_cast<std::uint16_t>(chosen - 1)};
  // Utilization is measured on the *egress* port: probes travel against
  // the data direction and read the load of the link they just crossed in
  // the data direction.
  bump_util(egress, data.size_bytes, now);
  ctx.costs().register_accesses += 2;
  ++stats_.data_forwarded;
  stats_.egress_bytes[egress] += data.size_bytes;
  // The forwarded frame reuses the ingress buffer — no copy, no alloc.
  return dataplane::PipelineOutput::unicast(egress, std::move(packet.payload));
}

std::optional<PortId> HulaProgram::best_hop(NodeId tor, SimTime now) const {
  if (tor.value >= best_hop_->size()) return std::nullopt;
  const std::uint64_t hop = best_hop_->read(tor.value).value_or(kNoHop);
  const auto last = SimTime::from_ns(last_update_->read(tor.value).value_or(0));
  if (hop == kNoHop || last.ns() == 0 || now - last > config_.entry_timeout) return std::nullopt;
  return PortId{static_cast<std::uint16_t>(hop - 1)};
}

dataplane::PipelineModel HulaProgram::pipeline_model() const {
  using M = dataplane::PipelineModel;
  M m;
  m.name = "hula";
  m.hash_uses.push_back(dataplane::HashUse::crc32("flowlet_hash"));
  m.header_phv_bits = 8 + 32 + 8 * static_cast<int>(kHopRecordSize);  // probe hdr + 1 record
  m.metadata_phv_bits = 128;
  const auto entry = m.add(M::parse("hula"));
  m.then(entry, M::drop(), "malformed", {{"hdr.hula.valid", false}});

  // Probe generation trigger (CPU): replicate a fresh probe on every
  // probe port; non-ToR switches ignore the trigger.
  const auto gen = m.then(entry, M::parse("probe_gen"),
                          "probe_gen", {{"hdr.hula.valid", true}, {"hdr.probe_gen", true}});
  m.then(gen, M::drop(), "not_tor", {{"cfg.is_tor", false}});
  m.then(gen, M::emit("probe", /*protected_port=*/false, /*multi=*/true), "tor",
         {{"cfg.is_tor", true}});

  // Probe propagation: update the best-hop state, stamp the trace, and
  // replicate on every probe port except the ingress.
  const auto probe = m.then(entry, M::parse("probe"),
                            "probe", {{"hdr.hula.valid", true}, {"hdr.probe", true}});
  m.then(probe, M::drop(), "loop", {{"probe.seen_self", true}});
  const auto util = m.then(probe, M::reg_read(*util_bytes_), "fresh",
                           {{"probe.seen_self", false}});
  const auto util2 = m.then(util, M::reg_read(*util_time_));
  m.then(util2, M::drop(), "tor_oob", {{"probe.tor_in_range", false}});
  const auto best = m.then(util2, M::reg_read(*best_hop_), "in_range",
                           {{"probe.tor_in_range", true}});
  const auto best2 = m.then(best, M::reg_read(*best_util_));
  const auto best3 = m.then(best2, M::reg_read(*last_update_));
  const auto fwd_probe =
      m.add(M::emit("probe", /*protected_port=*/false, /*multi=*/true));
  m.branch(best3, fwd_probe, "keep", {{"probe.adopt", false}});
  const auto adopt = m.then(best3, M::reg_write(*best_hop_), "adopt",
                            {{"probe.adopt", true}});
  const auto adopt2 = m.then(adopt, M::reg_write(*best_util_));
  const auto adopt3 = m.then(adopt2, M::reg_write(*last_update_));
  m.branch(adopt3, fwd_probe);

  // Data forwarding: flowlet stickiness, then the best-hop table.
  const auto data = m.then(entry, M::parse("data"),
                           "data", {{"hdr.hula.valid", true}, {"hdr.data", true}});
  m.then(data, M::consume(), "self_sink", {{"data.self_sink", true}});
  const auto fp = m.then(data, M::reg_read(*flowlet_port_), "transit",
                         {{"data.self_sink", false}});
  const auto ft = m.then(fp, M::reg_read(*flowlet_time_));
  const auto tor_fwd =
      m.then(ft, M::table({"hula_tor_fwd", dataplane::MatchKind::Exact, 16, 64, 64}));
  const auto choose_best = m.then(tor_fwd, M::reg_read(*best_hop_), "flowlet_stale",
                                  {{"flowlet.live", false}});
  const auto choose_best2 = m.then(choose_best, M::reg_read(*last_update_));
  const auto no_hop = m.add(M::drop());
  m.branch(choose_best2, no_hop, "no_hop", {{"hop.known", false}});
  const auto pin = m.add(M::reg_write(*flowlet_port_));
  m.branch(tor_fwd, pin, "flowlet_hit", {{"flowlet.live", true}});
  m.branch(choose_best2, pin, "best_hop", {{"hop.known", true}});
  const auto pin2 = m.then(pin, M::reg_write(*flowlet_time_));
  const auto bump = m.then(pin2, M::reg_write(*util_bytes_));
  const auto bump2 = m.then(bump, M::reg_write(*util_time_));
  m.then(bump2, M::emit("data"));
  return m;
}

}  // namespace p4auth::apps::hula

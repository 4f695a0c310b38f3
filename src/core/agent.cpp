#include "core/agent.hpp"

#include <array>

#include "common/logging.hpp"
#include "core/auth.hpp"
#include "core/lldp.hpp"
#include "crypto/stream_cipher.hpp"

namespace p4auth::core {
namespace {

constexpr std::size_t kRegMapCapacity = 256;

/// Nonce for feedback encryption: unique per (sender, key version, seq)
/// within a key's lifetime — the KMP rolls keys before seq wrap (§VIII).
std::uint64_t feedback_nonce(const Header& header) noexcept {
  return (static_cast<std::uint64_t>(header.src.value) << 32) |
         (static_cast<std::uint64_t>(header.key_version.value) << 16) | header.seq_num;
}

/// reg_map_ key: reg id (u32, network order) | op (u8). Returned by value
/// as a stack array so per-request lookups never materialise a heap Bytes.
std::array<std::uint8_t, 5> map_key_bytes(RegisterId id, RegisterMsg op) noexcept {
  return {static_cast<std::uint8_t>(id.value >> 24), static_cast<std::uint8_t>(id.value >> 16),
          static_cast<std::uint8_t>(id.value >> 8), static_cast<std::uint8_t>(id.value),
          static_cast<std::uint8_t>(op)};
}

constexpr int kActionRead = 1;
constexpr int kActionWrite = 2;

}  // namespace

P4AuthAgent::P4AuthAgent(Config config, dataplane::RegisterFile& registers,
                         std::unique_ptr<dataplane::DataPlaneProgram> inner)
    : config_(config),
      registers_(registers),
      inner_(std::move(inner)),
      keys_(registers, config.num_ports),
      digest_(config.mac),
      reg_map_("reg_id_to_name_mapping", /*key_bits=*/40, kRegMapCapacity),
      slots_(static_cast<std::size_t>(config.num_ports) + 1),
      alert_limiter_(config.alert_rate_limit, config.alert_window) {}

P4AuthAgent::PortSlot* P4AuthAgent::slot(PortId port) noexcept {
  return port.value < slots_.size() ? &slots_[port.value] : nullptr;
}

P4AuthAgent::PortSlot* P4AuthAgent::data_slot(PortId port) noexcept {
  return port == kCpuPort ? nullptr : slot(port);
}

void P4AuthAgent::set_neighbor(PortId port, NodeId peer) {
  PortSlot* s = data_slot(port);
  if (s == nullptr) return;
  s->neighbor = peer;
  port_of_peer_[peer] = port;
}

Status P4AuthAgent::expose_register(RegisterId id, std::string name) {
  if (exposed_by_id_.contains(id)) return make_error("register id already exposed");
  const auto name_index = static_cast<std::uint64_t>(exposed_.size());
  if (auto s = reg_map_.insert(map_key_bytes(id, RegisterMsg::ReadReq),
                               dataplane::Action{kActionRead, name_index});
      !s.ok()) {
    return s;
  }
  if (auto s = reg_map_.insert(map_key_bytes(id, RegisterMsg::WriteReq),
                               dataplane::Action{kActionWrite, name_index});
      !s.ok()) {
    return s;
  }
  exposed_.push_back({name});
  exposed_by_id_.emplace(id, std::move(name));
  return {};
}

void P4AuthAgent::add_protected_magic(std::uint8_t magic) {
  protected_magics_.push_back(magic);
}

bool P4AuthAgent::is_protected_magic(const Bytes& payload) const noexcept {
  if (payload.empty()) return false;
  for (const std::uint8_t magic : protected_magics_) {
    if (payload[0] == magic) return true;
  }
  return false;
}

std::optional<PortId> P4AuthAgent::port_of_neighbor(NodeId peer) const {
  const auto it = port_of_peer_.find(peer);
  if (it == port_of_peer_.end()) return std::nullopt;
  return it->second;
}

void P4AuthAgent::install_key(PortId slot, Key64 key, dataplane::PipelineContext& ctx) {
  keys_.install(slot, key);
  ctx.costs().register_accesses += 2;  // key register + install counter
  ++stats_.key_installs;
  stats_.last_key_install = ctx.now();
  note_key_install(ctx, slot);
}

P4AuthAgent::TeleSeries* P4AuthAgent::tele(dataplane::PipelineContext& ctx) {
  telemetry::Telemetry* t = ctx.telemetry();
  if (t == nullptr) return nullptr;
  if (tele_.bound != t) {
    const telemetry::Labels labels{{"switch", std::to_string(config_.self.value)}};
    auto& m = t->metrics;
    tele_.bound = t;
    tele_.verify_ok = &m.counter("auth.verify_ok", labels);
    tele_.verify_fail = &m.counter("auth.verify_fail", labels);
    tele_.replay_drops = &m.counter("auth.replay_drops", labels);
    tele_.unauth_drops = &m.counter("auth.unauth_feedback_drops", labels);
    tele_.alerts_sent = &m.counter("dos.alerts_sent", labels);
    tele_.alerts_suppressed = &m.counter("dos.alerts_suppressed", labels);
    tele_.table_hits = &m.counter("dataplane.reg_map_hits", labels);
    tele_.table_misses = &m.counter("dataplane.reg_map_misses", labels);
    tele_.key_installs = &m.counter("keys.installs", labels);
  }
  return &tele_;
}

void P4AuthAgent::note_table_lookup(dataplane::PipelineContext& ctx, bool hit, RegisterId reg) {
  TeleSeries* t = tele(ctx);
  if (t == nullptr) return;
  (hit ? t->table_hits : t->table_misses)->inc();
  t->bound->record(ctx.now(), config_.self, kCpuPort,
                         hit ? telemetry::TraceEventKind::TableHit
                             : telemetry::TraceEventKind::TableMiss,
                         reg.value);
}

void P4AuthAgent::note_unauth_drop(dataplane::PipelineContext& ctx, PortId port) {
  TeleSeries* t = tele(ctx);
  if (t == nullptr) return;
  t->unauth_drops->inc();
  t->bound->record(ctx.now(), config_.self, port, telemetry::TraceEventKind::UnauthDrop);
}

void P4AuthAgent::note_alert(dataplane::PipelineContext& ctx, bool suppressed, AlertMsg code) {
  TeleSeries* t = tele(ctx);
  if (t == nullptr) return;
  (suppressed ? t->alerts_suppressed : t->alerts_sent)->inc();
  t->bound->record(ctx.now(), config_.self, kCpuPort,
                         suppressed ? telemetry::TraceEventKind::AlertSuppressed
                                    : telemetry::TraceEventKind::AlertSent,
                         static_cast<std::uint64_t>(code));
}

void P4AuthAgent::note_key_install(dataplane::PipelineContext& ctx, PortId slot) {
  TeleSeries* t = tele(ctx);
  if (t == nullptr) return;
  t->key_installs->inc();
  t->bound->metrics
      .gauge("keys.generation", telemetry::Labels{{"switch", std::to_string(config_.self.value)},
                                                  {"slot", std::to_string(slot.value)}})
      .set(static_cast<double>(keys_.current_version(slot).value));
  t->bound->record(ctx.now(), config_.self, slot, telemetry::TraceEventKind::KeyInstall,
                         keys_.current_version(slot).value);
}

Message P4AuthAgent::make_response(const Message& request, std::uint8_t msg_type,
                                   Payload payload) const {
  Message response;
  response.header.hdr_type = request.header.hdr_type;
  response.header.msg_type = msg_type;
  response.header.seq_num = request.header.seq_num;  // maps response to request
  response.header.key_version = request.header.key_version;
  response.header.flags =
      static_cast<std::uint8_t>(kFlagResponse | (request.header.flags & kFlagPortScope));
  response.header.src = config_.self;
  response.header.dst = request.header.src;
  response.payload = std::move(payload);
  return response;
}

Message P4AuthAgent::originate(PortId channel, HdrType type, std::uint8_t msg_type, NodeId dst,
                               std::uint8_t flags, Payload payload) {
  Message msg;
  msg.header.hdr_type = type;
  msg.header.msg_type = msg_type;
  msg.header.seq_num = slot(channel)->tx.next();
  msg.header.key_version = keys_.current_version(channel);
  msg.header.flags = flags;
  msg.header.src = config_.self;
  msg.header.dst = dst;
  msg.payload = std::move(payload);
  return msg;
}

Message P4AuthAgent::answer_adhkd(const Message& request, PortId slot,
                                  dataplane::PipelineContext& ctx) {
  const AdhkdResponse adhkd =
      adhkd_respond(config_.schedule, std::get<AdhkdPayload>(request.payload), ctx.rng());
  ctx.costs().add_hash(17);  // KDF PRF work (extract + 2x expand folded)
  install_key(slot, adhkd.master, ctx);
  return make_response(request, request.header.msg_type, adhkd.reply);
}

Bytes P4AuthAgent::start_port_exchange(KeyExchMsg kind, PortId port, NodeId peer, Bytes frame,
                                       dataplane::PipelineContext& ctx) {
  std::optional<AdhkdInitiator>& pending = data_slot(port)->pending;
  pending.emplace(config_.schedule);
  const AdhkdPayload leg = pending->start(ctx.rng());
  const PortId channel = kind == KeyExchMsg::InitKeyExch ? kCpuPort : port;
  Message msg = originate(channel, HdrType::KeyExchange, static_cast<std::uint8_t>(kind), peer,
                          kFlagPortScope, leg);
  return channel == kCpuPort ? seal_local(msg, std::move(frame), ctx)
                             : seal(msg, *keys_.current(port), std::move(frame), ctx);
}

bool P4AuthAgent::finish_port_exchange(PortId port, const AdhkdPayload& answer,
                                       dataplane::PipelineContext& ctx) {
  PortSlot* s = data_slot(port);
  if (s == nullptr || !s->pending.has_value()) return false;
  const Key64 master = s->pending->finish(answer);
  ctx.costs().add_hash(17);
  s->pending.reset();
  install_key(port, master, ctx);
  return true;
}

Bytes P4AuthAgent::seal(const Message& msg, Key64 key, Bytes out,
                         dataplane::PipelineContext& ctx) const {
  encode_into(msg, out);
  const DigestCover cover = digest_cover(out);
  write_digest(out, digest_.compute(key, cover.head, cover.tail, ctx.costs()));
  return out;
}

Bytes P4AuthAgent::seal_local(Message& msg, Bytes out, dataplane::PipelineContext& ctx) const {
  if (!config_.auth_enabled) {
    encode_into(msg, out);
    return out;
  }
  // Before local-key init the boot secret K_seed stands in; the version
  // is then 0, the header's default.
  msg.header.key_version = keys_.current_version(kCpuPort);
  return seal(msg, keys_.current(kCpuPort).value_or(config_.k_seed), std::move(out), ctx);
}

P4AuthAgent::Admission P4AuthAgent::admit(std::string_view site,
                                          std::span<const std::uint8_t> frame,
                                          const Header& header, const std::optional<Key64>& key,
                                          PortId port, bool replay_check,
                                          dataplane::PipelineContext& ctx) {
  PortSlot* const s = slot(port);  // null only past the key store's range: no key either
  const DigestCover cover = digest_cover(frame);
  const bool verified = s != nullptr && key.has_value() &&
                        digest_.verify(*key, cover.head, cover.tail, header.digest, ctx.costs());
  ctx.note_verify(site, verified);
  TeleSeries* t = tele(ctx);
  if (t != nullptr) {
    (verified ? t->verify_ok : t->verify_fail)->inc();
    t->bound->record(ctx.now(), config_.self, port,
                     verified ? telemetry::TraceEventKind::VerifyOk
                              : telemetry::TraceEventKind::VerifyFail,
                     header.seq_num, static_cast<std::uint64_t>(header.hdr_type));
  }
  if (!verified) {
    ++stats_.digest_failures;
    return Admission::Forged;
  }
  if (replay_check && !s->rx.accept(header.seq_num)) {
    ++stats_.replay_rejections;
    if (t != nullptr) {
      t->replay_drops->inc();
      t->bound->record(ctx.now(), config_.self, port, telemetry::TraceEventKind::ReplayDrop,
                       header.seq_num, s->rx.last());
    }
    return Admission::Replayed;
  }
  return Admission::Admitted;
}

void P4AuthAgent::reject(dataplane::PipelineOutput& out, dataplane::PipelineContext& ctx,
                         Admission verdict, std::uint32_t context, const Header& header,
                         PortId port) {
  const bool forged = verdict == Admission::Forged;
  push_alert(out, ctx, forged ? AlertMsg::DigestMismatch : AlertMsg::ReplayDetected, context,
             header.seq_num, forged ? std::uint16_t{0} : slot(port)->rx.last());
}

void P4AuthAgent::push_alert(dataplane::PipelineOutput& out, dataplane::PipelineContext& ctx,
                             AlertMsg code, std::uint32_t context, std::uint16_t observed,
                             std::uint16_t expected, std::uint32_t detail) {
  out.dropped = true;
  if (!config_.auth_enabled) return;
  if (!alert_limiter_.allow(ctx.now())) {
    ++stats_.alerts_suppressed;
    note_alert(ctx, /*suppressed=*/true, code);
    return;
  }
  Message alert = originate(kCpuPort, HdrType::Alert, static_cast<std::uint8_t>(code),
                            kControllerId, 0, AlertPayload{context, observed, expected, detail});
  // Sealed with the local key so the controller can trust it.
  out.to_cpu.push_back(seal_local(alert, ctx.acquire_buffer(encoded_size(alert.payload)), ctx));
  ++stats_.alerts_sent;
  note_alert(ctx, /*suppressed=*/false, code);
}

dataplane::PipelineOutput P4AuthAgent::process(dataplane::Packet& packet,
                                               dataplane::PipelineContext& ctx) {
  if (packet.ingress == kCpuPort) {
    auto decoded = decode(packet.payload);
    if (!decoded.ok()) {
      dataplane::PipelineOutput out = dataplane::PipelineOutput::drop();
      push_alert(out, ctx, AlertMsg::DigestMismatch, 0, 0, 0, /*detail=*/1);
      return out;
    }
    const Message& msg = decoded.value();
    if (msg.header.hdr_type == HdrType::RegisterOp) {
      return handle_register_op(msg, packet.payload, ctx);
    }
    if (msg.header.hdr_type == HdrType::KeyExchange && config_.auth_enabled) {
      return handle_key_exchange_cpu(msg, packet.payload, ctx);
    }
    return dataplane::PipelineOutput::drop();
  }

  if (looks_like_p4auth(packet.payload)) {
    const auto header = decode_header(packet.payload);
    if (header.ok() && header.value().hdr_type == HdrType::DpData) {
      return handle_dp_data(header.value(), packet, ctx);
    }
    const auto decoded = decode(packet.payload);
    if (decoded.ok()) {
      const Message& msg = decoded.value();
      if (msg.header.hdr_type == HdrType::KeyExchange) {
        return handle_key_exchange_port(msg, packet.payload, packet.ingress, ctx);
      }
      // RegisterOp / Alert frames have no business on a data port.
      dataplane::PipelineOutput out = dataplane::PipelineOutput::drop();
      push_alert(out, ctx, AlertMsg::DigestMismatch, packet.ingress.value, msg.header.seq_num, 0,
                 /*detail=*/2);
      return out;
    }
    // Fell through: a frame that starts like p4auth but fails to parse is
    // treated as plain traffic (first-byte collision with user payloads).
  }

  // LLDP neighbour discovery (§VI-C): a trigger makes us announce on all
  // ports; an announcement heard on a port teaches us the adjacency and
  // is reported to the controller, which auto-initializes the port key.
  if (!packet.payload.empty() && packet.payload[0] == kLldpGenMagic) {
    dataplane::PipelineOutput out;
    for (std::uint16_t port = 1; port <= static_cast<std::uint16_t>(config_.num_ports);
         ++port) {
      out.emits.push_back(
          dataplane::Emit{PortId{port}, encode_lldp(LldpAnnouncement{config_.self, PortId{port}})});
    }
    ++stats_.lldp_announcement_rounds;
    return out;
  }
  if (!packet.payload.empty() && packet.payload[0] == kLldpMagic &&
      packet.ingress != kCpuPort) {
    const auto announcement = decode_lldp(packet.payload);
    if (!announcement.ok()) return dataplane::PipelineOutput::drop();
    set_neighbor(packet.ingress, announcement.value().sender);
    ++stats_.lldp_neighbors_learned;
    dataplane::PipelineOutput out;
    out.to_cpu.push_back(encode_lldp_report(LldpReport{announcement.value().sender,
                                                       announcement.value().sender_port,
                                                       config_.self, packet.ingress}));
    return out;
  }

  // Enforcement applies only on switch-facing ports: in-network feedback
  // always crosses switch-to-switch links tagged, while host-facing and
  // generator ports legitimately originate raw probes.
  const PortSlot* ingress = data_slot(packet.ingress);
  if (config_.auth_enabled && config_.enforce_feedback_auth && ingress != nullptr &&
      ingress->neighbor.has_value() && is_protected_magic(packet.payload)) {
    // A protected in-network message arrived without authentication —
    // either a stripped tag or an injected forgery.
    ++stats_.unauth_feedback_dropped;
    note_unauth_drop(ctx, packet.ingress);
    dataplane::PipelineOutput out = dataplane::PipelineOutput::drop();
    push_alert(out, ctx, AlertMsg::MissingAuth, packet.ingress.value, 0, 0);
    return out;
  }

  return run_inner(packet, ctx);
}

dataplane::PipelineOutput P4AuthAgent::handle_register_op(const Message& msg, Bytes& frame,
                                                          dataplane::PipelineContext& ctx) {
  dataplane::PipelineOutput out;
  const auto op = static_cast<RegisterMsg>(msg.header.msg_type);
  if (op != RegisterMsg::ReadReq && op != RegisterMsg::WriteReq) {
    return dataplane::PipelineOutput::drop();  // responses are not for us
  }
  const auto& req = std::get<RegisterOpPayload>(msg.payload);

  const auto nack = [&](AlertMsg code, std::uint32_t detail) {
    Message response = make_response(msg, static_cast<std::uint8_t>(RegisterMsg::NAck),
                                     RegisterOpPayload{req.reg_id, req.index, 0});
    out.to_cpu.push_back(seal_local(response, std::move(frame), ctx));
    ++stats_.nacks_sent;
    push_alert(out, ctx, code, req.reg_id.value, msg.header.seq_num, slot(kCpuPort)->rx.last(),
               detail);
  };

  if (config_.auth_enabled) {
    // Before local-key init the boot secret authenticates requests, the
    // same fallback the controller applies.
    std::optional<Key64> key = keys_.get(kCpuPort, msg.header.key_version);
    if (!key.has_value() && !keys_.has_key(kCpuPort)) key = config_.k_seed;
    const Admission verdict = admit("cdp_verify", frame, msg.header, key, kCpuPort,
                                    /*replay_check=*/true, ctx);
    if (verdict == Admission::Forged) {
      nack(AlertMsg::DigestMismatch, 0);
      return out;
    }
    if (verdict == Admission::Replayed) {
      reject(out, ctx, verdict, req.reg_id.value, msg.header, kCpuPort);
      return out;
    }
  }

  // reg_id_to_name_mapping lookup (Fig. 15).
  ++ctx.costs().table_lookups;
  ctx.note_table(reg_map_.shape().name);
  const auto action = reg_map_.lookup(map_key_bytes(req.reg_id, op));
  note_table_lookup(ctx, action.has_value(), req.reg_id);
  if (!action.has_value()) {
    nack(AlertMsg::UnknownRegister, 0);
    return out;
  }
  Exposed& exposed = exposed_[action->data];
  if (exposed.array == nullptr) exposed.array = ctx.registers().by_name(exposed.name);
  dataplane::RegisterArray* reg = exposed.array;
  if (reg == nullptr) {
    nack(AlertMsg::UnknownRegister, 1);
    return out;
  }

  std::uint64_t result_value = 0;
  ++ctx.costs().register_accesses;
  if (action->action_id == kActionRead) {
    const auto value = reg->read(req.index);
    if (!value.ok()) {
      nack(AlertMsg::UnknownRegister, 2);
      return out;
    }
    result_value = value.value();
    ++stats_.reads_served;
  } else {
    if (!reg->write(req.index, req.value).ok()) {
      nack(AlertMsg::UnknownRegister, 2);
      return out;
    }
    result_value = req.value;
    ++stats_.writes_served;
  }

  Message ack = make_response(msg, static_cast<std::uint8_t>(RegisterMsg::Ack),
                              RegisterOpPayload{req.reg_id, req.index, result_value});
  out.to_cpu.push_back(seal_local(ack, std::move(frame), ctx));
  return out;
}

dataplane::PipelineOutput P4AuthAgent::handle_key_exchange_cpu(const Message& msg, Bytes& frame,
                                                               dataplane::PipelineContext& ctx) {
  dataplane::PipelineOutput out;
  const auto kind = static_cast<KeyExchMsg>(msg.header.msg_type);

  // Resolve which key must authenticate this message (§VI-C): K_seed
  // for EAK, K_auth for the local-key init leg, else the local key at
  // the tagged version.
  std::optional<Key64> verify_key = keys_.get(kCpuPort, msg.header.key_version);
  if (kind == KeyExchMsg::EakExch) verify_key = config_.k_seed;
  if (kind == KeyExchMsg::InitKeyExch && !msg.header.is_port_scope()) verify_key = k_auth_;

  if (const Admission verdict = admit("kmp_verify", frame, msg.header, verify_key, kCpuPort,
                                      /*replay_check=*/!msg.header.is_response(), ctx);
      verdict != Admission::Admitted) {
    reject(out, ctx, verdict, static_cast<std::uint32_t>(kind), msg.header, kCpuPort);
    return out;
  }

  switch (kind) {
    case KeyExchMsg::EakExch: {
      if (msg.header.is_response()) break;  // DP never initiates EAK
      const auto& request = std::get<EakPayload>(msg.payload);
      const EakResponse eak = eak_respond(config_.schedule, config_.k_seed, request, ctx.rng());
      ctx.costs().add_hash(17);  // KDF PRF work (extract + 2x expand folded)
      k_auth_ = eak.k_auth;
      const Message response = make_response(msg, msg.header.msg_type, eak.reply);
      out.to_cpu.push_back(seal(response, config_.k_seed, std::move(frame), ctx));
      break;
    }

    case KeyExchMsg::InitKeyExch: {
      if (!msg.header.is_port_scope()) {
        // Local-key init leg, authenticated by K_auth; we respond and
        // install the new local key.
        if (msg.header.is_response()) break;
        const Message response = answer_adhkd(msg, kCpuPort, ctx);
        out.to_cpu.push_back(seal(response, *verify_key, std::move(frame), ctx));
        break;
      }
      // Port-scope leg redirected via the controller: src is the peer DP.
      const auto port = port_of_neighbor(msg.header.src);
      if (!port.has_value()) {
        push_alert(out, ctx, AlertMsg::DigestMismatch, msg.header.src.value, msg.header.seq_num,
                   0, /*detail=*/3);
        break;
      }
      if (!msg.header.is_response()) {
        Message response = answer_adhkd(msg, *port, ctx);
        out.to_cpu.push_back(seal_local(response, std::move(frame), ctx));
      } else {
        finish_port_exchange(*port, std::get<AdhkdPayload>(msg.payload), ctx);
      }
      break;
    }

    case KeyExchMsg::UpdKeyExch: {
      // Local-key update: C initiates, we respond sealed under the old
      // key (verify_key holds it) and install the new one.
      if (msg.header.is_response() || msg.header.is_port_scope()) break;
      const Message response = answer_adhkd(msg, kCpuPort, ctx);
      out.to_cpu.push_back(seal(response, *verify_key, std::move(frame), ctx));
      break;
    }

    case KeyExchMsg::PortKeyInit:
    case KeyExchMsg::PortKeyUpdate: {
      const auto& request = std::get<PortKeyPayload>(msg.payload);
      // Only a data port has a port key, and an update runs under the
      // current one: refused before any state changes.
      if (data_slot(request.port) == nullptr ||
          (kind == KeyExchMsg::PortKeyUpdate && !keys_.has_key(request.port))) {
        push_alert(out, ctx, AlertMsg::DigestMismatch, request.port.value, msg.header.seq_num, 0,
                   /*detail=*/4);
        break;
      }
      if (kind == KeyExchMsg::PortKeyInit) {
        // Begin ADHKD toward the peer, redirected via the controller.
        set_neighbor(request.port, request.peer);
        out.to_cpu.push_back(start_port_exchange(KeyExchMsg::InitKeyExch, request.port,
                                                 request.peer, std::move(frame), ctx));
      } else {
        // Begin ADHKD directly over the link, authenticated by the current
        // port key (§VI-C: "directly managed by the data planes").
        out.emits.push_back(dataplane::Emit{
            request.port, start_port_exchange(KeyExchMsg::UpdKeyExch, request.port,
                                              request.peer, std::move(frame), ctx)});
      }
      break;
    }
  }
  return out;
}

dataplane::PipelineOutput P4AuthAgent::handle_dp_data(const Header& header,
                                                      dataplane::Packet& packet,
                                                      dataplane::PipelineContext& ctx) {
  const PortId port = packet.ingress;
  dataplane::PipelineOutput out;

  const auto key = keys_.get(port, header.key_version);
  if (const Admission verdict = admit("dp_verify", packet.payload, header, key, port,
                                      /*replay_check=*/true, ctx);
      verdict != Admission::Admitted) {
    if (verdict == Admission::Forged) ++stats_.feedback_rejected;
    reject(out, ctx, verdict, port.value, header, port);
    return out;
  }
  ++stats_.feedback_verified;

  // Verified and fresh: only now strip the header, in place. The inner
  // program runs on the ingress buffer, which the switch recycles as
  // usual once the pass is over.
  packet.payload.erase(packet.payload.begin(),
                       packet.payload.begin() + static_cast<std::ptrdiff_t>(kHeaderSize));
  if (header.is_encrypted()) {
    // MAC already verified over the ciphertext; now decrypt with the key
    // derived from the same port master secret.
    const Key64 enc_key =
        config_.schedule.kdf.derive_labeled(*key, 0, crypto::kEncryptionLabel);
    crypto::xor_keystream(enc_key, feedback_nonce(header), packet.payload);
    ctx.costs().add_hash(packet.payload.size());
  }
  return run_inner(packet, ctx);
}

dataplane::PipelineOutput P4AuthAgent::handle_key_exchange_port(const Message& msg, Bytes& frame,
                                                                PortId ingress,
                                                                dataplane::PipelineContext& ctx) {
  dataplane::PipelineOutput out;
  const auto kind = static_cast<KeyExchMsg>(msg.header.msg_type);
  if (kind != KeyExchMsg::UpdKeyExch || !msg.header.is_port_scope()) {
    out.dropped = true;
    return out;
  }

  const auto key = keys_.get(ingress, msg.header.key_version);
  if (const Admission verdict = admit("kmp_port_verify", frame, msg.header, key, ingress,
                                      /*replay_check=*/!msg.header.is_response(), ctx);
      verdict != Admission::Admitted) {
    reject(out, ctx, verdict, ingress.value, msg.header, ingress);
    return out;
  }

  if (!msg.header.is_response()) {
    // Answered under the key that verified the request, not the new one.
    const Message response = answer_adhkd(msg, ingress, ctx);
    out.emits.push_back(dataplane::Emit{ingress, seal(response, *key, std::move(frame), ctx)});
  } else if (!finish_port_exchange(ingress, std::get<AdhkdPayload>(msg.payload), ctx)) {
    out.dropped = true;
  }
  return out;
}

dataplane::PipelineOutput P4AuthAgent::run_inner(dataplane::Packet& packet,
                                                 dataplane::PipelineContext& ctx) {
  if (inner_ == nullptr) return dataplane::PipelineOutput::drop();
  dataplane::PipelineOutput out = inner_->process(packet, ctx);
  if (!config_.auth_enabled) return out;

  for (auto& emit : out.emits) {
    if (!is_protected_magic(emit.payload)) continue;
    const PortSlot* egress = data_slot(emit.port);
    const auto key = keys_.current(emit.port);
    if (egress == nullptr || !key.has_value()) continue;  // no port key yet: leaves untagged

    Message frame = originate(emit.port, HdrType::DpData, 1, egress->neighbor.value_or(NodeId{}),
                              config_.encrypt_feedback ? kFlagEncrypted : 0,
                              DpDataPayload{std::move(emit.payload)});
    Bytes& inner = std::get<DpDataPayload>(frame.payload).inner;
    if (config_.encrypt_feedback) {
      // Encrypt-then-MAC: the digest below covers the ciphertext.
      const Key64 enc_key =
          config_.schedule.kdf.derive_labeled(*key, 0, crypto::kEncryptionLabel);
      crypto::xor_keystream(enc_key, feedback_nonce(frame.header), inner);
      ctx.costs().add_hash(inner.size());  // keystream generation
    }
    // Pool-backed wrap: the sealed frame reuses a recycled buffer and the
    // consumed inner buffer goes back to the pool for the next emit.
    emit.payload = seal(frame, *key, ctx.acquire_buffer(encoded_size(frame.payload)), ctx);
    ctx.release_buffer(std::move(inner));
    ++stats_.feedback_tagged;
  }
  return out;
}

dataplane::PipelineModel P4AuthAgent::pipeline_model() const {
  // The behavioural contract of the agent with authentication enabled
  // (the only mode the lint registry exercises): every frame class the
  // dispatcher recognises, every verify outcome, and the wrapped
  // program's own model spliced in where inner traffic resumes.
  using M = dataplane::PipelineModel;
  const M inner_model = inner_ != nullptr ? inner_->pipeline_model() : M{};
  M m;
  m.name = inner_model.name + "+p4auth";
  // Notional P4 state the agent keeps in host structures (replay windows,
  // alert limiter, pending port exchanges): billed, but with no array.
  const dataplane::RegisterShape seq{"p4auth_seq", 16384u * 32u};
  const dataplane::RegisterShape alert_cnt{"p4auth_alert_cnt", 2u * 4096u * 32u};
  const dataplane::RegisterShape pending{"p4auth_pending", 2u * 4096u * 32u};
  const auto entry = m.add(M::parse("p4auth_agent"));
  const auto dropped = m.add(M::drop());
  const auto consumed = m.add(M::consume());

  // Alert chain (push_alert): the rate limiter either suppresses the
  // alert or a key-tagged PacketIn leaves; the triggering frame is
  // dropped either way.
  const auto alert_rd = m.add(M::reg_read(alert_cnt));
  m.branch(alert_rd, dropped, "suppressed", {{"alert.allowed", false}});
  const auto alert_wr = m.then(alert_rd, M::reg_write(alert_cnt), "allowed",
                               {{"alert.allowed", true}});
  const auto alert_tag =
      m.then(m.then(alert_wr, M::reg_read(keys_.bank_a())), M::digest("digest_compute"));
  m.branch(m.then(alert_tag, M::punt()), dropped);

  // Ack chain: a tagged response rides to the controller (terminal).
  const auto ack_key = m.add(M::reg_read(keys_.bank_a()));
  m.then(m.then(ack_key, M::digest("digest_compute")), M::punt());

  // Nack chain: tagged NAck to the controller, then an alert, then drop.
  const auto nack_key = m.add(M::reg_read(keys_.bank_a()));
  const auto nack_punt =
      m.then(m.then(nack_key, M::digest("digest_compute")), M::punt());
  m.branch(nack_punt, alert_rd);

  // Key install: the double-banked store takes the new key and the
  // generation flips; the install counter records it. Fresh chain per
  // call site because continuations differ (ack / consume / emit).
  const auto add_install = [this, &m]() {
    const auto bank_a = m.add(M::reg_write(keys_.bank_a()));
    const auto bank_b = m.then(bank_a, M::reg_write(keys_.bank_b()));
    return std::pair{bank_a, m.then(bank_b, M::reg_write(keys_.install_counter()))};
  };

  // --- CPU port: CDP register ops -------------------------------------------
  m.branch(entry, alert_rd, "cpu_malformed",
           {{"ingress.cpu", true}, {"cpu.decode_ok", false}});
  m.branch(entry, dropped, "cpu_other",
           {{"ingress.cpu", true}, {"cpu.decode_ok", true}, {"cpu.regop", false},
            {"cpu.kmp", false}});
  const auto cdp_key =
      m.then(entry, M::reg_read(keys_.bank_a()), "cpu_regop",
             {{"ingress.cpu", true}, {"cpu.decode_ok", true}, {"cpu.regop", true}});
  const auto cdp_verify = m.then(cdp_key, M::verify("cdp_verify"));
  m.branch(cdp_verify, nack_key, "fail");
  const auto cdp_seq = m.then(cdp_verify, M::reg_read(seq), "ok");
  m.branch(cdp_seq, alert_rd, "replay", {{"cdp.seq_fresh", false}});
  const auto cdp_fresh =
      m.then(cdp_seq, M::reg_write(seq), "fresh", {{"cdp.seq_fresh", true}});
  const auto reg_map = m.then(cdp_fresh, M::table(reg_map_.shape()));
  const std::string hit = "tbl." + reg_map_.shape().name + ".hit";
  m.branch(reg_map, nack_key, "miss", {{hit, false}});
  m.branch(reg_map, nack_key, "op_fail", {{hit, true}, {"reg.op_ok", false}});
  for (const Exposed& exposed : exposed_) {
    const std::string& name = exposed.name;
    // An exposed name with no array behind it bills 0 bits, which the
    // static checks report as decl-zero-size-register.
    const dataplane::RegisterArray* array = registers_.by_name(name);
    const auto shape =
        array != nullptr ? dataplane::RegisterShape::of(*array) : dataplane::RegisterShape{name};
    m.branch(m.then(reg_map, M::reg_read(shape), "read:" + name,
                    {{hit, true}, {"reg.op_ok", true}, {"op.write", false},
                     {"op.target." + name, true}}),
             ack_key);
    m.branch(m.then(reg_map, M::reg_write(shape), "write:" + name,
                    {{hit, true}, {"reg.op_ok", true}, {"op.write", true},
                     {"op.target." + name, true}}),
             ack_key);
  }
  if (exposed_.empty()) {
    m.branch(reg_map, nack_key, "no_exposed", {{hit, true}, {"reg.op_ok", true}});
  }

  // --- CPU port: key-management protocol ------------------------------------
  const auto kmp_key =
      m.then(entry, M::reg_read(keys_.bank_a()), "cpu_kmp",
             {{"ingress.cpu", true}, {"cpu.decode_ok", true}, {"cpu.regop", false},
              {"cpu.kmp", true}});
  const auto kmp_verify = m.then(kmp_key, M::verify("kmp_verify"));
  m.branch(kmp_verify, alert_rd, "fail");
  // Responses map back to a request sequence number; plain ones are
  // absorbed, a port-scope finish installs the negotiated key.
  m.branch(kmp_verify, consumed, "ok",
           {{"kmp.response", true}, {"kmp.port_finish", false}});
  const auto kmp_fin = m.then(kmp_verify, M::reg_read(pending), "ok",
                              {{"kmp.response", true}, {"kmp.port_finish", true}});
  const auto kmp_fin_kdf = m.then(kmp_fin, M::digest("kdf_extract"));
  const auto [fin_in, fin_out] = add_install();
  m.branch(kmp_fin_kdf, fin_in);
  m.branch(fin_out, consumed);
  // Requests go through the replay window first.
  const auto kmp_seq =
      m.then(kmp_verify, M::reg_read(seq), "ok", {{"kmp.response", false}});
  m.branch(kmp_seq, alert_rd, "replay", {{"kmp.seq_fresh", false}});
  const auto kmp_fresh =
      m.then(kmp_seq, M::reg_write(seq), "fresh", {{"kmp.seq_fresh", true}});
  const auto eak = m.then(kmp_fresh, M::digest("kdf_extract"), "eak",
                          {{"kmp.kind_eak", true}});
  m.branch(eak, ack_key);
  const auto init_kdf = m.then(kmp_fresh, M::digest("kdf_extract"), "init_local",
                               {{"kmp.kind_init", true}, {"kmp.port_scope", false}});
  const auto [init_in, init_out] = add_install();
  m.branch(init_kdf, init_in);
  m.branch(init_out, ack_key);
  m.branch(kmp_fresh, alert_rd, "init_port_unknown_peer",
           {{"kmp.kind_init", true}, {"kmp.port_scope", true}, {"kmp.peer_known", false}});
  const auto initp_kdf =
      m.then(kmp_fresh, M::digest("kdf_extract"), "init_port",
             {{"kmp.kind_init", true}, {"kmp.port_scope", true}, {"kmp.peer_known", true}});
  const auto [initp_in, initp_out] = add_install();
  m.branch(initp_kdf, initp_in);
  m.branch(initp_out, ack_key);
  const auto upd_kdf = m.then(kmp_fresh, M::digest("kdf_extract"), "upd",
                              {{"kmp.kind_upd", true}});
  const auto [upd_in, upd_out] = add_install();
  m.branch(upd_kdf, upd_in);
  m.branch(upd_out, ack_key);
  m.branch(kmp_fresh, alert_rd, "port_key_init_bad_port",
           {{"kmp.kind_port_init", true}, {"kmp.port_valid", false}});
  const auto pki = m.then(kmp_fresh, M::reg_write(pending), "port_key_init",
                          {{"kmp.kind_port_init", true}, {"kmp.port_valid", true}});
  m.branch(pki, ack_key);
  m.branch(kmp_fresh, alert_rd, "port_key_upd_no_key",
           {{"kmp.kind_port_upd", true}, {"kmp.port_key_known", false}});
  const auto pku = m.then(kmp_fresh, M::reg_write(pending), "port_key_upd",
                          {{"kmp.kind_port_upd", true}, {"kmp.port_key_known", true}});
  const auto pku_tag =
      m.then(m.then(pku, M::reg_read(keys_.bank_a())), M::digest("digest_compute"));
  m.then(pku_tag, M::emit("kmp_port", /*protected_port=*/true));

  // --- wrapped program -------------------------------------------------------
  const std::size_t inner_entry =  // nothing wrapped: inner traffic dies
      inner_model.empty() ? dropped : m.splice(inner_model);

  // --- data ports: authenticated feedback (DpData) ---------------------------
  const auto dp_key = m.then(entry, M::reg_read(keys_.bank_a()), "dp_data",
                             {{"ingress.cpu", false}, {"pkt.dp_data", true}});
  const auto dp_verify = m.then(dp_key, M::verify("dp_verify"));
  m.branch(dp_verify, alert_rd, "fail");
  const auto dp_seq = m.then(dp_verify, M::reg_read(seq), "ok");
  m.branch(dp_seq, alert_rd, "replay", {{"dp.seq_fresh", false}});
  const auto dp_fresh =
      m.then(dp_seq, M::reg_write(seq), "fresh", {{"dp.seq_fresh", true}});
  const auto dp_dec = m.then(dp_fresh, M::digest("kdf_extract"), "encrypted",
                             {{"dp.encrypted", true}});
  m.branch(dp_dec, inner_entry);
  m.branch(dp_fresh, inner_entry, "plain", {{"dp.encrypted", false}});

  // --- data ports: port-scope key exchange -----------------------------------
  m.branch(entry, dropped, "kmp_port_other",
           {{"ingress.cpu", false}, {"pkt.kmp_port", true}, {"kmp_port.upd", false}});
  const auto kp_key =
      m.then(entry, M::reg_read(keys_.bank_a()), "kmp_port",
             {{"ingress.cpu", false}, {"pkt.kmp_port", true}, {"kmp_port.upd", true}});
  const auto kp_verify = m.then(kp_key, M::verify("kmp_port_verify"));
  m.branch(kp_verify, alert_rd, "fail");
  const auto kp_pending = m.then(kp_verify, M::reg_read(pending), "ok",
                                 {{"kmp_port.response", true}});
  m.branch(kp_pending, dropped, "no_pending", {{"kmp_port.pending", false}});
  const auto kp_kdf = m.then(kp_pending, M::digest("kdf_extract"), "pending",
                             {{"kmp_port.pending", true}});
  const auto [kp_in, kp_out] = add_install();
  m.branch(kp_kdf, kp_in);
  m.branch(kp_out, consumed);
  const auto kp_seq = m.then(kp_verify, M::reg_read(seq), "ok",
                             {{"kmp_port.response", false}});
  m.branch(kp_seq, alert_rd, "replay", {{"kp.seq_fresh", false}});
  const auto kp_fresh =
      m.then(kp_seq, M::reg_write(seq), "fresh", {{"kp.seq_fresh", true}});
  const auto kp_tag = m.then(m.then(kp_fresh, M::digest("kdf_extract")),
                             M::digest("digest_compute"));
  const auto [kpr_in, kpr_out] = add_install();
  m.branch(kp_tag, kpr_in);
  m.then(kpr_out, M::emit("kmp_port", /*protected_port=*/true));

  // --- data ports: discovery, enforcement, raw inner traffic -----------------
  m.then(entry, M::emit("lldp", /*protected_port=*/false, /*multi=*/true), "lldp_gen",
         {{"ingress.cpu", false}, {"pkt.lldp_gen", true}});
  m.then(entry, M::punt(), "lldp_heard",
         {{"ingress.cpu", false}, {"pkt.lldp", true}});
  m.branch(entry, alert_rd, "unauth_protected",
           {{"ingress.cpu", false}, {"pkt.unauth_protected", true}});
  m.branch(entry, alert_rd, "ctl_on_data_port",
           {{"ingress.cpu", false}, {"pkt.ctl_on_port", true}});
  m.branch(entry, inner_entry, "raw", {{"ingress.cpu", false}, {"pkt.raw", true}});

  const std::size_t covered = kDigestOffset + 16;  // header sans digest + largest fixed payload
  if (config_.mac == crypto::MacKind::Crc32Envelope) {
    m.hash_uses.push_back(dataplane::HashUse::crc32("digest_verify", covered));
    m.hash_uses.push_back(dataplane::HashUse::crc32("digest_compute", covered));
  } else {
    m.hash_uses.push_back(dataplane::HashUse::halfsiphash("digest_verify", covered - 4));
    m.hash_uses.push_back(dataplane::HashUse::halfsiphash("digest_compute", covered - 4));
  }
  m.hash_uses.push_back(dataplane::HashUse::crc32("kdf_extract"));
  m.hash_uses.push_back(dataplane::HashUse::crc32("kdf_expand_1"));
  m.hash_uses.push_back(dataplane::HashUse::crc32("kdf_expand_2"));
  m.hash_uses.push_back(dataplane::HashUse::random_gen("dh_private_key"));
  m.header_phv_bits += static_cast<int>(kHeaderSize) * 8;  // p4auth_h
  m.metadata_phv_bits += 384;  // DH/KDF/digest scratch + seq bookkeeping
  return m;
}

}  // namespace p4auth::core

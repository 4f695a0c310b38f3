#include "controller/controller.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "core/lldp.hpp"

namespace p4auth::controller {
namespace {

/// Largest C-DP frame either side sends (a register op or an ADHKD leg):
/// the floor of every request buffer, so the reply sealed into it fits.
constexpr std::size_t kMaxControlFrame = core::kHeaderSize + 16;

}  // namespace

using core::AdhkdPayload;
using core::AlertMsg;
using core::EakPayload;
using core::HdrType;
using core::KeyExchMsg;
using core::Message;
using core::PortKeyPayload;
using core::RegisterMsg;
using core::RegisterOpPayload;

Controller::Controller(netsim::Simulator& sim, Config config)
    : sim_(sim),
      config_(config),
      frame_pool_(BufferPool::Config{.min_capacity = kMaxControlFrame}),
      rng_(config.seed) {}

void Controller::attach_switch(NodeId id, netsim::ControlChannel& channel, Key64 k_seed,
                               int num_ports) {
  auto state = std::make_unique<SwitchState>(id, &channel, k_seed, num_ports,
                                             config_.max_outstanding);
  channel.set_controller_sink(
      [this](NodeId sw, Bytes frame) { on_packet_in(sw, std::move(frame)); });
  if (id.value >= switches_.size()) switches_.resize(id.value + 1u);
  // The first attach of an id wins, as a map emplace would.
  if (switches_[id.value] == nullptr) switches_[id.value] = std::move(state);
}

std::optional<Key64> Controller::local_key(NodeId sw) const {
  const SwitchState* st = state_of(sw);
  if (st == nullptr) return std::nullopt;
  return st->keys.local().current();
}

std::vector<std::uint16_t> Controller::stale_requests(NodeId sw, SimTime age) const {
  const SwitchState* st = state_of(sw);
  if (st == nullptr) return {};
  return st->ledger.unacked_older_than(sim_.now(), age);
}

Bytes Controller::seal_request(const Message& msg, Key64 key) {
  Bytes frame = frame_pool_.acquire(kMaxControlFrame);
  core::encode_into(msg, frame);
  if (config_.p4auth_enabled) core::seal_frame(config_.mac, key, frame);
  return frame;
}

Bytes Controller::request(const SwitchState& st, HdrType type, std::uint8_t msg_type,
                          std::uint16_t seq, core::Payload payload, RequestKey key) {
  Message msg;
  msg.header.hdr_type = type;
  msg.header.msg_type = msg_type;
  msg.header.seq_num = seq;
  msg.header.key_version = key.version;
  msg.header.src = kControllerId;
  msg.header.dst = st.id;
  msg.payload = std::move(payload);
  return seal_request(msg, key.key);
}

void Controller::send(SwitchState& st, Bytes frame, bool is_kmp,
                      std::function<void()> delivered) {
  if (is_kmp) {
    ++stats_.kmp_messages_sent;
    stats_.kmp_bytes_sent += frame.size();
  }
  if (telemetry_ != nullptr) {
    telemetry_->metrics.counter("ctrl.messages_sent").inc();
    telemetry_->metrics.counter("ctrl.bytes_sent").inc(frame.size());
    if (is_kmp) telemetry_->metrics.counter("kmp.messages_sent").inc();
  }
  st.channel->to_switch(std::move(frame), std::move(delivered));
}

template <typename V>
std::function<void(V)> Controller::track_kmp(NodeId sw, const char* op,
                                             std::function<void(V)> done) {
  if (telemetry_ == nullptr) return done;
  return [this, sw, op, start = sim_.now(), done = std::move(done)](V result) {
    record_kmp(sw, op, start, result.ok());
    if (done) done(std::move(result));
  };
}

std::function<void()> Controller::port_key_delivered(NodeId sw, const char* op, SimTime start,
                                                     std::function<void(Status)> done) {
  return [this, sw, op, start, done = std::move(done)]() {
    record_kmp(sw, op, start, /*ok=*/true);
    if (done) done(Status{});
  };
}

void Controller::record_kmp(NodeId sw, const char* op, SimTime start, bool ok) {
  if (telemetry_ == nullptr) return;
  const SimTime rtt = sim_.now() - start;
  telemetry_->metrics
      .histogram("kmp.rtt_ns", telemetry::Labels{{"op", op}})
      .observe(static_cast<double>(rtt.ns()));
  telemetry_->metrics
      .counter("kmp.completed", telemetry::Labels{{"op", op}, {"ok", ok ? "true" : "false"}})
      .inc();
  // Fires inside the final message's delivery span, so the completion
  // record shares the operation's trace id.
  telemetry_->record(sim_.now(), sw, kCpuPort, telemetry::TraceEventKind::KmpComplete,
                     static_cast<std::uint64_t>(rtt.ns()), ok ? 1 : 0);
}

telemetry::SpanTracker::Scope Controller::span_operation(std::uint64_t domain,
                                                         std::uint64_t detail) {
  if (telemetry_ == nullptr) return {};
  return telemetry_->spans.start_operation(domain, detail);
}

telemetry::SpanContext Controller::span_ctx() const {
  return telemetry_ == nullptr ? telemetry::SpanContext{} : telemetry_->spans.current();
}

telemetry::SpanTracker::Scope Controller::span_resume(const telemetry::SpanContext& ctx) {
  if (telemetry_ == nullptr) return {};
  return telemetry_->spans.resume(ctx);
}

std::optional<Key64> Controller::verify_key_for(SwitchState& st, const Message& msg) const {
  switch (msg.header.hdr_type) {
    case HdrType::RegisterOp:
    case HdrType::Alert: {
      if (const auto key = st.keys.local().get(msg.header.key_version)) return key;
      return st.keys.local().initialized() ? std::nullopt : std::optional<Key64>(st.k_seed);
    }
    case HdrType::KeyExchange:
      switch (static_cast<KeyExchMsg>(msg.header.msg_type)) {
        case KeyExchMsg::EakExch:
          return st.k_seed;
        case KeyExchMsg::InitKeyExch:
          return msg.header.is_port_scope() ? st.keys.local().get(msg.header.key_version)
                                            : st.k_auth;
        case KeyExchMsg::UpdKeyExch:
          return st.keys.local().get(msg.header.key_version);
        default:
          return std::nullopt;
      }
    case HdrType::DpData:
      return std::nullopt;  // DP-DP frames never reach the controller
  }
  return std::nullopt;
}

// --- register access -------------------------------------------------------

void Controller::read_register(NodeId sw, RegisterId reg, std::uint32_t index,
                               std::function<void(Result<std::uint64_t>)> done) {
  issue_register_op(sw, RegisterMsg::ReadReq, reg, index, 0, config_.compose_read,
                    std::move(done));
}

void Controller::write_register(NodeId sw, RegisterId reg, std::uint32_t index,
                                std::uint64_t value,
                                std::function<void(Result<std::uint64_t>)> done) {
  issue_register_op(sw, RegisterMsg::WriteReq, reg, index, value, config_.compose_write,
                    std::move(done));
}

void Controller::run_register_ops(
    NodeId sw, const std::vector<RegisterOp>& ops,
    std::function<void(Result<std::vector<std::uint64_t>>)> done) {
  if (ops.empty()) {
    done(std::vector<std::uint64_t>{});
    return;
  }
  // Shared by the ops' completions; `done` is emptied once it has fired.
  struct Batch {
    std::vector<std::uint64_t> values;
    std::size_t remaining = 0;
    std::function<void(Result<std::vector<std::uint64_t>>)> done;
  };
  auto batch = std::make_shared<Batch>(
      Batch{std::vector<std::uint64_t>(ops.size()), ops.size(), std::move(done)});
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const RegisterOp& op = ops[i];
    const SimTime compose =
        op.op == RegisterMsg::WriteReq ? config_.compose_write : config_.compose_read;
    issue_register_op(sw, op.op, op.reg, op.index, op.value, compose,
                      [batch, i](Result<std::uint64_t> result) {
                        if (!batch->done) return;  // already decided
                        if (!result.ok()) {
                          std::exchange(batch->done, nullptr)(result.error());
                          return;
                        }
                        batch->values[i] = result.value();
                        if (--batch->remaining == 0) {
                          std::exchange(batch->done, nullptr)(std::move(batch->values));
                        }
                      });
  }
}

void Controller::issue_register_op(NodeId sw, RegisterMsg op, RegisterId reg,
                                   std::uint32_t index, std::uint64_t value, SimTime compose,
                                   std::function<void(Result<std::uint64_t>)> done) {
  SwitchState* st = state_of(sw);
  if (st == nullptr) {
    done(make_error("unknown switch"));
    return;
  }
  const std::uint16_t seq = st->tx_seq.next();
  if (auto s = st->ledger.on_request(seq, sim_.now()); !s.ok()) {
    done(s.error());
    return;
  }
  const auto pending = std::find_if(st->pending_ops.begin(), st->pending_ops.end(),
                                    [seq](const PendingOp& p) { return p.seq == seq; });
  if (pending == st->pending_ops.end()) st->pending_ops.push_back(PendingOp{seq, std::move(done)});
  ++stats_.requests_sent;
  const auto span = span_operation(telemetry::kTraceDomainRegOp, sw.value);

  Bytes frame = request(*st, HdrType::RegisterOp, static_cast<std::uint8_t>(op), seq,
                        RegisterOpPayload{reg, index, value}, st->local_key());
  if (config_.p4auth_enabled) compose += config_.digest_cost;
  sim_.after(compose, [this, st, frame = std::move(frame), ctx = span_ctx()]() mutable {
    const auto scope = span_resume(ctx);
    send(*st, std::move(frame), /*is_kmp=*/false);
  });
}

void Controller::on_register_response(SwitchState& st, const Message& msg, bool digest_ok) {
  const auto op = static_cast<RegisterMsg>(msg.header.msg_type);
  if (op != RegisterMsg::Ack && op != RegisterMsg::NAck) return;

  if (!st.ledger.on_response(msg.header.seq_num)) {
    ++stats_.unmatched_responses;
  }
  const auto it = std::find_if(st.pending_ops.begin(), st.pending_ops.end(),
                               [seq = msg.header.seq_num](const PendingOp& p) {
                                 return p.seq == seq;
                               });
  if (it == st.pending_ops.end()) return;
  auto done = std::move(it->done);
  st.pending_ops.erase(it);

  SimTime delay = config_.parse_response;
  if (config_.p4auth_enabled) delay += config_.digest_cost;

  // Captures only what completion needs, so the closure stays inline.
  sim_.after(delay, [this, done = std::move(done), digest_ok, nack = op == RegisterMsg::NAck,
                     value = std::get<RegisterOpPayload>(msg.payload).value]() {
    if (!digest_ok) {
      ++stats_.response_digest_failures;
      if (telemetry_ != nullptr) {
        telemetry_->metrics.counter("ctrl.response_digest_failures").inc();
      }
      done(make_error("response digest mismatch — possible MitM"));
      return;
    }
    if (nack) {
      ++stats_.nacks_received;
      if (telemetry_ != nullptr) telemetry_->metrics.counter("ctrl.nacks_received").inc();
      done(make_error("nAck from data plane"));
      return;
    }
    ++stats_.acks_received;
    if (telemetry_ != nullptr) telemetry_->metrics.counter("ctrl.acks_received").inc();
    done(value);
  });
}

// --- key management ----------------------------------------------------------

void Controller::init_local_key(NodeId sw, std::function<void(Result<Key64>)> done) {
  SwitchState* st = state_of(sw);
  if (st == nullptr || !config_.p4auth_enabled) {
    done(make_error("unknown switch or p4auth disabled"));
    return;
  }
  if (st->pending_local.has_value()) {
    done(make_error("local key exchange already in progress"));
    return;
  }
  const auto span = span_operation(telemetry::kTraceDomainKmp, sw.value);
  PendingLocal pending;
  pending.phase = LocalPhase::Eak;
  pending.is_update = false;
  pending.eak.emplace(config_.schedule, st->k_seed);
  pending.done = track_kmp(sw, "local_init", std::move(done));

  const EakPayload salt1 = pending.eak->start(rng_);
  const std::uint16_t seq = st->tx_seq.next();
  pending.expect_seq = seq;
  st->pending_local = std::move(pending);

  // EAK runs under the boot secret, which has no version.
  send(*st,
       request(*st, HdrType::KeyExchange, static_cast<std::uint8_t>(KeyExchMsg::EakExch), seq,
               salt1, RequestKey{st->k_seed, KeyVersion{}}),
       /*is_kmp=*/true);
}

void Controller::start_adhkd_local(SwitchState& st, bool is_update) {
  auto& pending = *st.pending_local;
  pending.phase = LocalPhase::Adhkd;
  pending.adhkd.emplace(config_.schedule);
  const AdhkdPayload leg = pending.adhkd->start(rng_);
  const std::uint16_t seq = st.tx_seq.next();
  pending.expect_seq = seq;

  // An update runs under the current local key; an init leg under
  // K_auth, which has no version, even when the switch already has a key.
  const auto kind = is_update ? KeyExchMsg::UpdKeyExch : KeyExchMsg::InitKeyExch;
  const RequestKey key =
      is_update ? st.local_key() : RequestKey{st.k_auth.value_or(st.k_seed), KeyVersion{}};
  send(st,
       request(st, HdrType::KeyExchange, static_cast<std::uint8_t>(kind), seq, leg, key),
       /*is_kmp=*/true);
}

void Controller::update_local_key(NodeId sw, std::function<void(Result<Key64>)> done) {
  SwitchState* st = state_of(sw);
  if (st == nullptr || !config_.p4auth_enabled) {
    done(make_error("unknown switch or p4auth disabled"));
    return;
  }
  if (!st->keys.local().initialized()) {
    done(make_error("local key not initialized"));
    return;
  }
  if (st->pending_local.has_value()) {
    done(make_error("local key exchange already in progress"));
    return;
  }
  const auto span = span_operation(telemetry::kTraceDomainKmp, sw.value);
  PendingLocal pending;
  pending.is_update = true;
  pending.done = track_kmp(sw, "local_update", std::move(done));
  st->pending_local = std::move(pending);
  start_adhkd_local(*st, /*is_update=*/true);
}

void Controller::init_port_key(NodeId a, PortId port_a, NodeId b, PortId port_b,
                               std::function<void(Status)> done) {
  SwitchState* st_a = state_of(a);
  SwitchState* st_b = state_of(b);
  if (st_a == nullptr || st_b == nullptr || !config_.p4auth_enabled) {
    done(make_error("unknown switch or p4auth disabled"));
    return;
  }
  if (!st_a->is_data_port(port_a) || !st_b->is_data_port(port_b)) {
    done(make_error("port key init names a port outside the switch"));
    return;
  }
  // Fig 14(c): the redirected ADHKD legs are authenticated with each
  // switch's local key — both must be initialized first.
  if (!st_a->keys.local().initialized() || !st_b->keys.local().initialized()) {
    done(make_error("port key init requires local keys on both switches"));
    return;
  }
  const auto span = span_operation(telemetry::kTraceDomainKmp,
                                   (static_cast<std::uint64_t>(a.value) << 16) | b.value);
  pending_port_inits_.push_back(PendingPortInit{a, port_a, b, port_b, sim_.now(), std::move(done)});

  send(*st_a,
       request(*st_a, HdrType::KeyExchange, static_cast<std::uint8_t>(KeyExchMsg::PortKeyInit),
               st_a->tx_seq.next(), PortKeyPayload{port_a, b}, st_a->local_key()),
       /*is_kmp=*/true);
}

void Controller::update_port_key(NodeId a, PortId port_a, NodeId b,
                                 std::function<void(Status)> done) {
  SwitchState* st_a = state_of(a);
  if (st_a == nullptr || !config_.p4auth_enabled) {
    done(make_error("unknown switch or p4auth disabled"));
    return;
  }
  if (!st_a->is_data_port(port_a)) {
    done(make_error("port key update names a port outside the switch"));
    return;
  }
  const auto span = span_operation(telemetry::kTraceDomainKmp,
                                   (static_cast<std::uint64_t>(a.value) << 16) | b.value);
  send(*st_a,
       request(*st_a, HdrType::KeyExchange, static_cast<std::uint8_t>(KeyExchMsg::PortKeyUpdate),
               st_a->tx_seq.next(), PortKeyPayload{port_a, b}, st_a->local_key()),
       /*is_kmp=*/true, port_key_delivered(a, "port_update", sim_.now(), std::move(done)));
}

void Controller::on_key_exchange(SwitchState& st, const Message& msg, bool digest_ok) {
  ++stats_.kmp_messages_received;
  stats_.kmp_bytes_received += core::encoded_size(msg.payload);

  if (!digest_ok) {
    ++stats_.response_digest_failures;
    LogStream(LogLevel::Warn, "controller")
        << "key-exchange digest failure from switch " << st.id.value;
    // A failed local exchange surfaces to the caller so it can retry.
    if (st.pending_local.has_value() && !msg.header.is_port_scope()) {
      auto pending = std::move(*st.pending_local);
      st.pending_local.reset();
      pending.done(make_error("key exchange digest mismatch — possible MitM"));
    }
    return;
  }

  const auto kind = static_cast<KeyExchMsg>(msg.header.msg_type);
  switch (kind) {
    case KeyExchMsg::EakExch: {
      if (!msg.header.is_response() || !st.pending_local.has_value()) return;
      auto& pending = *st.pending_local;
      if (pending.phase != LocalPhase::Eak || msg.header.seq_num != pending.expect_seq) return;
      st.k_auth = pending.eak->finish(std::get<EakPayload>(msg.payload));
      start_adhkd_local(st, /*is_update=*/false);
      return;
    }

    case KeyExchMsg::InitKeyExch: {
      if (!msg.header.is_port_scope()) {
        // Final leg of local key init.
        if (!msg.header.is_response() || !st.pending_local.has_value()) return;
        auto pending = std::move(*st.pending_local);
        st.pending_local.reset();
        if (pending.phase != LocalPhase::Adhkd || msg.header.seq_num != pending.expect_seq) {
          pending.done(make_error("unexpected ADHKD leg"));
          return;
        }
        const Key64 master = pending.adhkd->finish(std::get<AdhkdPayload>(msg.payload));
        st.keys.local().install(master);
        pending.done(master);
        return;
      }
      // Controller-redirected port-key init leg: verify from the sender,
      // re-tag for the destination switch, forward (§VI-C, Fig. 14(c)).
      SwitchState* dst = state_of(msg.header.dst);
      if (dst == nullptr) return;
      Message forward = msg;
      // Re-stamp into the destination's C-DP sequence space (its replay
      // tracker knows nothing of the originator's counters) and re-tag
      // under its local key.
      const RequestKey key = dst->local_key();
      forward.header.seq_num = dst->tx_seq.next();
      forward.header.key_version = key.version;

      std::function<void()> delivered;
      if (msg.header.is_response()) {
        // Response leg heading back to the initiator completes the init.
        for (auto it = pending_port_inits_.begin(); it != pending_port_inits_.end(); ++it) {
          if (it->a == msg.header.dst && it->b == msg.header.src) {
            delivered = port_key_delivered(it->a, "port_init", it->start, std::move(it->done));
            pending_port_inits_.erase(it);
            break;
          }
        }
      }
      send(*dst, seal_request(forward, key.key), /*is_kmp=*/true, std::move(delivered));
      return;
    }

    case KeyExchMsg::UpdKeyExch: {
      if (msg.header.is_port_scope() || !msg.header.is_response() ||
          !st.pending_local.has_value()) {
        return;
      }
      auto pending = std::move(*st.pending_local);
      st.pending_local.reset();
      if (msg.header.seq_num != pending.expect_seq) {
        pending.done(make_error("unexpected ADHKD leg"));
        return;
      }
      const Key64 master = pending.adhkd->finish(std::get<AdhkdPayload>(msg.payload));
      st.keys.local().install(master);
      pending.done(master);
      return;
    }

    default:
      return;
  }
}

void Controller::on_alert(SwitchState& st, const Message& msg, bool digest_ok) {
  AlertRecord record;
  record.sw = st.id;
  record.code = static_cast<AlertMsg>(msg.header.msg_type);
  record.payload = std::get<core::AlertPayload>(msg.payload);
  record.at = sim_.now();
  record.authentic = digest_ok;
  if (!record.authentic) ++stats_.inauthentic_alerts;
  if (telemetry_ != nullptr) {
    telemetry_->metrics
        .counter("ctrl.alerts_received",
                 telemetry::Labels{{"authentic", record.authentic ? "true" : "false"}})
        .inc();
  }
  alerts_.push_back(record);
  if (alert_handler_) alert_handler_(record);

  // Defensive rekey: an authentic integrity alert rolls the reporting
  // switch's local key. Runs here, inside the alert's delivery span, so
  // the whole rollover (ADHKD legs, key install, completion) shares the
  // tampered frame's trace id — the cause chain the audit trail exports.
  if (config_.rekey_on_alert && record.authentic &&
      (record.code == AlertMsg::DigestMismatch || record.code == AlertMsg::ReplayDetected ||
       record.code == AlertMsg::MissingAuth) &&
      st.keys.local().initialized() && !st.pending_local.has_value()) {
    ++stats_.alert_rekeys;
    update_local_key(st.id, [](Result<Key64>) {});
  }
}

void Controller::on_lldp_report(SwitchState& st, const Bytes& frame) {
  const auto report = core::decode_lldp_report(frame);
  if (!report.ok() || report.value().receiver != st.id) return;
  // A port outside either switch's 1..num_ports would aim a port-key
  // init at a slot that is no link's (an unattached sender's ports go
  // unchecked).
  const auto& r = report.value();
  const SwitchState* sender = state_of(r.sender);
  if (!st.is_data_port(r.receiver_port) ||
      (sender != nullptr && !sender->is_data_port(r.sender_port))) {
    return;
  }
  ++stats_.lldp_reports;

  // Canonicalize the adjacency (lower node id first) and deduplicate —
  // both endpoints report the same link.
  Adjacency adjacency;
  if (r.sender.value < r.receiver.value) {
    adjacency = Adjacency{r.sender, r.sender_port, r.receiver, r.receiver_port};
  } else {
    adjacency = Adjacency{r.receiver, r.receiver_port, r.sender, r.sender_port};
  }
  for (const auto& known : adjacencies_) {
    if (known.a == adjacency.a && known.port_a == adjacency.port_a &&
        known.b == adjacency.b && known.port_b == adjacency.port_b) {
      return;
    }
  }
  adjacencies_.push_back(adjacency);

  if (!config_.auto_port_keys || !config_.p4auth_enabled) return;
  // §VI-C: a port-activation event triggers port-key initialization.
  ++stats_.auto_port_inits;
  init_port_key(adjacency.a, adjacency.port_a, adjacency.b, adjacency.port_b,
                [this, a = adjacency.a, port_a = adjacency.port_a](Status status) {
                  if (!status.ok()) return;
                  for (auto& known : adjacencies_) {
                    if (known.a == a && known.port_a == port_a) known.keyed = true;
                  }
                });
}

void Controller::on_packet_in(NodeId sw, Bytes frame) {
  SwitchState* st = state_of(sw);
  if (st == nullptr) return;
  StagedPacketIn staged;
  staged.st = st;
  if (!frame.empty() && frame[0] == core::kLldpReportMagic) {
    staged.is_lldp = true;
  } else {
    auto decoded = core::decode(frame);
    if (!decoded.ok()) return;
    staged.msg = std::move(decoded.value());
    if (staged.msg.header.hdr_type == HdrType::DpData) return;
    // Key-rotation boundary: a staged KeyExchange from this switch may
    // install new keys when it dispatches, and this message's digest
    // must be checked under them — close the current batch first.
    for (const StagedPacketIn& s : staged_packet_ins_) {
      if (!s.is_lldp && s.st == st && s.msg.header.hdr_type == HdrType::KeyExchange) {
        flush_packet_ins();
        break;
      }
    }
  }
  staged.frame = std::move(frame);
  staged.span = span_ctx();
  staged_packet_ins_.push_back(std::move(staged));
  // More PacketIns are pending at this exact instant (they all share
  // ControlChannel::kCtrlKey) — hold the batch open for them.
  if (!sim_.coalesce_continues()) flush_packet_ins();
}

void Controller::flush_packet_ins() {
  if (staged_packet_ins_.empty()) return;
  // Phase 1: pick each message's verification key under the pre-dispatch
  // key state (the staging boundary rule guarantees no earlier in-batch
  // message can rotate this switch's keys), then compute every digest
  // over its frame as received in one multi-lane call (a lone job runs
  // the scalar kernel).
  digest_jobs_.clear();
  digest_staged_.clear();
  for (StagedPacketIn& s : staged_packet_ins_) {
    if (s.is_lldp) continue;
    if (s.msg.header.hdr_type == HdrType::RegisterOp && !config_.p4auth_enabled) {
      continue;  // DP-Reg-RW baseline: no digests on this path
    }
    const std::optional<Key64> key = verify_key_for(*s.st, s.msg);
    if (!key.has_value()) {
      s.digest_ok = false;
      continue;
    }
    const core::DigestCover cover = core::digest_cover(s.frame);
    digest_jobs_.push_back(crypto::DigestJob{*key, cover.head, cover.tail});
    digest_staged_.push_back(&s);
  }
  digest_tags_.resize(digest_jobs_.size());
  crypto::compute_digest(config_.mac, digest_jobs_, digest_tags_);
  for (std::size_t j = 0; j < digest_staged_.size(); ++j) {
    StagedPacketIn& s = *digest_staged_[j];
    s.digest_ok = digest_tags_[j] == core::read_digest(s.frame);
  }
  if (digest_jobs_.size() >= 2) {
    ++stats_.batched_verifies;
    stats_.batch_verified_messages += digest_jobs_.size();
    if (telemetry_ != nullptr) {
      telemetry_->metrics.counter("ctrl.batched_verifies").inc();
      telemetry_->metrics.counter("ctrl.batch_verified_messages").inc(digest_jobs_.size());
    }
  }
  // Phase 2: dispatch in arrival order, each message inside its own
  // delivery span (captured at staging time). The batch moves out of
  // staging first, by swapping with the reused dispatch vector, so a
  // handler that stages again (a re-entrant flush) starts a fresh batch.
  std::vector<StagedPacketIn> batch;
  batch.swap(dispatch_batch_);
  batch.swap(staged_packet_ins_);
  for (StagedPacketIn& s : batch) {
    const auto scope = span_resume(s.span);
    if (s.is_lldp) {
      on_lldp_report(*s.st, s.frame);
      continue;
    }
    // Responses and KMP legs answer a request this controller sent (the
    // agent sealed them into its buffer), so their buffers go back to
    // the request pool. Alerts answer nothing and are freed.
    switch (s.msg.header.hdr_type) {
      case HdrType::RegisterOp:
        on_register_response(*s.st, s.msg, s.digest_ok);
        frame_pool_.release(std::move(s.frame));
        break;
      case HdrType::KeyExchange:
        on_key_exchange(*s.st, s.msg, s.digest_ok);
        frame_pool_.release(std::move(s.frame));
        break;
      case HdrType::Alert:
        on_alert(*s.st, s.msg, s.digest_ok);
        break;
      case HdrType::DpData:
        break;
    }
  }
  batch.clear();
  dispatch_batch_.swap(batch);
}

}  // namespace p4auth::controller

#include "netsim/switch.hpp"

#include "common/logging.hpp"

namespace p4auth::netsim {

Switch::Switch(NodeId id, dataplane::TimingModel timing, std::uint64_t seed)
    : Node(id), timing_(timing), rng_(seed) {}

void Switch::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  tele_ = TeleSeries{};
  if (telemetry_ == nullptr) return;
  const telemetry::Labels labels{{"switch", std::to_string(id().value)}};
  auto& m = telemetry_->metrics;
  tele_.process_ns = &m.histogram("switch.process_ns", labels);
  tele_.table_lookups = &m.counter("dataplane.table_lookups", labels);
  tele_.register_accesses = &m.counter("dataplane.register_accesses", labels);
  tele_.hash_calls = &m.counter("dataplane.hash_calls", labels);
  tele_.hashed_bytes = &m.counter("dataplane.hashed_bytes", labels);
  tele_.drops = &m.counter("switch.drops", labels);
}

void Switch::on_frame(PortId ingress, Bytes payload) {
  ++stats_.frames_in;
  dataplane::Packet packet;
  packet.payload = std::move(payload);
  packet.ingress = ingress;
  packet.arrival = network_ != nullptr ? network_->sim().now() : SimTime::zero();
  // One span per pipeline pass: the ingress record and everything the
  // program does (verify failures, drops, emits) nest under it.
  const auto span = telemetry_ != nullptr ? telemetry_->spans.start_child()
                                          : telemetry::SpanTracker::Scope{};
  if (telemetry_ != nullptr) {
    telemetry_->record(packet.arrival, id(), ingress, telemetry::TraceEventKind::Ingress,
                       packet.payload.size());
  }
  run_pipeline(std::move(packet));
}

void Switch::handle_packet_out(Bytes message) {
  ++stats_.packet_outs;
  if (interposer_.to_dataplane && !cross_os_seam(interposer_.to_dataplane, message, 1)) return;
  dataplane::Packet packet;
  packet.payload = std::move(message);
  packet.ingress = kCpuPort;
  packet.arrival = network_ != nullptr ? network_->sim().now() : SimTime::zero();
  const auto span = telemetry_ != nullptr ? telemetry_->spans.start_child()
                                          : telemetry::SpanTracker::Scope{};
  run_pipeline(std::move(packet));
}

bool Switch::cross_os_seam(const std::function<TamperVerdict(Bytes&)>& hook, Bytes& message,
                           std::uint64_t toward) {
  os_original_.assign(message.begin(), message.end());
  const bool dropped = hook(message) == TamperVerdict::Drop;
  if (!dropped && message == os_original_) return true;
  ++(dropped ? stats_.os_dropped : stats_.os_tampered);
  // The OS seam is an attack surface just like a link: audit the drop or
  // rewrite so the cause chain shows the adversary action, not only the
  // downstream verify failure.
  if (telemetry_ != nullptr) {
    telemetry_->record(network_ != nullptr ? network_->sim().now() : SimTime::zero(), id(),
                       kCpuPort,
                       dropped ? telemetry::TraceEventKind::TamperDrop
                               : telemetry::TraceEventKind::TamperRewrite,
                       dropped ? os_original_.size() : message.size(), toward);
  }
  return !dropped;
}

void Switch::run_pipeline(dataplane::Packet packet) {
  if (program_ == nullptr || network_ == nullptr) {
    ++stats_.drops;
    return;
  }
  auto& sim = network_->sim();
  dataplane::PipelineContext ctx(registers_, rng_, sim.now(), id(), telemetry_,
                                 &network_->pool());
  dataplane::PipelineOutput output = program_->process(packet, ctx);
  // Whatever the program left in the ingress payload is dead now (a
  // forwarding program moves it into an emit, the P4Auth agent seals a
  // C-DP reply into it); recycle the buffer.
  if (packet.payload.capacity() > 0) network_->pool().release(std::move(packet.payload));
  const SimTime delay = timing_.process(ctx.costs());
  total_processing_ += delay;

  if (output.dropped) ++stats_.drops;

  if (telemetry_ != nullptr) {
    const auto& costs = ctx.costs();
    tele_.process_ns->observe(static_cast<double>(delay.ns()));
    tele_.table_lookups->inc(static_cast<std::uint64_t>(costs.table_lookups));
    tele_.register_accesses->inc(static_cast<std::uint64_t>(costs.register_accesses));
    tele_.hash_calls->inc(static_cast<std::uint64_t>(costs.hash_calls));
    tele_.hashed_bytes->inc(costs.hashed_bytes);
    if (output.dropped) {
      tele_.drops->inc();
      telemetry_->record(sim.now(), id(), packet.ingress,
                         telemetry::TraceEventKind::PipelineDrop);
    }
    for (const auto& emit : output.emits) {
      telemetry_->record(sim.now(), id(), emit.port, telemetry::TraceEventKind::Egress,
                         emit.payload.size());
    }
    for (const auto& message : output.to_cpu) {
      telemetry_->record(sim.now(), id(), kCpuPort, telemetry::TraceEventKind::ToCpu,
                         message.size());
    }
  }

  // Emissions and PacketIns leave after the pipeline walk completes; each
  // carries a child span of this pipeline pass across the delay.
  for (auto& emit : output.emits) {
    ++stats_.frames_out;
    telemetry::SpanContext span;
    if (telemetry_ != nullptr) span = telemetry_->spans.child_for_schedule();
    sim.after(delay,
              [this, span, port = emit.port, payload = std::move(emit.payload)]() mutable {
                const auto scope = telemetry_ != nullptr ? telemetry_->spans.resume(span)
                                                         : telemetry::SpanTracker::Scope{};
                network_->transmit(id(), port, std::move(payload));
              });
  }
  for (auto& message : output.to_cpu) {
    telemetry::SpanContext span;
    if (telemetry_ != nullptr) span = telemetry_->spans.child_for_schedule();
    sim.after(delay, [this, span, message = std::move(message)]() mutable {
      const auto scope = telemetry_ != nullptr ? telemetry_->spans.resume(span)
                                               : telemetry::SpanTracker::Scope{};
      send_packet_in(std::move(message));
    });
  }
}

void Switch::send_packet_in(Bytes message) {
  if (interposer_.to_controller && !cross_os_seam(interposer_.to_controller, message, 2)) {
    return;
  }
  if (!packet_in_sink_) {
    ++stats_.packet_ins_lost;
    LogStream(LogLevel::Debug, "switch") << "PacketIn with no control channel, node "
                                         << id().value;
    return;
  }
  ++stats_.packet_ins;
  packet_in_sink_(std::move(message));
}

}  // namespace p4auth::netsim

#include "netsim/network.hpp"

#include <string>

#include "common/logging.hpp"

namespace p4auth::netsim {

Link* Network::connect(NodeId a, PortId port_a, NodeId b, PortId port_b, LinkConfig config) {
  auto link = std::make_unique<Link>(LinkEndpoint{a, port_a}, LinkEndpoint{b, port_b}, config);
  Link* raw = link.get();
  links_.push_back(std::move(link));
  for (const auto& [node, port] : {std::pair{a, port_a}, std::pair{b, port_b}}) {
    std::vector<Link*>& links = slot_of(node).links;
    if (port.value >= links.size()) links.resize(port.value + 1u, nullptr);
    links[port.value] = raw;
  }
  return raw;
}

void Network::bind_tele(ShardState& st) noexcept {
  st.tele = TeleSeries{};
  if (st.telemetry == nullptr) return;
  auto& m = st.telemetry->metrics;
  st.tele.queue_wait_ns = &m.histogram("net.queue_wait_ns");
  st.tele.delivery_ns = &m.histogram("net.delivery_ns");
  st.tele.frames_delivered = &m.counter("net.frames_delivered");
  st.tele.drops_no_link = &m.counter("net.drops_no_link");
  st.tele.tamper_drops = &m.counter("net.tamper_drops");
  st.tele.tamper_rewrites = &m.counter("net.tamper_rewrites");
}

void Network::set_telemetry(telemetry::Telemetry* telemetry) noexcept {
  shards_[0].telemetry = telemetry;
  bind_tele(shards_[0]);
}

void Network::configure_shards(const std::vector<Simulator*>& shard_sims,
                               const std::vector<telemetry::Telemetry*>& shard_bundles,
                               const std::vector<std::pair<NodeId, int>>& assignment) {
  shards_.resize(shard_sims.size());
  shard_pools_.clear();
  for (std::size_t k = 0; k < shard_sims.size(); ++k) {
    ShardState& st = shards_[k];
    st.sim = shard_sims[k];
    if (k == 0) {
      st.pool = &pool_;
    } else {
      shard_pools_.push_back(std::make_unique<BufferPool>(pool_.config()));
      st.pool = shard_pools_.back().get();
    }
    st.telemetry = k < shard_bundles.size() ? shard_bundles[k] : nullptr;
    bind_tele(st);
  }
  shard_by_id_.clear();
  for (const auto& [id, shard] : assignment) {
    if (id.value >= shard_by_id_.size()) shard_by_id_.resize(id.value + 1u, 0);
    shard_by_id_[id.value] = shard;
  }
}

Network::Stats Network::merged_stats() const noexcept {
  Stats out;
  for (const ShardState& st : shards_) {
    out.frames_delivered += st.stats.frames_delivered;
    out.frames_tampered += st.stats.frames_tampered;
    out.frames_dropped_by_tamper += st.stats.frames_dropped_by_tamper;
    out.frames_dropped_no_link += st.stats.frames_dropped_no_link;
    out.frames_queued += st.stats.frames_queued;
    out.total_queue_delay += st.stats.total_queue_delay;
  }
  return out;
}

void Network::export_pool_stats() {
  // Each shard exports into its own bundle. Only the partition-invariant
  // series is exported — the acquire sum (every acquire happens on
  // exactly one shard). Everything else depends on where buffers
  // migrate: even the release sum varies, because a release parks
  // (counted) or is refused (dropped) based on how full the receiving
  // shard's free list is. Those are not exported.
  for (ShardState& st : shards_) {
    if (st.telemetry == nullptr) continue;
    st.telemetry->metrics.counter("pool.acquires").inc(st.pool->stats().acquires);
  }
}

void Network::schedule_delivery(ShardState& src, NodeId dst, SimTime delay,
                                Simulator::Handler&& fn) {
  src.sim->send_after(*shards_[static_cast<std::size_t>(shard_of(dst))].sim, delay, 0,
                      std::move(fn));
}

void Network::transmit(NodeId from, PortId port, Bytes payload) {
  ShardState& st = cur();
  Simulator& sim = *st.sim;
  Link* link = link_at(from, port);
  if (link == nullptr) {
    ++st.stats.frames_dropped_no_link;
    if (st.telemetry != nullptr) {
      st.tele.drops_no_link->inc();
      st.telemetry->record(sim.now(), from, port, telemetry::TraceEventKind::NoLinkDrop);
    }
    LogStream(LogLevel::Debug, "network")
        << "no link at node " << from.value << " port " << port.value;
    st.pool->release(std::move(payload));
    return;
  }

  link->record_tx(from, payload.size(), sim.now());

  if (TamperHook* hook = link->tamper_for(from)) {
    const std::size_t before = payload.size();
    Bytes& original = st.tamper_original;
    original.assign(payload.begin(), payload.end());
    if ((*hook)(payload) == TamperVerdict::Drop) {
      ++st.stats.frames_dropped_by_tamper;
      if (st.telemetry != nullptr) {
        st.tele.tamper_drops->inc();
        st.telemetry->record(sim.now(), from, port, telemetry::TraceEventKind::TamperDrop,
                             before);
      }
      st.pool->release(std::move(payload));
      return;
    }
    if (payload != original || payload.size() != before) {
      ++st.stats.frames_tampered;
      if (st.telemetry != nullptr) {
        st.tele.tamper_rewrites->inc();
        st.telemetry->record(sim.now(), from, port, telemetry::TraceEventKind::TamperRewrite,
                             payload.size());
      }
    }
  }

  const LinkEndpoint peer = link->peer_of(from);
  // FIFO egress queue: wait for the transmitter, then serialize, then
  // propagate. Queueing delay is the congestion signal the HULA attack
  // inflates.
  const SimTime queue_wait = link->reserve_transmitter(from, payload.size(), sim.now());
  if (queue_wait.ns() > 0) {
    ++st.stats.frames_queued;
    st.stats.total_queue_delay += queue_wait;
  }
  const SimTime delay =
      queue_wait + link->serialization_delay(payload.size()) + link->config().latency;
  if (st.telemetry != nullptr) {
    st.tele.queue_wait_ns->observe(static_cast<double>(queue_wait.ns()));
    st.tele.delivery_ns->observe(static_cast<double>(delay.ns()));
  }
  // The in-flight hop is a child span of the emitting pipeline's span:
  // captured here (schedule time), resumed when the frame lands. Keeps
  // the closure within InplaceHandler's inline budget (16-byte context).
  telemetry::SpanContext span;
  if (st.telemetry != nullptr) span = st.telemetry->spans.child_for_schedule();
  schedule_delivery(st, peer.node, delay,
                    [this, peer, span, payload = std::move(payload)]() mutable {
                      ShardState& d = cur();
                      d.sim->set_context(Simulator::rank_of(peer.node));
                      ++d.stats.frames_delivered;
                      if (d.telemetry != nullptr) d.tele.frames_delivered->inc();
                      if (Node* dst = node(peer.node)) {
                        deliver(d, *dst, peer.port, std::move(payload), span);
                      } else {
                        d.pool->release(std::move(payload));
                      }
                    });
}

void Network::inject(NodeId to, PortId ingress, Bytes payload, SimTime delay) {
  ShardState& st = cur();
  // Every injected packet roots a fresh trace: everything it causes
  // downstream — hops, verify failures, alerts, rekeys — shares this id.
  telemetry::SpanContext span;
  if (st.telemetry != nullptr) {
    span = st.telemetry->spans.root_for_schedule(
        telemetry::kTraceDomainInject,
        (static_cast<std::uint64_t>(to.value) << 16) | ingress.value);
  }
  schedule_delivery(st, to, delay,
                    [this, to, ingress, span, payload = std::move(payload)]() mutable {
                      ShardState& d = cur();
                      d.sim->set_context(Simulator::rank_of(to));
                      ++d.stats.frames_delivered;
                      if (Node* dst = node(to)) {
                        deliver(d, *dst, ingress, std::move(payload), span);
                      }
                    });
}

void Network::deliver(ShardState& st, Node& dst, PortId port, Bytes&& payload,
                      telemetry::SpanContext span) {
  const auto scope = st.telemetry != nullptr ? st.telemetry->spans.resume(span)
                                             : telemetry::SpanTracker::Scope{};
  dst.on_frame(port, std::move(payload));
}

}  // namespace p4auth::netsim

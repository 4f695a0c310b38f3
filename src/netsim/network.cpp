#include "netsim/network.hpp"

#include <algorithm>
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
  st.tele.burst_size = &m.histogram("pipeline.burst_size");
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
  // series go unlabelled — the acquire sum (every acquire happens on
  // exactly one shard) and the burst high-water max (burst grouping is a
  // pure function of the schedule). Everything else depends on where
  // buffers migrate: even the release sum varies, because a release
  // parks (counted) or is refused (dropped) based on how full the
  // receiving shard's free list is. Those are exported only as explicit
  // per-shard diagnostics.
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    ShardState& st = shards_[k];
    if (st.telemetry == nullptr) continue;
    const BufferPool::Stats& s = st.pool->stats();
    auto& m = st.telemetry->metrics;
    m.counter("pool.acquires").inc(s.acquires);
    // High-water marks merge by max: summing per-shard (or per-job)
    // peaks would report a burst no single shard ever staged.
    auto& bh = m.gauge("pool.burst_highwater");
    bh.set_merge_max();
    bh.set(static_cast<double>(st.burst_highwater));
    if (shard_diagnostics_) {
      const telemetry::Labels labels{{"shard", std::to_string(k)}};
      m.counter("pool.shard.acquires", labels).inc(s.acquires);
      m.counter("pool.shard.reuses", labels).inc(s.reuses);
      m.counter("pool.shard.misses", labels).inc(s.misses);
      m.counter("pool.shard.releases", labels).inc(s.releases);
      m.counter("pool.shard.dropped", labels).inc(s.dropped);
      auto& shw = m.gauge("pool.shard.high_water", labels);
      shw.set_merge_max();
      shw.set(static_cast<double>(s.high_water));
    }
  }
}

void Network::schedule_delivery(ShardState& src, NodeId dst, SimTime delay, std::uint64_t key,
                                Simulator::Handler&& fn) {
  src.sim->send_after(*shards_[static_cast<std::size_t>(shard_of(dst))].sim, delay, key,
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
  // Keyed on the destination node: consecutive same-time deliveries to
  // one node coalesce into a burst at the delivery rendezvous below.
  schedule_delivery(st, peer.node, delay, delivery_key(peer.node),
                    [this, peer, span, payload = std::move(payload)]() mutable {
                      ShardState& d = cur();
                      d.sim->set_context(Simulator::rank_of(peer.node));
                      ++d.stats.frames_delivered;
                      if (d.telemetry != nullptr) d.tele.frames_delivered->inc();
                      if (Node* dst = node(peer.node)) {
                        deliver(*dst, peer.port, std::move(payload), span, /*from_link=*/true);
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
  schedule_delivery(st, to, delay, delivery_key(to),
                    [this, to, ingress, span, payload = std::move(payload)]() mutable {
                      ShardState& d = cur();
                      d.sim->set_context(Simulator::rank_of(to));
                      ++d.stats.frames_delivered;
                      if (Node* dst = node(to)) {
                        deliver(*dst, ingress, std::move(payload), span, /*from_link=*/false);
                      }
                    });
}

void Network::deliver(Node& dst, PortId port, Bytes payload, telemetry::SpanContext span,
                      bool from_link) {
  ShardState& st = cur();
  const std::uint32_t index = dst.burst_index();
  if (index >= st.slots.size()) {
    st.slots.resize(std::max(nodes_.size(), static_cast<std::size_t>(index) + 1));
  }
  BurstSlot& slot = st.slots[index];
  if (slot.frames.capacity() == 0) slot.frames.reserve(dataplane::kMaxBurst);
  if (slot.frames.empty()) {
    slot.node = &dst;
    st.open.push_back(index);
  }
  slot.frames.push_back(StagedFrame{port, from_link, span, std::move(payload)});
  // The slot stays open while this node's (time, key) group keeps firing
  // (the firing key IS this node's delivery key); it closes at the
  // group's last event or at the burst-size cap.
  if (slot.frames.size() < dataplane::kMaxBurst && st.sim->coalesce_continues()) return;
  flush_slot(st, index);
}

void Network::flush_slot(ShardState& st, std::uint32_t index) {
  BurstSlot& slot = st.slots[index];
  if (slot.frames.empty()) return;
  Node& dst = *slot.node;
  const std::size_t burst = slot.frames.size();
  if (burst > st.burst_highwater) st.burst_highwater = burst;
  if (st.tele.burst_size != nullptr) st.tele.burst_size->observe(static_cast<double>(burst));

  // Side-effect-free pre-pass over the whole burst (prefetch, SIMD digest
  // planning), then the unchanged per-frame path in staged order — so
  // telemetry records, trace spans, and scheduled follow-on events keep
  // exactly the packet-at-a-time order.
  auto& views = st.views;
  for (std::size_t i = 0; i < burst; ++i) {
    views[i] = dataplane::BurstFrameView{
        slot.frames[i].port, {slot.frames[i].payload.data(), slot.frames[i].payload.size()}};
  }
  dst.on_burst_prepare(std::span<const dataplane::BurstFrameView>(views.data(), burst));
  for (std::size_t i = 0; i < burst; ++i) {
    const auto scope = st.telemetry != nullptr ? st.telemetry->spans.resume(slot.frames[i].span)
                                               : telemetry::SpanTracker::Scope{};
    dst.on_frame(slot.frames[i].port, std::move(slot.frames[i].payload));
  }
  dst.on_burst_end();
  slot.frames.clear();  // capacity (and the no-realloc guarantee) is retained
  slot.node = nullptr;
  const auto it = std::find(st.open.begin(), st.open.end(), index);
  if (it != st.open.end()) st.open.erase(it);
}

void Network::flush_deliveries() {
  ShardState& st = cur();
  while (!st.open.empty()) flush_slot(st, st.open.front());
}

}  // namespace p4auth::netsim

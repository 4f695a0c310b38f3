// Zero-allocation regression tests for the steady-state forwarding and
// authenticated probe paths, and for the authenticated register round
// trip between the controller and a switch.
//
// The forwarding and probe cases build a 3-switch hula line (S1 tor -> S2 -> S3 tor) with
// P4Auth enabled, warms it up so every table entry, pool buffer and
// event slot exists, then counts global operator new
// calls across a measurement window that contains only data forwarding,
// or only probe rounds. The pooled-buffer + inline-closure +
// scratch-digest design must keep that window at exactly zero
// allocations: a probe hop verifies its DpData frame over the wire
// bytes, strips the header in place, decodes into the program's scratch
// probe and encodes straight into a pooled buffer. The simulator parks each
// pending closure in a slot of a reused slab; the slab grows only past
// the run's high-water queue depth, and its free list is reserved to the
// slab's capacity, so a warm queue can drain and refill without touching
// the heap.
//
// The register cases use a pair of l3fwd switches instead and run a
// closed loop of authenticated reads and writes: the controller draws
// each request from its own pool and the agent seals the ack into the
// request's buffer, which comes back to that pool (docs/DESIGN.md,
// "Control round trip"). The same pair pins what a port-key update still
// allocates. The deep-queue case drives a bare simulator thousands of
// events deep through its bucket refills. The decode case runs every
// frame decoder over valid frames: a successful decode reads plain values
// after one length check and builds no error.
//
// This binary compiles src/common/alloc_probe.cpp directly (see that
// file's header comment): the counting operator new is per-binary and an
// archive member would not be pulled in.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <type_traits>

#include "apps/blink/blink.hpp"
#include "apps/flowradar/flowradar.hpp"
#include "apps/flowstats/flowstats.hpp"
#include "apps/hula/hula.hpp"
#include "apps/l3fwd/l3fwd.hpp"
#include "apps/netcache/netcache.hpp"
#include "apps/routescout/routescout.hpp"
#include "apps/silkroad/silkroad.hpp"
#include "common/alloc_probe.hpp"
#include "core/lldp.hpp"
#include "core/wire.hpp"
#include "experiments/fabric.hpp"

namespace p4auth {
namespace {

namespace hula = apps::hula;

constexpr NodeId kS1{1}, kS2{2}, kS3{3};
constexpr PortId kHostPort{9};

experiments::Fabric::ProgramFactory make_hula(NodeId self, bool is_tor,
                                              std::vector<PortId> probe_ports) {
  return [self, is_tor, probe_ports = std::move(probe_ports)](
             dataplane::RegisterFile& registers) -> std::unique_ptr<dataplane::DataPlaneProgram> {
    hula::HulaProgram::Config config;
    config.self = self;
    config.is_tor = is_tor;
    config.probe_ports = probe_ports;
    // Entries must outlive the whole run: the only probe round happens
    // during warmup, and route expiry mid-window would change the path.
    config.entry_timeout = SimTime::from_ms(500);
    config.flowlet_timeout = SimTime::from_ms(50);
    return std::make_unique<hula::HulaProgram>(config, registers);
  };
}

experiments::Fabric::Options line_options() {
  experiments::Fabric::Options options;
  options.p4auth = true;
  options.seed = 7;
  options.protected_magics = {hula::kProbeMagic};
  return options;
}

/// Adds S1 -> S2 -> S3, installs every key, and runs one probe round from
/// S3 so S2 and S1 learn the route toward S3. That round (first trace
/// growth, first pool buffers) stays outside every measurement window.
/// Returns the clock the bring-up ended at:
/// init_all_keys() ran the simulator through the whole KMP bring-up, so
/// the clock is already a few ms in.
SimTime build_line(experiments::Fabric& fabric) {
  fabric.add_switch(kS1, make_hula(kS1, /*is_tor=*/true, {}));
  fabric.add_switch(kS2, make_hula(kS2, /*is_tor=*/false, {PortId{1}}));
  fabric.add_switch(kS3, make_hula(kS3, /*is_tor=*/true, {PortId{1}}));

  netsim::LinkConfig link;
  link.latency = SimTime::from_us(10);
  link.bandwidth_gbps = 10.0;
  fabric.connect(kS1, PortId{1}, kS2, PortId{1}, link);
  fabric.connect(kS2, PortId{2}, kS3, PortId{1}, link);
  EXPECT_TRUE(fabric.init_all_keys().ok());
  const SimTime t0 = fabric.sim.now();
  fabric.net.inject(kS3, kHostPort, hula::encode_probe_gen(), SimTime::from_us(50));
  return t0;
}

Bytes data_frame(std::uint64_t seq) {
  hula::DataPacket packet;
  packet.dst_tor = kS3;
  packet.flow_id = seq % 8;  // flow ids repeat, so warmup creates every flowlet entry
  packet.size_bytes = 200;
  return hula::encode_data(packet);
}

struct Window {
  std::uint64_t allocations = 0;
  std::uint64_t deallocations = 0;
  std::uint64_t frames_delivered = 0;  ///< delivered inside the window
};

/// Schedules a data frame into S1 every 10 us from t0 + 200 us up to
/// t0 + 4 ms, runs the first 2 ms as warmup and counts allocations over
/// the remaining 2 ms. All injections are scheduled up front so the event
/// queue reaches its high-water mark before the window opens and the
/// payload vectors are born outside it.
Window measure_forwarding(experiments::Fabric& fabric, SimTime t0) {
  const SimTime warmup_end = t0 + SimTime::from_ms(2);
  const SimTime measure_end = t0 + SimTime::from_ms(4);
  std::uint64_t seq = 0;
  for (SimTime t = SimTime::from_us(200); t0 + t < measure_end; t += SimTime::from_us(10), ++seq) {
    fabric.net.inject(kS1, kHostPort, data_frame(seq), t);
  }
  fabric.sim.run_until(warmup_end);

  const std::uint64_t delivered_before = fabric.net.merged_stats().frames_delivered;
  AllocProbe::reset();
  fabric.sim.run_until(measure_end);
  Window window;
  window.allocations = AllocProbe::allocations();
  window.deallocations = AllocProbe::deallocations();
  window.frames_delivered = fabric.net.merged_stats().frames_delivered - delivered_before;
  return window;
}

TEST(AllocRegression, SteadyStateHulaForwardingDoesNotAllocate) {
  ASSERT_TRUE(AllocProbe::active());
  experiments::Fabric fabric(line_options());
  const SimTime t0 = build_line(fabric);

  const Window window = measure_forwarding(fabric, t0);

  // The window really exercised the path: ~180 injections, each crossing
  // two links.
  EXPECT_GT(window.frames_delivered, 300u);
  EXPECT_EQ(window.allocations, 0u)
      << "steady-state hula forwarding must not touch the heap; " << window.deallocations
      << " frees in the same window";

  // The pool closed the buffer cycle: recycled storage, bounded list.
  const auto& pool_stats = fabric.net.pool().stats();
  EXPECT_GT(pool_stats.releases, 0u);
  EXPECT_LE(fabric.net.pool().free_buffers(), fabric.net.pool().config().max_buffers);
}

TEST(AllocRegression, AuthenticatedProbeHopDoesNotAllocate) {
  ASSERT_TRUE(AllocProbe::active());
  experiments::Fabric fabric(line_options());
  const SimTime t0 = build_line(fabric);

  // A probe round every 50 us from S3: S2 verifies, stamps and re-tags
  // it, S1 verifies and consumes it. The triggers are scheduled up front,
  // so they are born outside the window, and at the pool's floor
  // capacity: a dead 1-byte trigger is parked and later grown once, an
  // allocation of the generator, not of the hop.
  const SimTime warmup_end = t0 + SimTime::from_ms(2);
  const SimTime measure_end = t0 + SimTime::from_ms(4);
  for (SimTime t = SimTime::from_us(200); t0 + t < measure_end; t += SimTime::from_us(50)) {
    Bytes trigger = hula::encode_probe_gen();
    trigger.reserve(fabric.net.pool().config().min_capacity);
    fabric.net.inject(kS3, kHostPort, std::move(trigger), t);
  }
  fabric.sim.run_until(warmup_end);

  const auto verified = [&] {
    return fabric.at(kS1).agent->stats().feedback_verified +
           fabric.at(kS2).agent->stats().feedback_verified;
  };
  const std::uint64_t verified_before = verified();
  const std::uint64_t tagged_before = fabric.at(kS2).agent->stats().feedback_tagged;
  AllocProbe::reset();
  fabric.sim.run_until(measure_end);
  const std::uint64_t allocations = AllocProbe::allocations();

  // ~40 rounds in the window, each verified at S2 and at S1 and re-tagged
  // at S2; nothing rejected.
  EXPECT_GT(verified() - verified_before, 70u);
  EXPECT_GT(fabric.at(kS2).agent->stats().feedback_tagged - tagged_before, 35u);
  EXPECT_EQ(fabric.at(kS1).agent->stats().feedback_rejected, 0u);
  EXPECT_EQ(fabric.at(kS2).agent->stats().feedback_rejected, 0u);
  EXPECT_EQ(allocations, 0u) << "an authenticated probe hop must not touch the heap; "
                             << AllocProbe::deallocations() << " frees in the same window";
}

TEST(AllocRegression, PassThroughTamperHookDoesNotAllocate) {
  ASSERT_TRUE(AllocProbe::active());
  experiments::Fabric fabric(line_options());
  const SimTime t0 = build_line(fabric);

  // An on-link observer on S1 -> S2 that never rewrites: every data frame
  // crosses it, and the network's before/after compare must reuse its
  // scratch copy instead of allocating one per frame.
  std::uint64_t hooked = 0;
  netsim::Link* s1_s2 = fabric.net.link_at(kS1, PortId{1});
  ASSERT_NE(s1_s2, nullptr);
  s1_s2->set_tamper(kS1, [&hooked](Bytes&) {
    ++hooked;
    return netsim::TamperVerdict::Pass;
  });

  const std::uint64_t hooked_before_window = hooked;
  const Window window = measure_forwarding(fabric, t0);

  EXPECT_GT(window.frames_delivered, 300u);
  EXPECT_GT(hooked, hooked_before_window + 150);
  EXPECT_EQ(fabric.net.merged_stats().frames_tampered, 0u);
  EXPECT_EQ(window.allocations, 0u)
      << "a pass-through tamper hook must not allocate per frame; " << window.deallocations
      << " frees in the same window";
}

TEST(AllocRegression, DrainedQueueRefillsWithoutAllocating) {
  ASSERT_TRUE(AllocProbe::active());
  experiments::Fabric fabric(line_options());
  build_line(fabric);
  fabric.run_all();

  // Two identical batches, each run to an empty queue. The first sizes
  // the event slab and warms every table and buffer; the second must
  // reuse all of it.
  constexpr std::uint64_t kFrames = 200;
  const auto schedule_batch = [&](std::vector<Bytes>& frames) {
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      fabric.net.inject(kS1, kHostPort, std::move(frames[i]), SimTime::from_us(10 * (i + 1)));
    }
  };
  std::vector<Bytes> first;
  std::vector<Bytes> second;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    first.push_back(data_frame(i));
    second.push_back(data_frame(i));
  }

  schedule_batch(first);
  const std::size_t depth = fabric.sim.queue_depth();
  fabric.run_all();
  ASSERT_TRUE(fabric.sim.empty());
  const std::size_t high_water = fabric.sim.max_queue_depth();
  const std::uint64_t delivered_before = fabric.net.merged_stats().frames_delivered;

  AllocProbe::reset();
  schedule_batch(second);
  const std::size_t refilled = fabric.sim.queue_depth();
  fabric.run_all();
  const std::uint64_t allocations = AllocProbe::allocations();

  EXPECT_EQ(depth, kFrames);
  EXPECT_EQ(refilled, depth);
  EXPECT_TRUE(fabric.sim.empty());
  EXPECT_EQ(fabric.sim.max_queue_depth(), high_water);
  EXPECT_GE(fabric.net.merged_stats().frames_delivered, delivered_before + 2 * kFrames);
  EXPECT_EQ(allocations, 0u) << "a drained queue must refill into its old slots; "
                             << AllocProbe::deallocations() << " frees in the same window";
}

/// Schedules `kDeep` events at pseudo-random times over the next 20 ms;
/// each fires once and re-arms itself once within the same 20 ms, so the
/// queue stays thousands deep while it drains (the depth hula_mitm keeps
/// pending) and every refill moves events down several buckets.
void deep_round(netsim::Simulator& sim, std::uint64_t& fired) {
  constexpr std::uint64_t kDeep = 4096;
  constexpr std::uint64_t kSpanNs = 20'000'000;
  const SimTime start = sim.now();
  std::uint64_t x = 0x9E3779B97F4A7C15u;
  const auto next_ns = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % kSpanNs;
  };
  for (std::uint64_t i = 0; i < kDeep; ++i) {
    const SimTime first = start + SimTime::from_ns(next_ns());
    const SimTime second = start + SimTime::from_ns(next_ns());
    sim.at(first, [&sim, &fired, second] {
      ++fired;
      // The capture stays inline, so re-arming touches only the queue.
      sim.at(std::max(second, sim.now()), [&fired] { ++fired; });
    });
  }
  sim.run();
}

TEST(AllocRegression, DeepQueueSchedulesAndFiresWithoutAllocating) {
  ASSERT_TRUE(AllocProbe::active());
  netsim::Simulator sim;
  std::uint64_t fired = 0;
  // The first round sizes the slab, the entry table and the current-time
  // bucket; the second replays the same schedule 20 ms later.
  deep_round(sim, fired);
  const std::size_t high_water = sim.max_queue_depth();
  ASSERT_GE(high_water, 4096u);

  AllocProbe::reset();
  deep_round(sim, fired);
  const std::uint64_t allocations = AllocProbe::allocations();

  EXPECT_EQ(fired, 4u * 4096u);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.max_queue_depth(), high_water);
  EXPECT_EQ(allocations, 0u) << "a warm deep queue must schedule, refill and fire in place; "
                             << AllocProbe::deallocations() << " frees in the same window";
}

/// Two l3fwd switches on the P4Auth control channel, every key installed,
/// the agents' l3_stats register exposed to the controller.
void build_l3_pair(experiments::Fabric& fabric) {
  for (const NodeId id : {kS1, kS2}) {
    auto& entry = fabric.add_switch(
        id, [](dataplane::RegisterFile& registers) -> std::unique_ptr<dataplane::DataPlaneProgram> {
          return std::make_unique<apps::l3fwd::L3FwdProgram>(registers);
        });
    ASSERT_TRUE(entry.agent->expose_register(apps::l3fwd::kStatsReg, "l3_stats").ok());
  }
  fabric.connect(kS1, PortId{1}, kS2, PortId{1});
  ASSERT_TRUE(fabric.init_all_keys().ok());
}

/// Closed loop of authenticated register ops on one switch: write a value
/// to a cell, read it back, move to the next cell. Each completion checks
/// its result and issues the next op from inside the callback, so exactly
/// one op is in flight.
class RegisterLoop {
 public:
  RegisterLoop(controller::Controller& ctrl, NodeId sw) : ctrl_(ctrl), sw_(sw) {}

  /// Queues `ops` more ops and issues the first; the simulator runs them.
  void start(std::uint64_t ops) {
    remaining_ = ops;
    issue();
  }

  std::uint64_t completed() const noexcept { return completed_; }
  std::uint64_t failures() const noexcept { return failures_; }

 private:
  void issue() {
    if (remaining_ == 0) return;
    --remaining_;
    // The completion captures one pointer: std::function keeps it in its
    // local buffer, so the callback itself never allocates.
    const auto done = [this](Result<std::uint64_t> r) { complete(r); };
    static_assert(sizeof(done) <= 16 && std::is_trivially_copyable_v<decltype(done)>);
    if (reading_) {
      ctrl_.read_register(sw_, apps::l3fwd::kStatsReg, cell_, done);
    } else {
      ctrl_.write_register(sw_, apps::l3fwd::kStatsReg, cell_, value_, done);
    }
  }

  void complete(const Result<std::uint64_t>& r) {
    ++completed_;
    if (!r.ok() || r.value() != value_) ++failures_;
    if (reading_) {
      cell_ = (cell_ + 1) % 64;
      value_ = (value_ * 2654435761u + 1) & 0xFFFFFFFFu;  // l3_stats is 32 bits wide
    }
    reading_ = !reading_;
    issue();
  }

  controller::Controller& ctrl_;
  NodeId sw_;
  std::uint64_t remaining_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failures_ = 0;
  std::uint32_t cell_ = 0;
  std::uint64_t value_ = 1;
  bool reading_ = false;
};

TEST(AllocRegression, AuthenticatedRegisterRoundTripDoesNotAllocate) {
  ASSERT_TRUE(AllocProbe::active());
  experiments::Fabric fabric(line_options());
  build_l3_pair(fabric);

  // Warmup sizes every reused structure once: the controller's frame
  // pool, pending table, ledger and PacketIn batches, and the event slab.
  RegisterLoop loop(fabric.controller, kS1);
  loop.start(200);
  fabric.run_all();
  ASSERT_EQ(loop.completed(), 200u);

  const auto& agent = fabric.at(kS1).agent->stats();
  const std::uint64_t served_before = agent.reads_served + agent.writes_served;
  const std::uint64_t acks_before = fabric.controller.stats().acks_received;
  AllocProbe::reset();
  loop.start(400);
  fabric.run_all();
  const std::uint64_t allocations = AllocProbe::allocations();

  EXPECT_EQ(loop.completed(), 600u);
  EXPECT_EQ(loop.failures(), 0u);
  EXPECT_EQ(agent.reads_served + agent.writes_served - served_before, 400u);
  EXPECT_EQ(fabric.controller.stats().acks_received - acks_before, 400u);
  EXPECT_EQ(fabric.controller.stats().response_digest_failures, 0u);
  EXPECT_EQ(allocations, 0u) << "an authenticated register round trip must not touch the heap; "
                             << AllocProbe::deallocations() << " frees in the same window";
}

TEST(AllocRegression, RegisterAckRidesInTheRequestBuffer) {
  experiments::Fabric fabric(line_options());
  build_l3_pair(fabric);

  // Pass-through OS hooks record where each frame's bytes live as it
  // crosses the switch OS: the PacketOut on its way in, the PacketIn on
  // its way out.
  std::vector<const std::uint8_t*> packet_outs;
  std::vector<const std::uint8_t*> packet_ins;
  netsim::OsInterposer observer;
  observer.to_dataplane = [&](Bytes& frame) {
    packet_outs.push_back(frame.data());
    return netsim::TamperVerdict::Pass;
  };
  observer.to_controller = [&](Bytes& frame) {
    packet_ins.push_back(frame.data());
    return netsim::TamperVerdict::Pass;
  };
  fabric.at(kS1).sw->set_os_interposer(std::move(observer));

  const std::uint64_t acquires_before = fabric.net.pool().stats().acquires;
  std::optional<Result<std::uint64_t>> write, read;
  fabric.controller.write_register(kS1, apps::l3fwd::kStatsReg, 5, 0xBEEF,
                                   [&](Result<std::uint64_t> r) { write = std::move(r); });
  fabric.run_all();
  fabric.controller.read_register(kS1, apps::l3fwd::kStatsReg, 5,
                                  [&](Result<std::uint64_t> r) { read = std::move(r); });
  fabric.run_all();

  ASSERT_TRUE(write.has_value() && write->ok());
  ASSERT_TRUE(read.has_value() && read->ok());
  EXPECT_EQ(read->value(), 0xBEEFu);
  ASSERT_EQ(packet_outs.size(), 2u);
  ASSERT_EQ(packet_ins.size(), 2u);
  // Each ack is sealed into the buffer its request arrived in...
  EXPECT_EQ(packet_ins[0], packet_outs[0]);
  EXPECT_EQ(packet_ins[1], packet_outs[1]);
  // ...which returns to the controller's pool and carries the next request.
  EXPECT_EQ(packet_outs[1], packet_outs[0]);
  // The network pool is never asked for a reply buffer: its acquire count,
  // which the seed-7 goldens pin, does not move.
  EXPECT_EQ(fabric.net.pool().stats().acquires, acquires_before);
}

TEST(AllocRegression, PortKeyUpdateAllocatesItsCompletionAndOnePoolMiss) {
  ASSERT_TRUE(AllocProbe::active());
  experiments::Fabric fabric(line_options());
  build_l3_pair(fabric);

  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  // Captures two pointers: std::function keeps the callback inline.
  const auto done = [&completed, &failed](Status s) { ++(s.ok() ? completed : failed); };
  static_assert(sizeof(done) <= 16);
  const auto update = [&] {
    fabric.controller.update_port_key(kS1, PortId{1}, kS2, done);
    fabric.run_all();
  };
  for (int i = 0; i < 8; ++i) update();  // warmup: every table, slot and batch is sized

  constexpr std::uint64_t kUpdates = 32;
  AllocProbe::reset();
  for (std::uint64_t i = 0; i < kUpdates; ++i) update();
  const std::uint64_t allocations = AllocProbe::allocations();

  EXPECT_EQ(completed, 8 + kUpdates);
  EXPECT_EQ(failed, 0u);
  // Two allocations per update, both known:
  //  - the `delivered` closure holds `done` (a 32-byte std::function)
  //    beside the switch, op and start time: past std::function's local
  //    buffer, so it is boxed once;
  //  - the controller pool misses once: the portKeyUpdate buffer leaves
  //    through a data port as the DP-DP leg and dies in the network pool,
  //    so it never comes back to the controller.
  // Any new allocation on the update path shows here as a third.
  EXPECT_EQ(allocations, 2 * kUpdates) << AllocProbe::deallocations()
                                       << " frees in the same window";
}

TEST(AllocRegression, SuccessfulDecodesDoNotAllocate) {
  ASSERT_TRUE(AllocProbe::active());
  const auto p4auth_frame = [](core::HdrType type, std::uint8_t msg_type, core::Payload payload) {
    core::Message m;
    m.header.hdr_type = type;
    m.header.msg_type = msg_type;
    m.header.seq_num = 9;
    m.header.src = kS1;
    m.header.dst = kS2;
    m.payload = std::move(payload);
    return core::encode(m);
  };
  // DpData is left out: decode copies its inner bytes into the Message
  // by design (the agent's hot path reads the frame in place instead).
  const std::vector<Bytes> messages = {
      p4auth_frame(core::HdrType::RegisterOp, 1, core::RegisterOpPayload{RegisterId{7}, 3, 5}),
      p4auth_frame(core::HdrType::KeyExchange, 1, core::EakPayload{11}),
      p4auth_frame(core::HdrType::KeyExchange, 3, core::AdhkdPayload{12, 13}),
      p4auth_frame(core::HdrType::KeyExchange, 5, core::PortKeyPayload{PortId{1}, kS2}),
      p4auth_frame(core::HdrType::Alert, 1, core::AlertPayload{1, 2, 3, 4}),
  };
  const Bytes lldp = core::encode_lldp({kS1, PortId{1}});
  const Bytes lldp_report = core::encode_lldp_report({kS1, PortId{1}, kS2, PortId{2}});
  hula::Probe probe;
  probe.origin_tor = kS3;
  probe.trace = {{kS3, PortId{1}, 10}, {kS2, PortId{2}, 20}, {kS1, PortId{1}, 30}};
  const Bytes probe_frame = hula::encode_probe(probe);
  const Bytes data = hula::encode_data({kS3, 77, 1500});
  const Bytes blink = apps::blink::encode_packet({5, 77, false});
  const Bytes flowradar = apps::flowradar::encode_packet({0xBEEF});
  const Bytes flowstats = apps::flowstats::encode_packet({6, 700});
  const Bytes ipv4 = apps::l3fwd::encode_ipv4({0x0A000001, 64});
  const Bytes query = apps::netcache::encode_query({42});
  const Bytes response = apps::netcache::encode_response({42, 99, true});
  const Bytes rs_data = apps::routescout::encode_data({123, 900});
  const Bytes rs_sample = apps::routescout::encode_sample({1, 250});
  const Bytes conn = apps::silkroad::encode_conn({2, 31337});

  // The scratch probe's trace is sized by a first decode, as a program's
  // scratch probe is by the first probe it sees.
  hula::Probe scratch;
  ASSERT_TRUE(hula::decode_probe_into(probe_frame, scratch).ok());

  constexpr std::uint64_t kRounds = 100;
  // Header and message of each P4Auth frame, 2 LLDP, 2 HULA, 9 app decodes.
  constexpr std::uint64_t kDecodesPerRound = 2 * 5 + 2 + 2 + 9;
  std::uint64_t decoded = 0;
  AllocProbe::reset();
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (const Bytes& frame : messages) {
      decoded += core::decode_header(frame).ok();
      decoded += core::decode(frame).ok();
    }
    decoded += core::decode_lldp(lldp).ok();
    decoded += core::decode_lldp_report(lldp_report).ok();
    decoded += hula::decode_probe_into(probe_frame, scratch).ok();
    decoded += hula::decode_data(data).ok();
    decoded += apps::blink::decode_packet(blink).ok();
    decoded += apps::flowradar::decode_packet(flowradar).ok();
    decoded += apps::flowstats::decode_packet(flowstats).ok();
    decoded += apps::l3fwd::decode_ipv4(ipv4).ok();
    decoded += apps::netcache::decode_query(query).ok();
    decoded += apps::netcache::decode_response(response).ok();
    decoded += apps::routescout::decode_data(rs_data).ok();
    decoded += apps::routescout::decode_sample(rs_sample).ok();
    decoded += apps::silkroad::decode_conn(conn).ok();
  }
  const std::uint64_t allocations = AllocProbe::allocations();

  EXPECT_EQ(decoded, kRounds * kDecodesPerRound);
  EXPECT_EQ(scratch, probe);
  EXPECT_EQ(allocations, 0u) << "a successful decode must not touch the heap; "
                             << AllocProbe::deallocations() << " frees in the same window";
}

}  // namespace
}  // namespace p4auth

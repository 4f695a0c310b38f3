// Zero-allocation regression test for the steady-state forwarding path.
//
// Builds a 3-switch hula line (S1 tor -> S2 -> S3 tor) with P4Auth
// enabled, runs one probe round plus a data warmup so every table, pool
// buffer, and event-queue slot exists, then counts global operator new
// calls across a measurement window that contains only data forwarding.
// The pooled-buffer + inline-closure + scratch-digest design must keep
// that window at exactly zero allocations.
//
// This binary compiles src/common/alloc_probe.cpp directly (see that
// file's header comment): the counting operator new is per-binary and an
// archive member would not be pulled in.
#include <gtest/gtest.h>

#include "apps/hula/hula.hpp"
#include "common/alloc_probe.hpp"
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

TEST(AllocRegression, SteadyStateHulaForwardingDoesNotAllocate) {
  ASSERT_TRUE(AllocProbe::active());

  experiments::Fabric::Options options;
  options.p4auth = true;
  options.seed = 7;
  options.protected_magics = {hula::kProbeMagic};
  experiments::Fabric fabric(options);

  fabric.add_switch(kS1, make_hula(kS1, /*is_tor=*/true, {}));
  fabric.add_switch(kS2, make_hula(kS2, /*is_tor=*/false, {PortId{1}}));
  fabric.add_switch(kS3, make_hula(kS3, /*is_tor=*/true, {PortId{1}}));

  netsim::LinkConfig link;
  link.latency = SimTime::from_us(10);
  link.bandwidth_gbps = 10.0;
  fabric.connect(kS1, PortId{1}, kS2, PortId{1}, link);
  fabric.connect(kS2, PortId{2}, kS3, PortId{1}, link);
  ASSERT_TRUE(fabric.init_all_keys().ok());

  // init_all_keys() ran the simulator through the whole KMP bring-up, so
  // the clock is already a few ms in; all times below are relative to it
  // (inject() delays are relative already, run_until targets are not).
  const SimTime t0 = fabric.sim.now();

  // One probe round from S3 teaches S2 and S1 the route toward S3. The
  // probe path (trace growth, p4auth wrap + verify) is allowed to
  // allocate; it stays outside the measurement window.
  fabric.net.inject(kS3, kHostPort, hula::encode_probe_gen(), SimTime::from_us(50));

  // All injections are scheduled up front so the event heap reaches its
  // high-water mark before the window opens and the payload vectors are
  // born outside it. Flow ids repeat so warmup creates every flowlet
  // entry the measurement window touches.
  const SimTime warmup_end = t0 + SimTime::from_ms(2);
  const SimTime measure_end = t0 + SimTime::from_ms(4);
  std::uint64_t seq = 0;
  for (SimTime t = SimTime::from_us(200); t0 + t < measure_end; t += SimTime::from_us(10), ++seq) {
    hula::DataPacket packet;
    packet.dst_tor = kS3;
    packet.flow_id = seq % 8;
    packet.size_bytes = 200;
    fabric.net.inject(kS1, kHostPort, hula::encode_data(packet), t);
  }

  fabric.sim.run_until(warmup_end);

  const std::uint64_t delivered_before = fabric.net.merged_stats().frames_delivered;

  AllocProbe::reset();
  fabric.sim.run_until(measure_end);
  const std::uint64_t allocations = AllocProbe::allocations();

  // The window really exercised the path: ~180 injections, each crossing
  // two links.
  EXPECT_GT(fabric.net.merged_stats().frames_delivered, delivered_before + 300);
  EXPECT_EQ(allocations, 0u)
      << "steady-state hula forwarding must not touch the heap; "
      << AllocProbe::deallocations() << " frees in the same window";

  // The pool closed the buffer cycle: recycled storage, bounded list.
  const auto& pool_stats = fabric.net.pool().stats();
  EXPECT_GT(pool_stats.releases, 0u);
  EXPECT_LE(fabric.net.pool().free_buffers(), fabric.net.pool().config().max_buffers);
}

}  // namespace
}  // namespace p4auth

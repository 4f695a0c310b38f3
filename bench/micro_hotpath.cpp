// Micro-benchmark for the zero-allocation hot path: event scheduling
// throughput (InplaceHandler), two-span digest throughput (scratch-based
// MAC input), and allocations per forwarded packet on a steady-state
// hula fabric (pooled buffers). The allocation figure is deterministic
// and CI-gated via alloc_headroom = 1 / (1 + allocs_per_packet), which
// is 1.0 exactly when the steady-state path never touches the heap; the
// timing figures are machine-dependent and informational.
//
// This binary compiles src/common/alloc_probe.cpp directly: the
// counting operator new/delete replacement is per-binary.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "apps/hula/hula.hpp"
#include "common/alloc_probe.hpp"
#include "crypto/halfsiphash_lanes.hpp"
#include "crypto/mac.hpp"
#include "experiments/fabric.hpp"
#include "netsim/simulator.hpp"
#include "report.hpp"

using namespace p4auth;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Schedules and dispatches delivery-shaped events (small capture, fits
/// the InplaceHandler inline buffer) in rounds; returns events/second.
double bench_events() {
  netsim::Simulator sim;
  std::uint64_t fired = 0;
  constexpr int kTrials = 9;  // best-of, same rationale as bench_digests
  constexpr int kRounds = 40;
  constexpr int kPerRound = 10'000;
  double best = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t before = fired;
    const auto start = std::chrono::steady_clock::now();
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kPerRound; ++i) {
        sim.after(SimTime::from_ns(static_cast<std::uint64_t>(i)), [&fired] { ++fired; });
      }
      sim.run();
    }
    best = std::max(best, static_cast<double>(fired - before) / seconds_since(start));
  }
  return best;
}

/// Two-span digests over a p4auth-sized header scratch plus a payload
/// tail: the scalar seam (one digest per call — the data plane's
/// per-packet verify path) and the multi-lane overload in batches of 32
/// (the controller's PacketIn batch path). Returns digests/second for
/// both.
struct DigestRates {
  double scalar = 0.0;
  double lanes = 0.0;
};

DigestRates bench_digests() {
  constexpr std::size_t kBatch = 32;  // digests per multi-lane call
  std::uint8_t heads[kBatch][26];
  std::uint8_t tail[64];
  for (std::size_t lane = 0; lane < kBatch; ++lane) {
    for (std::size_t i = 0; i < sizeof(heads[0]); ++i) {
      heads[lane][i] = static_cast<std::uint8_t>(i + lane);
    }
  }
  for (std::size_t i = 0; i < sizeof(tail); ++i) tail[i] = static_cast<std::uint8_t>(i * 7);

  DigestRates rates;
  Digest32 checksum = 0;

  // Shared-host timing noise swings single long windows by 30%+; the
  // best of several shorter trials estimates uncontended capability
  // (the min-time-per-iter convention) for scalar and lanes alike.
  constexpr int kTrials = 9;

  constexpr int kScalarIters = 400'000;
  rates.scalar = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kScalarIters; ++i) {
      heads[0][0] = static_cast<std::uint8_t>(i);
      checksum ^=
          crypto::compute_digest(crypto::MacKind::HalfSipHash24, 0xFEEDFACEull, heads[0], tail);
    }
    rates.scalar =
        std::max(rates.scalar, static_cast<double>(kScalarIters) / seconds_since(start));
  }

  constexpr int kBatches = 50'000;  // 1.6M digests per trial
  crypto::DigestJob jobs[kBatch];
  Digest32 tags[kBatch];
  for (std::size_t lane = 0; lane < kBatch; ++lane) {
    jobs[lane] = crypto::DigestJob{0xFEEDFACEull, heads[lane], tail};
  }
  rates.lanes = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto start = std::chrono::steady_clock::now();
    for (int b = 0; b < kBatches; ++b) {
      for (std::size_t lane = 0; lane < kBatch; ++lane) {
        heads[lane][0] = static_cast<std::uint8_t>(b + static_cast<int>(lane));
      }
      crypto::compute_digest(crypto::MacKind::HalfSipHash24, jobs, tags);
      for (std::size_t lane = 0; lane < kBatch; ++lane) checksum ^= tags[lane];
    }
    rates.lanes = std::max(rates.lanes, static_cast<double>(kBatches) *
                                            static_cast<double>(kBatch) / seconds_since(start));
  }

  std::printf("(digest checksum %08x, lane backend %s)\n", checksum,
              crypto::sip_lane_backend_name(crypto::active_sip_lane_backend()));
  return rates;
}

/// Steady-state hula forwarding on a 3-switch line (same shape as the
/// integration alloc-regression test): warm up tables/pool/event heap,
/// then count operator new calls per delivered frame.
double bench_allocs_per_packet() {
  namespace hula = apps::hula;
  constexpr NodeId kS1{1}, kS2{2}, kS3{3};
  constexpr PortId kHostPort{9};

  experiments::Fabric::Options options;
  options.p4auth = true;
  options.seed = 7;
  options.protected_magics = {hula::kProbeMagic};
  experiments::Fabric fabric(options);

  const auto make_hula = [](NodeId self, bool is_tor, std::vector<PortId> probe_ports) {
    return [self, is_tor, probe_ports = std::move(probe_ports)](dataplane::RegisterFile& regs)
               -> std::unique_ptr<dataplane::DataPlaneProgram> {
      hula::HulaProgram::Config config;
      config.self = self;
      config.is_tor = is_tor;
      config.probe_ports = probe_ports;
      config.entry_timeout = SimTime::from_ms(500);
      config.flowlet_timeout = SimTime::from_ms(50);
      return std::make_unique<hula::HulaProgram>(config, regs);
    };
  };
  fabric.add_switch(kS1, make_hula(kS1, /*is_tor=*/true, {}));
  fabric.add_switch(kS2, make_hula(kS2, /*is_tor=*/false, {PortId{1}}));
  fabric.add_switch(kS3, make_hula(kS3, /*is_tor=*/true, {PortId{1}}));
  netsim::LinkConfig link;
  link.latency = SimTime::from_us(10);
  link.bandwidth_gbps = 10.0;
  fabric.connect(kS1, PortId{1}, kS2, PortId{1}, link);
  fabric.connect(kS2, PortId{2}, kS3, PortId{1}, link);
  if (!fabric.init_all_keys().ok()) return -1.0;

  // init_all_keys() advanced the clock through KMP bring-up; run_until
  // targets are absolute, inject delays relative.
  const SimTime t0 = fabric.sim.now();
  fabric.net.inject(kS3, kHostPort, hula::encode_probe_gen(), SimTime::from_us(50));
  const SimTime warmup_end = t0 + SimTime::from_ms(2);
  const SimTime measure_end = t0 + SimTime::from_ms(10);
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
  const std::uint64_t delivered = fabric.net.merged_stats().frames_delivered - delivered_before;
  if (delivered == 0) return -1.0;
  std::printf("window: %llu allocations over %llu delivered frames\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(delivered));
  return static_cast<double>(allocations) / static_cast<double>(delivered);
}

}  // namespace

int main() {
  bench::title("micro_hotpath — event, digest, and allocation hot paths");
  if (!AllocProbe::active()) {
    std::fprintf(stderr, "alloc probe not linked into this binary\n");
    return 1;
  }

  const double events_per_sec = bench_events();
  std::printf("event schedule+dispatch: %12.0f events/s\n", events_per_sec);
  const DigestRates digests = bench_digests();
  const double digest_speedup = digests.scalar > 0.0 ? digests.lanes / digests.scalar : 0.0;
  std::printf("two-span digest, scalar (26+64B): %11.0f digests/s\n", digests.scalar);
  std::printf("two-span digest, lanes  (26+64B): %11.0f digests/s (%.2fx)\n", digests.lanes,
              digest_speedup);
  const double allocs_per_packet = bench_allocs_per_packet();
  if (allocs_per_packet < 0.0) {
    std::fprintf(stderr, "hula fabric setup failed\n");
    return 1;
  }
  std::printf("steady-state forwarding: %13.4f allocs/packet\n", allocs_per_packet);
  const double alloc_headroom = 1.0 / (1.0 + allocs_per_packet);
  bench::rule();

  bench::JsonReport report("micro_hotpath");
  report.row()
      .field("variant", "hotpath")
      .field("alloc_headroom", alloc_headroom)
      .field("allocs_per_packet", allocs_per_packet)
      .field("events_per_sec", events_per_sec)
      .field("digests_per_sec", digests.lanes)
      .field("digest_scalar_per_sec", digests.scalar)
      .field("digest_speedup", digest_speedup);
  return 0;
}

// The benchmark workloads (and fuzz_campaign, see README.md). Each is a
// closed loop that runs as fast as the simulator goes, with its offered
// load fixed in simulated time, and checks its own outputs batch by
// batch. README.md says why each was chosen and which layers it loads.
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/hula/hula.hpp"
#include "apps/l3fwd/l3fwd.hpp"
#include "attacks/link_mitm.hpp"
#include "bench.hpp"
#include "experiments/fabric.hpp"
#include "experiments/hula_experiment.hpp"
#include "scenario/engine.hpp"
#include "scenario/oracle.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

using namespace p4auth;
using experiments::Fabric;
namespace hula = apps::hula;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

SpanLedger::Entry* SpanLedger::entry(std::string_view name) {
  const auto it = entries_.find(name);
  if (it != entries_.end()) return &it->second;
  return &entries_.emplace(std::string(name), Entry{}).first->second;
}

void SpanLedger::close() {
  const Open top = stack_.back();
  stack_.pop_back();
  const std::uint64_t elapsed = now_ns() - top.start;
  ++top.entry->calls;
  top.entry->total_ns += elapsed;
  top.entry->child_ns += top.child_ns;
  if (stack_.empty()) {
    top_level_ns_ += elapsed;
  } else {
    stack_.back().child_ns += elapsed;
  }
}

void PassStats::add_op(double us) {
  ++ops;
  open_window.push_back(us);
  if (open_window.size() < window_ops) return;
  window_p50.push_back(quantile(open_window, 0.50));
  window_p95.push_back(quantile(open_window, 0.95));
  open_window.clear();
}

double PassStats::op_quantile(double q) const {
  if (window_p50.empty()) return quantile(open_window, q);
  return quantile(q == 0.5 ? window_p50 : window_p95, 0.90);
}

void run_batches(Workload& workload, double seconds, Checks& checks, PassStats& stats,
                 bool finish) {
  stats.window_ops = workload.window_ops();
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    const std::uint64_t failed_before = checks.failed();
    const BatchResult batch = workload.run_batch(checks);
    stats.attempted += batch.attempted;
    stats.failed += std::min(checks.failed() - failed_before, batch.attempted);
    stats.measured_s += batch.wall_s;
    stats.rates.push_back(batch.work / batch.wall_s);
    for (const double us : batch.op_us) stats.add_op(us);
  }
  if (!finish) return;
  const std::uint64_t failed_before = checks.failed();
  workload.finish(checks);
  ++stats.attempted;
  if (checks.failed() > failed_before) ++stats.failed;
}

const std::vector<std::string>& benchmark_workloads() {
  static const std::vector<std::string> names = {"hula_mitm", "probe_chain", "ctrl_rotate"};
  return names;
}

namespace {

/// splitmix64 step: derives independent streams from the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0x9E3779B97F4A7C15ull);
  return scenario::splitmix64(state);
}

double exp_gap(Xoshiro256& rng, double mean) {
  double u = rng.next_double();
  if (u <= 0.0) u = 1e-12;
  return -mean * std::log(u);
}

/// Wraps `program` in the timing decorator when the run is traced.
std::unique_ptr<dataplane::DataPlaneProgram> maybe_timed(
    std::unique_ptr<dataplane::DataPlaneProgram> program, Instruments* inst) {
  if (inst == nullptr) return program;
  return std::make_unique<TimedProgram>(std::move(program), inst->spans);
}

/// Span entries for the calls the fabric workloads make into the program.
struct FabricSpans {
  SpanLedger* ledger = nullptr;
  SpanLedger::Entry* build = nullptr;
  SpanLedger::Entry* keys = nullptr;
  SpanLedger::Entry* inject = nullptr;
  SpanLedger::Entry* run_all = nullptr;

  explicit FabricSpans(Instruments* inst) {
    if (inst == nullptr) return;
    ledger = &inst->spans;
    build = ledger->entry("fabric.build");
    keys = ledger->entry("fabric.init_all_keys");
    inject = ledger->entry("network.inject");
    run_all = ledger->entry("fabric.run_all");
  }
};

/// One pre-generated host injection: generated before the batch timer
/// starts, so the timed section is inject + run to quiescence.
struct Injection {
  NodeId node{};
  SimTime at{};  ///< offset from the batch origin
  Bytes frame;
};

/// Fabric-based workloads share the batch skeleton: a batch covers a
/// fixed slice of simulated time; its frames are generated up front,
/// injected relative to the batch origin (never before the current
/// simulated time, since the previous batch ran to quiescence) and the
/// fabric runs to quiescence.
class FabricWorkload : public Workload {
 protected:
  FabricWorkload(Instruments* inst, SimTime slice) : inst_(inst), spans_(inst), slice_(slice) {}

  /// The op is a whole batch (3-10 ms of wall time), so 5 per window.
  std::size_t window_ops() const override { return 5; }

  virtual void generate(std::vector<Injection>& out) = 0;

  std::uint64_t frames_delivered() const { return fabric_->net.merged_stats().frames_delivered; }
  std::size_t events() const {
    return fabric_->engine() != nullptr ? fabric_->engine()->processed()
                                        : fabric_->sim.processed();
  }

  BatchResult run_slice() {
    pending_.clear();
    generate(pending_);
    const SimTime now = fabric_->sim.now();
    if (origin_ < now) origin_ = now;
    const std::uint64_t frames_before = frames_delivered();
    const std::size_t events_before = events();

    const std::uint64_t start = now_ns();
    {
      const auto s = span(spans_.ledger, spans_.inject);
      for (Injection& inj : pending_) {
        fabric_->net.inject(inj.node, kHostPort, std::move(inj.frame), origin_ + inj.at - now);
      }
    }
    {
      const auto s = span(spans_.ledger, spans_.run_all);
      fabric_->run_all();
    }
    const double wall = static_cast<double>(now_ns() - start) * 1e-9;

    origin_ += slice_;
    BatchResult r;
    r.wall_s = wall;
    // Network::Stats counts host injections as deliveries too.
    r.work = static_cast<double>(frames_delivered() - frames_before - pending_.size());
    r.op_us.push_back(wall * 1e6);
    r.attempted = 1;
    last_batch_events_ = events() - events_before;
    return r;
  }

  /// Common simulator/network layer metrics over the timed batches.
  void report_sim_layers(LayerMetrics& out, const std::string& suffix) {
    const double frames = static_cast<double>(frames_delivered() - timed_frames0_);
    const double ev = static_cast<double>(events() - timed_events0_);
    const auto& run_all = *spans_.run_all;
    const double run_ns = static_cast<double>(run_all.total_ns - timed_run_all_ns0_);
    out.push_back(
        {"sim.events_per_frame." + suffix, frames > 0 ? ev / frames : 0, "events/frame"});
    out.push_back({"sim.run_ns_per_event." + suffix, ev > 0 ? run_ns / ev : 0, "ns"});
    std::size_t depth = fabric_->sim.max_queue_depth();
    if (fabric_->engine() != nullptr) {
      for (netsim::Simulator* shard : fabric_->engine()->shard_sims()) {
        depth = std::max(depth, shard->max_queue_depth());
      }
    }
    out.push_back({"sim.max_queue_depth." + suffix, static_cast<double>(depth), "events"});
  }

  /// Marks the start of the timed phase for the per-layer deltas.
  void mark_timed_start() {
    timed_frames0_ = frames_delivered();
    timed_events0_ = events();
    pool0_ = fabric_->net.pool().stats();
    if (spans_.run_all != nullptr) timed_run_all_ns0_ = spans_.run_all->total_ns;
    if (inst_ != nullptr) {
      apps_ns0_ = apps_self_ns();
      const auto& m = inst_->telemetry.metrics;
      for (const char* name : kCounters) counters0_[name] = m.counter_total(name);
      auto& burst = inst_->telemetry.metrics.histogram("pipeline.burst_size");
      burst_count0_ = burst.count();
      burst_sum0_ = burst.sum();
    }
  }

  std::uint64_t apps_self_ns() const {
    return inst_->spans.entry("apps.process")->self_ns() +
           inst_->spans.entry("apps.plan_burst")->self_ns();
  }

  double timed_frames() const { return static_cast<double>(frames_delivered() - timed_frames0_); }
  double counter_delta(const char* name) const {
    const auto it = counters0_.find(name);
    return static_cast<double>(inst_->telemetry.metrics.counter_total(name) -
                               (it == counters0_.end() ? 0 : it->second));
  }
  double per_frame(const char* name) const {
    const double frames = timed_frames();
    return frames > 0 ? counter_delta(name) / frames : 0;
  }

  static constexpr PortId kHostPort{9};
  static constexpr const char* kCounters[] = {
      "dataplane.table_lookups", "dataplane.register_accesses", "dataplane.hashed_bytes",
      "auth.verify_ok",          "auth.verify_fail"};

  Instruments* inst_;
  FabricSpans spans_;
  SimTime slice_;
  SimTime origin_{};
  std::unique_ptr<Fabric> fabric_;
  std::vector<Injection> pending_;
  std::size_t last_batch_events_ = 0;
  std::uint64_t timed_frames0_ = 0;
  std::size_t timed_events0_ = 0;
  std::uint64_t timed_run_all_ns0_ = 0;
  std::map<std::string, std::uint64_t> counters0_;
  std::uint64_t burst_count0_ = 0;
  double burst_sum0_ = 0;
  BufferPool::Stats pool0_{};
  std::uint64_t apps_ns0_ = 0;
};

// --------------------------------------------------------------------------
// hula_mitm: the Fig 17 five-switch HULA fabric at the paper's parameters
// (the defaults of experiments::HulaOptions), P4Auth on, an on-link MitM
// forging probeUtil on S4->S1, and the controller rolling S1's local key
// on every authentic alert.

constexpr NodeId kS1{1}, kS2{2}, kS3{3}, kS4{4}, kS5{5};
const experiments::HulaOptions kPaper{};

class HulaMitm final : public FabricWorkload {
 public:
  static constexpr SimTime kSlice = SimTime::from_ms(20);
  static constexpr int kWarmupBatches = 5;

  HulaMitm(std::uint64_t seed, Instruments* inst, SetupTiming& timing)
      : FabricWorkload(inst, kSlice), data_rng_(derive(seed, 1)), bg_rng_(derive(seed, 2)) {
    std::uint64_t t0 = now_ns();
    {
      const auto s = span(spans_.ledger, spans_.build);
      build(seed);
    }
    std::uint64_t t1 = now_ns();
    timing.build_s = static_cast<double>(t1 - t0) * 1e-9;
    {
      const auto s = span(spans_.ledger, spans_.keys);
      keys_ok_ = fabric_->init_all_keys().ok();
    }
    t0 = now_ns();
    timing.keys_s = static_cast<double>(t0 - t1) * 1e-9;
    if (!keys_ok_) return;
    // The MitM goes live once keys are up, as in the paper's scenario.
    s4_s1_->set_tamper(kS4, attacks::make_probe_util_rewriter(kPaper.forged_util));
    fabric_->controller.set_alert_handler([this](const controller::Controller::AlertRecord& a) {
      if (!a.authentic) return;
      ++authentic_;
      if (a.sw == kS1) alert_keys_.push_back(fabric_->controller.local_key(kS1));
    });
    // Warm-up outcomes are not judged: HULA learns its paths here.
    Checks warm;
    for (int i = 0; i < kWarmupBatches; ++i) run_batch(warm);
    timing.warm_s = static_cast<double>(now_ns() - t0) * 1e-9;
    rekeys0_ = fabric_->controller.stats().alert_rekeys;
    rejected0_ = s1_->agent->stats().feedback_rejected;
    egress0_ = egress();
    probe_rounds0_ = probe_rounds_;
    mark_timed_start();
  }

  bool ok() const { return keys_ok_; }

  BatchResult run_batch(Checks& checks) override {
    const auto& agent = s1_->agent->stats();
    const auto& ctrl = fabric_->controller.stats();
    const std::uint64_t rejected = agent.feedback_rejected;
    const std::uint64_t installs = agent.key_installs;
    const std::uint64_t rekeys = ctrl.alert_rekeys;
    const std::size_t alerts = fabric_->controller.alerts().size();
    const std::uint64_t authentic = authentic_;
    const auto egress_before = egress();
    const std::uint64_t delivered = s5_hula_->stats().data_delivered;
    const std::uint64_t injected = data_injected_;

    BatchResult r = run_slice();

    // Probes over S4 are forged on every round: all of them must be
    // rejected, so S1 never learns (or prefers) the S4 path.
    checks.expect(agent.feedback_rejected > rejected, "hula_mitm: no probe rejected in batch");
    const auto egress_after = egress();
    const std::uint64_t total = egress_after[0] + egress_after[1] + egress_after[2] -
                                egress_before[0] - egress_before[1] - egress_before[2];
    const std::uint64_t s4 = egress_after[2] - egress_before[2];
    checks.expect(total > 0 && static_cast<double>(s4) <= kMaxS4Share * static_cast<double>(total),
                  "hula_mitm: S4-path share above " + std::to_string(kMaxS4Share));
    // Every data frame (S1 flows and cross traffic) reaches S5.
    checks.expect(s5_hula_->stats().data_delivered - delivered == data_injected_ - injected,
                  "hula_mitm: data frames lost");
    // Each authentic alert from S1 leads to a key install: it either
    // starts a rekey or lands while one is in flight, so by quiescence
    // S1's local key differs from the key current when the alert arrived.
    const auto key = fabric_->controller.local_key(kS1);
    for (const auto& before : alert_keys_) {
      checks.expect(key.has_value() && key != before,
                    "hula_mitm: authentic alert not followed by a key install");
    }
    alert_keys_.clear();
    checks.expect(fabric_->controller.alerts().size() - alerts == authentic_ - authentic,
                  "hula_mitm: inauthentic alert");
    // Switch side: every alert-triggered rekey installs exactly once at S1.
    checks.expect(agent.key_installs - installs == ctrl.alert_rekeys - rekeys,
                  "hula_mitm: rekey without exactly one key install at S1");
    return r;
  }

  void finish(Checks& checks) override {
    const auto e = egress();
    const std::uint64_t total = e[0] + e[1] + e[2] - egress0_[0] - egress0_[1] - egress0_[2];
    checks.expect(total > 0 && static_cast<double>(e[2] - egress0_[2]) <=
                                   kMaxS4Share * static_cast<double>(total),
                  "hula_mitm: S4-path share above bound over the run");
    checks.expect(fabric_->controller.stats().alert_rekeys > rekeys0_,
                  "hula_mitm: no alert-triggered rekey over the run");
    checks.expect(s1_->agent->stats().feedback_rejected > rejected0_,
                  "hula_mitm: no probe rejected over the run");
    checks.expect(fabric_->controller.local_key(kS1).has_value() && s1_->agent->has_local_key(),
                  "hula_mitm: S1 lost its local key");
  }

  void report_layers(LayerMetrics& out) override {
    report_sim_layers(out, "hula_mitm");
    auto& burst = inst_->telemetry.metrics.histogram("pipeline.burst_size");
    const double bursts = static_cast<double>(burst.count() - burst_count0_);
    out.push_back(
        {"net.burst_mean", bursts > 0 ? (burst.sum() - burst_sum0_) / bursts : 0, "frames"});
    const auto& pool = fabric_->net.pool().stats();
    const double acquires = static_cast<double>(pool.acquires - pool0_.acquires);
    const double reuses = static_cast<double>(pool.reuses - pool0_.reuses);
    out.push_back({"pool.reuse_frac", acquires > 0 ? reuses / acquires : 0, "ratio"});
    const double frames = timed_frames();
    const double misses = static_cast<double>(pool.misses - pool0_.misses);
    out.push_back({"pool.misses_per_kframe", frames > 0 ? 1e3 * misses / frames : 0, "1/kframe"});
    const double apps_ns = static_cast<double>(apps_self_ns() - apps_ns0_);
    out.push_back({"apps.self_ns_per_frame", frames > 0 ? apps_ns / frames : 0, "ns"});
    out.push_back(
        {"dataplane.table_lookups_per_frame", per_frame("dataplane.table_lookups"), "1/frame"});
    out.push_back({"dataplane.register_accesses_per_frame",
                   per_frame("dataplane.register_accesses"), "1/frame"});
    const double rounds = static_cast<double>(probe_rounds_ - probe_rounds0_);
    out.push_back({"auth.verify_fail_per_round",
                   rounds > 0 ? counter_delta("auth.verify_fail") / rounds : 0, "1/round"});
  }

 private:
  static constexpr double kMaxS4Share = 0.01;

  void build(std::uint64_t seed) {
    Fabric::Options options;
    options.p4auth = true;
    options.seed = seed;
    options.protected_magics = {hula::kProbeMagic};
    options.controller_config.rekey_on_alert = true;
    options.telemetry = inst_ != nullptr ? &inst_->telemetry : nullptr;
    fabric_ = std::make_unique<Fabric>(options);

    s1_ = &fabric_->add_switch(kS1, factory(kS1, true, {}, &s1_hula_));
    fabric_->add_switch(kS2, factory(kS2, false, {PortId{1}, PortId{2}}, nullptr));
    fabric_->add_switch(kS3, factory(kS3, false, {PortId{1}, PortId{2}}, nullptr));
    fabric_->add_switch(kS4, factory(kS4, false, {PortId{1}, PortId{2}}, nullptr));
    fabric_->add_switch(kS5, factory(kS5, true, {PortId{1}, PortId{2}, PortId{3}}, &s5_hula_));

    netsim::LinkConfig link;
    link.latency = SimTime::from_us(20);
    link.bandwidth_gbps = 1.0;
    fabric_->connect(kS1, PortId{1}, kS2, PortId{1}, link);
    fabric_->connect(kS1, PortId{2}, kS3, PortId{1}, link);
    s4_s1_ = fabric_->connect(kS1, PortId{3}, kS4, PortId{1}, link);
    fabric_->connect(kS2, PortId{2}, kS5, PortId{1}, link);
    fabric_->connect(kS3, PortId{2}, kS5, PortId{2}, link);
    fabric_->connect(kS4, PortId{2}, kS5, PortId{3}, link);
  }

  Fabric::ProgramFactory factory(NodeId self, bool is_tor, std::vector<PortId> probe_ports,
                                 hula::HulaProgram** keep) {
    return [this, self, is_tor, probe_ports = std::move(probe_ports),
            keep](dataplane::RegisterFile& registers) {
      hula::HulaProgram::Config config;
      config.self = self;
      config.is_tor = is_tor;
      config.probe_ports = probe_ports;
      config.util_window = SimTime::from_ms(2);
      config.capacity_bytes_per_window = 2.0 * 125'000.0;  // 1 Gb/s x 2 ms
      config.entry_timeout = SimTime::from_ms(3);
      config.flowlet_timeout = SimTime::from_us(300);
      auto program = std::make_unique<hula::HulaProgram>(config, registers);
      if (keep != nullptr) *keep = program.get();
      return maybe_timed(std::move(program), inst_);
    };
  }

  std::array<std::uint64_t, 3> egress() const {
    std::array<std::uint64_t, 3> out{};
    const auto& bytes = s1_hula_->stats().egress_bytes;
    for (std::uint16_t p = 1; p <= 3; ++p) {
      const auto it = bytes.find(PortId{p});
      out[p - 1] = it == bytes.end() ? 0 : it->second;
    }
    return out;
  }

  Bytes data_frame(std::uint64_t flow) const {
    hula::DataPacket packet;
    packet.dst_tor = kS5;
    packet.flow_id = flow;
    packet.size_bytes = kPaper.data_packet_bytes;
    Bytes frame = hula::encode_data(packet);
    if (frame.size() < packet.size_bytes) frame.resize(packet.size_bytes, 0);
    return frame;
  }

  /// Offered load for one slice at kPaper's rates, continuing the Poisson
  /// processes of the previous slice: probe rounds from S5, data packets
  /// from S1 in flows, and cross traffic on each middle->S5 link.
  void generate(std::vector<Injection>& out) override {
    const double end = clock_s_ + slice_.seconds();
    const auto offset = [&](double t) {
      return SimTime::from_ns(static_cast<std::uint64_t>((t - clock_s_) * 1e9));
    };
    for (; probe_t_ < end; probe_t_ += kPaper.probe_period.seconds()) {
      out.push_back(Injection{kS5, offset(probe_t_), hula::encode_probe_gen()});
      ++probe_rounds_;
    }
    const double bg_pps = kPaper.background_load_fraction * 1e9 / 8.0 /
                          static_cast<double>(kPaper.data_packet_bytes);
    for (int m = 0; m < 3; ++m) {
      const NodeId middle{static_cast<std::uint16_t>(2 + m)};
      for (; bg_t_[m] < end; bg_t_[m] += exp_gap(bg_rng_, 1.0 / bg_pps)) {
        out.push_back(Injection{middle, offset(bg_t_[m]),
                                data_frame(1'000'000ull * middle.value + bg_seq_++)});
        ++data_injected_;
      }
    }
    for (; data_t_ < end; data_t_ += exp_gap(data_rng_, 1.0 / kPaper.data_packets_per_second)) {
      out.push_back(Injection{kS1, offset(data_t_), data_frame(flow_)});
      ++data_injected_;
      if (--flow_left_ <= 0) {
        ++flow_;
        flow_left_ = kPaper.mean_flow_packets * (0.5 + data_rng_.next_double());
      }
    }
    clock_s_ = end;
  }

  Xoshiro256 data_rng_;
  Xoshiro256 bg_rng_;
  double clock_s_ = 0;  ///< virtual clock of the offered load
  double probe_t_ = 50e-6;
  std::array<double, 3> bg_t_{100e-6, 100e-6, 100e-6};
  double data_t_ = 200e-6;
  std::uint64_t bg_seq_ = 0;
  std::uint64_t flow_ = 1;
  double flow_left_ = kPaper.mean_flow_packets;
  std::uint64_t data_injected_ = 0;
  std::uint64_t probe_rounds_ = 0;
  std::uint64_t probe_rounds0_ = 0;

  bool keys_ok_ = false;
  experiments::FabricSwitch* s1_ = nullptr;
  hula::HulaProgram* s1_hula_ = nullptr;
  hula::HulaProgram* s5_hula_ = nullptr;
  netsim::Link* s4_s1_ = nullptr;
  std::vector<std::optional<Key64>> alert_keys_;
  std::uint64_t authentic_ = 0;
  std::uint64_t rekeys0_ = 0;
  std::uint64_t rejected0_ = 0;
  std::array<std::uint64_t, 3> egress0_{};
};

// --------------------------------------------------------------------------
// probe_chain: the micro_shards 12-switch HULA chain with BMv2 timing,
// probes only (mean 1 us apart), on the sharded engine with 2 shards and
// 1 worker. Every hop verifies and re-tags a digest over a probe trace
// that grows with the hop count.

class ProbeChain final : public FabricWorkload {
 public:
  static constexpr int kSwitches = 12;
  static constexpr SimTime kSlice = SimTime::from_us(250);
  static constexpr int kWarmupBatches = 8;

  ProbeChain(std::uint64_t seed, ChainVariant variant, Instruments* inst, SetupTiming& timing)
      : FabricWorkload(inst, kSlice), seed_(seed), variant_(variant), rng_(derive(seed, 3)) {
    std::uint64_t t0 = now_ns();
    {
      const auto s = span(spans_.ledger, spans_.build);
      build();
    }
    std::uint64_t t1 = now_ns();
    timing.build_s = static_cast<double>(t1 - t0) * 1e-9;
    if (variant_.p4auth) {
      const auto s = span(spans_.ledger, spans_.keys);
      keys_ok_ = fabric_->init_all_keys().ok();
    } else {
      keys_ok_ = true;
    }
    t0 = now_ns();
    timing.keys_s = static_cast<double>(t0 - t1) * 1e-9;
    if (!keys_ok_) return;
    Checks warm;
    for (int i = 0; i < kWarmupBatches; ++i) run_batch(warm);
    timing.warm_s = static_cast<double>(now_ns() - t0) * 1e-9;
    mark_timed_start();
  }

  bool ok() const { return keys_ok_; }

  BatchResult run_batch(Checks& checks) override {
    const std::uint64_t rejected = rejections();
    BatchResult r = run_slice();
    batch_events_.push_back(last_batch_events_);
    checks.expect(rejections() == rejected, "probe_chain: verify failure on authentic probes");
    checks.expect(r.work == static_cast<double>(last_probes_ * (kSwitches - 1)),
                  "probe_chain: a probe did not cross every hop");
    return r;
  }

  void finish(Checks& checks) override {
    if (variant_.shards == 0) return;
    // The engine's determinism contract: the same traffic on one shard
    // processes exactly the same events, batch for batch.
    constexpr std::size_t kReplay = 8;
    SetupTiming ignored;
    ProbeChain reference(seed_, ChainVariant{variant_.p4auth, 1}, nullptr, ignored);
    checks.expect(reference.ok(), "probe_chain: 1-shard reference set-up failed");
    Checks ref_checks;
    for (std::size_t i = kWarmupBatches; i < kWarmupBatches + kReplay && i < batch_events_.size();
         ++i) {
      reference.run_batch(ref_checks);
      checks.expect(reference.batch_events_[i] == batch_events_[i],
                    "probe_chain: event count differs from the 1-shard engine");
    }
    checks.expect(ref_checks.failed() == 0, "probe_chain: 1-shard reference failed its checks");
  }

  void report_layers(LayerMetrics& out) override {
    report_sim_layers(out, "probe_chain");
    // Switches homed on shards 1.. count into the fabric's own per-shard
    // bundles, which collect_telemetry() merges into ours (once, after the
    // last run_all). The timed-phase baseline is merged the same way, from
    // a replay of set-up and warm-up on the same seed: the traffic and the
    // engine are deterministic, so the replay's counters are ours as they
    // stood at mark_timed_start().
    fabric_->collect_telemetry();
    Instruments replay_inst;
    SetupTiming ignored;
    ProbeChain replay(seed_, variant_, &replay_inst, ignored);
    replay.fabric_->collect_telemetry();
    for (const char* name : kCounters) {
      counters0_[name] = replay_inst.telemetry.metrics.counter_total(name);
    }
    out.push_back({"auth.verify_ok_per_frame", per_frame("auth.verify_ok"), "1/frame"});
    out.push_back(
        {"dataplane.hashed_bytes_per_frame", per_frame("dataplane.hashed_bytes"), "B/frame"});
  }

 private:
  void build() {
    Fabric::Options options;
    options.p4auth = variant_.p4auth;
    options.timing = dataplane::TimingModel::bmv2();
    options.seed = seed_;
    options.protected_magics = {hula::kProbeMagic};
    options.shards = variant_.shards;
    options.shard_workers = 1;
    options.telemetry = inst_ != nullptr ? &inst_->telemetry : nullptr;
    fabric_ = std::make_unique<Fabric>(options);
    for (int i = 1; i <= kSwitches; ++i) {
      const NodeId id{static_cast<std::uint16_t>(i)};
      std::vector<PortId> probe_ports;
      if (i < kSwitches) probe_ports.push_back(PortId{2});
      const bool is_tor = i == 1 || i == kSwitches;
      fabric_->add_switch(id, [this, id, is_tor, probe_ports](dataplane::RegisterFile& regs) {
        hula::HulaProgram::Config config;
        config.self = id;
        config.is_tor = is_tor;
        config.probe_ports = probe_ports;
        return maybe_timed(std::make_unique<hula::HulaProgram>(config, regs), inst_);
      });
    }
    netsim::LinkConfig link;
    link.latency = SimTime::from_us(40);  // the engine's lookahead window
    for (int i = 1; i < kSwitches; ++i) {
      fabric_->connect(NodeId{static_cast<std::uint16_t>(i)}, PortId{2},
                       NodeId{static_cast<std::uint16_t>(i + 1)}, PortId{1}, link);
    }
  }

  std::uint64_t rejections() {
    std::uint64_t n = 0;
    for (int i = 1; i <= kSwitches; ++i) {
      const auto& st = fabric_->at(NodeId{static_cast<std::uint16_t>(i)}).agent->stats();
      n += st.digest_failures + st.feedback_rejected + st.unauth_feedback_dropped +
           st.replay_rejections;
    }
    return n;
  }

  /// Probes at S1's host port, gaps uniform in [0.5, 1.5) us.
  void generate(std::vector<Injection>& out) override {
    last_probes_ = 0;
    for (; next_ns_ < slice_.ns(); next_ns_ += 500 + rng_.next_below(1000)) {
      out.push_back(Injection{NodeId{1}, SimTime::from_ns(next_ns_), hula::encode_probe_gen()});
      ++last_probes_;
    }
    next_ns_ -= slice_.ns();
  }

  std::uint64_t seed_;
  ChainVariant variant_;
  Xoshiro256 rng_;
  std::uint64_t next_ns_ = 0;
  std::uint64_t last_probes_ = 0;
  bool keys_ok_ = false;
  std::vector<std::size_t> batch_events_;
};

// --------------------------------------------------------------------------
// ctrl_rotate: an 8-switch ring of l3fwd switches on the P4Auth channel
// with 8% jitter; a closed loop with one outstanding controller op per
// switch: 45% authenticated register reads, 45% writes, 5% local-key
// updates and 5% port-key updates.

class CtrlRotate final : public Workload {
 public:
  static constexpr int kSwitches = 8;
  static constexpr std::uint64_t kBatchOps = 2000;
  static constexpr int kWarmupBatches = 2;
  enum Kind { kRead, kWrite, kLocal, kPort };
  static constexpr int kKinds = 4;

  CtrlRotate(std::uint64_t seed, Instruments* inst, SetupTiming& timing)
      : inst_(inst), spans_(inst), rng_(derive(seed, 4)) {
    if (inst_ != nullptr) {
      static constexpr const char* kNames[kKinds] = {
          "controller.read_register", "controller.write_register",
          "controller.update_local_key", "controller.update_port_key"};
      for (int k = 0; k < kKinds; ++k) call_spans_[k] = inst_->spans.entry(kNames[k]);
    }
    std::uint64_t t0 = now_ns();
    {
      const auto s = span(spans_.ledger, spans_.build);
      build(seed);
    }
    std::uint64_t t1 = now_ns();
    timing.build_s = static_cast<double>(t1 - t0) * 1e-9;
    {
      const auto s = span(spans_.ledger, spans_.keys);
      keys_ok_ = fabric_->init_all_keys().ok();
    }
    t0 = now_ns();
    timing.keys_s = static_cast<double>(t0 - t1) * 1e-9;
    if (!keys_ok_) return;
    Checks warm;
    for (int i = 0; i < kWarmupBatches; ++i) run_batch(warm);
    timing.warm_s = static_cast<double>(now_ns() - t0) * 1e-9;
    mark_timed_start();
  }

  bool ok() const { return keys_ok_; }

  BatchResult run_batch(Checks& checks) override {
    checks_ = &checks;
    batch_us_.clear();
    batch_us_.reserve(kBatchOps);
    issued_ = 0;
    const std::uint64_t start = now_ns();
    {
      const auto s = span(spans_.ledger, spans_.run_all);
      for (int i = 0; i < kSwitches; ++i) issue(i);
      fabric_->run_all();
    }
    BatchResult r;
    r.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
    r.work = static_cast<double>(batch_us_.size());
    r.op_us = std::move(batch_us_);
    r.attempted = kBatchOps;
    checks.expect(r.op_us.size() == kBatchOps, "ctrl_rotate: ops left incomplete");
    checks_ = nullptr;
    return r;
  }

  void finish(Checks& checks) override {
    // Table III closed form: 2 KMP messages per local-key update (ADHKD)
    // and 3 per port-key update (portKeyUpdate + 2 DP-DP legs).
    const std::uint64_t expected = 2 * (done_[kLocal] - done0_[kLocal]) +
                                   3 * (done_[kPort] - done0_[kPort]);
    checks.expect(kmp_messages() - kmp0_ == expected,
                  "ctrl_rotate: KMP messages per update differ from Table III (" +
                      std::to_string(kmp_messages() - kmp0_) + " vs " +
                      std::to_string(expected) + ")");
    checks.expect(done_[kLocal] > done0_[kLocal] && done_[kPort] > done0_[kPort],
                  "ctrl_rotate: no key update ran");
  }

  void report_layers(LayerMetrics& out) override {
    static constexpr const char* kNames[kKinds] = {
        "ctrl.read_us_p50", "ctrl.write_us_p50", "ctrl.local_update_us_p50",
        "ctrl.port_update_us_p50"};
    for (int k = 0; k < kKinds; ++k) out.push_back({kNames[k], median(kind_us_[k]), "us"});
    std::uint64_t ops = 0;
    for (int k = 0; k < kKinds; ++k) ops += done_[k] - done0_[k];
    const double messages =
        static_cast<double>(channel_messages() - channel0_ + dp_kx_ - dp_kx0_);
    out.push_back(
        {"ctrl.messages_per_op", ops > 0 ? messages / static_cast<double>(ops) : 0, "1/op"});
    const double received = static_cast<double>(to_controller() - to_controller0_);
    const double batched = static_cast<double>(
        fabric_->controller.stats().batch_verified_messages - batched0_);
    out.push_back({"ctrl.batch_frac", received > 0 ? batched / received : 0, "ratio"});
  }

 private:
  void build(std::uint64_t seed) {
    Fabric::Options options;
    options.p4auth = true;
    options.seed = seed;
    options.channel.jitter_fraction = 0.08;
    options.telemetry = inst_ != nullptr ? &inst_->telemetry : nullptr;
    fabric_ = std::make_unique<Fabric>(options);
    for (int i = 1; i <= kSwitches; ++i) {
      apps::l3fwd::L3FwdProgram* l3 = nullptr;
      auto& sw = fabric_->add_switch(id(i), [&](dataplane::RegisterFile& registers) {
        auto program = std::make_unique<apps::l3fwd::L3FwdProgram>(registers);
        l3 = program.get();
        return maybe_timed(std::move(program), inst_);
      });
      (void)l3->expose_to(*sw.agent);
    }
    // Port 2 of switch i faces port 1 of switch i+1; switch i alone
    // updates that link's key, so port-key updates never overlap.
    const netsim::TamperHook count_kx = [this](Bytes& frame) {
      if (!frame.empty() && frame[0] == 2) ++dp_kx_;  // HdrType::KeyExchange
      return netsim::TamperVerdict::Pass;
    };
    for (int i = 1; i <= kSwitches; ++i) {
      const int next = i % kSwitches + 1;
      netsim::Link* link = fabric_->connect(id(i), PortId{2}, id(next), PortId{1});
      link->set_tamper(id(i), count_kx);
      link->set_tamper(id(next), count_kx);
    }
    shadow_.assign(kSwitches, std::vector<std::uint64_t>(kRegCells, 0));
  }

  static NodeId id(int i) { return NodeId{static_cast<std::uint16_t>(i)}; }

  std::uint64_t kmp_messages() const {
    const auto& s = fabric_->controller.stats();
    return s.kmp_messages_sent + s.kmp_messages_received + dp_kx_;
  }
  std::uint64_t channel_messages() {
    std::uint64_t n = 0;
    for (int i = 1; i <= kSwitches; ++i) n += fabric_->at(id(i)).channel->stats().to_switch;
    return n + to_controller();
  }
  std::uint64_t to_controller() {
    std::uint64_t n = 0;
    for (int i = 1; i <= kSwitches; ++i) n += fabric_->at(id(i)).channel->stats().to_controller;
    return n;
  }

  void mark_timed_start() {
    for (int k = 0; k < kKinds; ++k) {
      done0_[k] = done_[k];
      kind_us_[k].clear();
    }
    kmp0_ = kmp_messages();
    channel0_ = channel_messages();
    to_controller0_ = to_controller();
    dp_kx0_ = dp_kx_;
    batched0_ = fabric_->controller.stats().batch_verified_messages;
  }

  /// Issues the next op on switch index `i` (0-based) if the batch still
  /// has budget. Completions re-enter here: one outstanding op per switch.
  void issue(int i) {
    if (issued_ >= kBatchOps) return;
    ++issued_;
    const std::uint64_t draw = rng_.next_below(100);
    const Kind kind = draw < 45 ? kRead : draw < 90 ? kWrite : draw < 95 ? kLocal : kPort;
    const NodeId sw = id(i + 1);
    const std::uint64_t start = now_ns();
    const auto s = span(spans_.ledger, call_spans_[kind]);
    auto& ctrl = fabric_->controller;
    switch (kind) {
      case kRead: {
        const auto cell = static_cast<std::uint32_t>(rng_.next_below(kRegCells));
        ctrl.read_register(sw, apps::l3fwd::kStatsReg, cell,
                           [this, i, cell, start](Result<std::uint64_t> r) {
                             complete(i, kRead, start,
                                      r.ok() && r.value() == shadow_[i][cell],
                                      "authenticated read returned a wrong value");
                           });
        break;
      }
      case kWrite: {
        const auto cell = static_cast<std::uint32_t>(rng_.next_below(kRegCells));
        const std::uint64_t value = rng_.next_u32();  // l3_stats is 32 bits wide
        ctrl.write_register(sw, apps::l3fwd::kStatsReg, cell, value,
                            [this, i, cell, value, start](Result<std::uint64_t> r) {
                              if (r.ok()) shadow_[i][cell] = value;
                              complete(i, kWrite, start, r.ok(), "register write failed");
                            });
        break;
      }
      case kLocal:
        ctrl.update_local_key(sw, [this, i, start](Result<Key64> r) {
          complete(i, kLocal, start, r.ok(), "local-key update failed");
        });
        break;
      case kPort:
        ctrl.update_port_key(sw, PortId{2}, id((i + 1) % kSwitches + 1),
                             [this, i, start](Status st) {
                               complete(i, kPort, start, st.ok(), "port-key update failed");
                             });
        break;
    }
  }

  void complete(int i, Kind kind, std::uint64_t start, bool ok, const char* what) {
    const double us = static_cast<double>(now_ns() - start) * 1e-3;
    batch_us_.push_back(us);
    if (inst_ != nullptr) kind_us_[kind].push_back(us);
    ++done_[kind];
    checks_->expect(ok, std::string("ctrl_rotate: ") + what);
    issue(i);
  }

  static constexpr std::uint32_t kRegCells = 1024;

  Instruments* inst_;
  FabricSpans spans_;
  SpanLedger::Entry* call_spans_[kKinds] = {};
  Xoshiro256 rng_;
  std::unique_ptr<Fabric> fabric_;
  bool keys_ok_ = false;
  Checks* checks_ = nullptr;  ///< the running batch's checks
  std::vector<double> batch_us_;
  std::uint64_t issued_ = 0;
  std::vector<std::vector<std::uint64_t>> shadow_;
  std::uint64_t done_[kKinds] = {};
  std::uint64_t done0_[kKinds] = {};
  std::vector<double> kind_us_[kKinds];
  std::uint64_t dp_kx_ = 0;
  std::uint64_t dp_kx0_ = 0;
  std::uint64_t kmp0_ = 0;
  std::uint64_t channel0_ = 0;
  std::uint64_t to_controller0_ = 0;
  std::uint64_t batched0_ = 0;
};

// --------------------------------------------------------------------------
// fuzz_campaign: scenario generate -> run -> judge over a campaign whose
// seed derives from the workload seed, on the calling thread.

class FuzzCampaign final : public Workload {
 public:
  static constexpr std::uint32_t kBatchScenarios = 200;
  static constexpr std::uint32_t kWarmupScenarios = 50;

  FuzzCampaign(std::uint64_t seed, Instruments* inst, SetupTiming& timing)
      : campaign_seed_(derive(seed, 5)) {
    if (inst != nullptr) {
      ledger_ = &inst->spans;
      generate_ = ledger_->entry("scenario.generate_spec");
      run_ = ledger_->entry("scenario.run_scenario");
      judge_ = ledger_->entry("scenario.judge");
    }
    // Set-up is the warm-up: a leading slice of the same campaign, untimed.
    const std::uint64_t t0 = now_ns();
    Checks warm;
    for (std::uint32_t i = 0; i < kWarmupScenarios; ++i) run_one(warm);
    timing.warm_s = static_cast<double>(now_ns() - t0) * 1e-9;
  }

  BatchResult run_batch(Checks& checks) override {
    BatchResult r;
    r.op_us.reserve(kBatchScenarios);
    const std::uint64_t start = now_ns();
    for (std::uint32_t i = 0; i < kBatchScenarios; ++i) r.op_us.push_back(run_one(checks));
    r.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
    r.work = kBatchScenarios;
    r.attempted = kBatchScenarios;
    return r;
  }

  void finish(Checks& checks) override { (void)checks; }

  void report_layers(LayerMetrics& out) override {
    const auto mean_us = [](const SpanLedger::Entry* e) {
      return e->calls > 0 ? static_cast<double>(e->total_ns) * 1e-3 / static_cast<double>(e->calls)
                          : 0;
    };
    out.push_back({"scenario.generate_us", mean_us(generate_), "us"});
    out.push_back({"scenario.run_us", mean_us(run_), "us"});
    out.push_back({"scenario.judge_us", mean_us(judge_), "us"});
  }

 private:
  /// One scenario; returns its wall time in microseconds.
  double run_one(Checks& checks) {
    const std::uint64_t start = now_ns();
    scenario::ScenarioSpec spec;
    {
      const auto s = span(ledger_, generate_);
      spec = scenario::generate_spec(campaign_seed_, index_++);
    }
    scenario::ScenarioEvidence evidence;
    {
      const auto s = span(ledger_, run_);
      evidence = scenario::run_scenario(spec);
    }
    scenario::Verdict verdict;
    {
      const auto s = span(ledger_, judge_);
      verdict = scenario::judge(evidence);
    }
    const double us = static_cast<double>(now_ns() - start) * 1e-3;
    if (!verdict.pass()) {
      checks.expect(false, "fuzz_campaign: oracle violation (" + verdict.violations.front().rule +
                               ") in scenario " + std::to_string(spec.index));
    }
    return us;
  }

  std::uint64_t campaign_seed_;
  std::uint32_t index_ = 0;
  SpanLedger* ledger_ = nullptr;
  SpanLedger::Entry* generate_ = nullptr;
  SpanLedger::Entry* run_ = nullptr;
  SpanLedger::Entry* judge_ = nullptr;
};

template <typename T>
std::unique_ptr<Workload> keep_if_ok(std::unique_ptr<T> w) {
  if (!w->ok()) return nullptr;
  return w;
}

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        Instruments* inst, SetupTiming& timing) {
  if (name == "hula_mitm") return keep_if_ok(std::make_unique<HulaMitm>(seed, inst, timing));
  if (name == "probe_chain") {
    return keep_if_ok(std::make_unique<ProbeChain>(seed, ChainVariant{}, inst, timing));
  }
  if (name == "ctrl_rotate") return keep_if_ok(std::make_unique<CtrlRotate>(seed, inst, timing));
  if (name == "fuzz_campaign") return std::make_unique<FuzzCampaign>(seed, inst, timing);
  return nullptr;
}

std::unique_ptr<Workload> make_chain(std::uint64_t seed, ChainVariant variant,
                                     SetupTiming& timing) {
  return keep_if_ok(std::make_unique<ProbeChain>(seed, variant, nullptr, timing));
}

}  // namespace perfbench

#include "analysis/registry.hpp"

#include <memory>
#include <utility>

#include "analysis/checker.hpp"
#include "analysis/static_checks.hpp"
#include "apps/blink/blink.hpp"
#include "apps/flowradar/flowradar.hpp"
#include "apps/flowstats/flowstats.hpp"
#include "apps/hula/hula.hpp"
#include "apps/l3fwd/l3fwd.hpp"
#include "apps/netcache/netcache.hpp"
#include "apps/routescout/routescout.hpp"
#include "apps/silkroad/silkroad.hpp"
#include "core/agent.hpp"
#include "core/auth.hpp"
#include "core/protocol.hpp"
#include "core/replay_guard.hpp"
#include "core/wire.hpp"

namespace p4auth::analysis {
namespace {

// Fixed corpus constants: every value is pinned so lint output is
// byte-stable run to run.
constexpr Key64 kSeed = 0x5EED5EED5EED5EEDull;
constexpr crypto::MacKind kMac = crypto::MacKind::HalfSipHash24;
constexpr NodeId kSelf{1};

void write_reg(AuditSession& session, std::string_view name, std::size_t index,
               std::uint64_t value) {
  if (auto* reg = session.registers().by_name(name)) (void)reg->write(index, value);
}

void run_l3fwd(AuditSession& session) {
  auto program = std::make_unique<apps::l3fwd::L3FwdProgram>(session.registers());
  auto* l3 = program.get();
  session.adopt(std::move(program));
  (void)l3->add_route(0x0A000000u, 8, PortId{2});
  session.inject(apps::l3fwd::encode_ipv4({0x0A000001u, 1000}), PortId{1});
  session.inject(apps::l3fwd::encode_ipv4({0x0A0000FFu, 400}), PortId{1});
  session.inject(apps::l3fwd::encode_ipv4({0xC0000001u, 100}), PortId{1});  // no route
  session.inject(Bytes{0x00, 0x01}, PortId{1});                            // not ipv4
}

void run_hula(AuditSession& session) {
  apps::hula::HulaProgram::Config config;
  config.self = kSelf;
  config.is_tor = true;
  config.probe_ports = {PortId{1}, PortId{2}};
  auto program = std::make_unique<apps::hula::HulaProgram>(config, session.registers());
  session.adopt(std::move(program));
  session.inject(apps::hula::encode_probe_gen(), kCpuPort);
  apps::hula::Probe probe;
  probe.origin_tor = NodeId{2};
  probe.max_util = 10;
  probe.trace.push_back(apps::hula::HopRecord{NodeId{3}, PortId{1}, 5});
  session.inject(apps::hula::encode_probe(probe), PortId{1});
  session.inject(apps::hula::encode_data({NodeId{2}, 0x1234, 500}), PortId{3});
  session.inject(apps::hula::encode_data({NodeId{2}, 0x1234, 700}), PortId{3});  // flowlet hit
  session.inject(apps::hula::encode_data({NodeId{1}, 0x99, 100}), PortId{3});    // self-sink
}

void run_flowstats(AuditSession& session) {
  apps::flowstats::FlowStatsProgram::Config config;
  auto program =
      std::make_unique<apps::flowstats::FlowStatsProgram>(config, session.registers());
  session.adopt(std::move(program));
  write_reg(session, "fs_blocked", 3, 1);
  session.inject(apps::flowstats::encode_packet({1, 100}), PortId{2});
  session.inject(apps::flowstats::encode_packet({1, 120}), PortId{2});  // accrues IPD
  session.inject(apps::flowstats::encode_packet({2, 80}), PortId{2});
  session.inject(apps::flowstats::encode_packet({3, 60}), PortId{2});  // blocked flow
}

void run_flowradar(AuditSession& session) {
  apps::flowradar::FlowRadarProgram::Config config;
  auto program =
      std::make_unique<apps::flowradar::FlowRadarProgram>(config, session.registers());
  session.adopt(std::move(program));
  session.inject(apps::flowradar::encode_packet({7}), PortId{2});
  session.inject(apps::flowradar::encode_packet({8}), PortId{2});
  session.inject(apps::flowradar::encode_packet({7}), PortId{2});  // repeat flow
}

void run_netcache(AuditSession& session) {
  apps::netcache::NetCacheProgram::Config config;
  auto program = std::make_unique<apps::netcache::NetCacheProgram>(config, session.registers());
  session.adopt(std::move(program));
  write_reg(session, "nc_cache_key", 0, 42);
  write_reg(session, "nc_cache_val", 0, 7);
  session.inject(apps::netcache::encode_query({42}), PortId{1});  // cache hit
  session.inject(apps::netcache::encode_query({99}), PortId{1});  // miss -> server
  session.inject(apps::netcache::encode_response({99, 11, false}), PortId{2});
}

void run_silkroad(AuditSession& session) {
  apps::silkroad::SilkRoadProgram::Config config;
  auto program = std::make_unique<apps::silkroad::SilkRoadProgram>(config, session.registers());
  session.adopt(std::move(program));
  write_reg(session, "slk_transit", 1, 1);
  for (std::size_t i = 0; i < 2 * config.dips_per_pool; ++i) {
    write_reg(session, "slk_dips_new", i, 100 + i);
    write_reg(session, "slk_dips_old", i, 200 + i);
  }
  session.inject(apps::silkroad::encode_conn({0, 0xAB}), PortId{1});  // new pool
  session.inject(apps::silkroad::encode_conn({1, 0xCD}), PortId{1});  // vip in transit
  session.inject(apps::silkroad::encode_conn({0, 0xAB}), PortId{1});  // pinned connection
}

void run_blink(AuditSession& session) {
  apps::blink::BlinkProgram::Config config;
  auto program = std::make_unique<apps::blink::BlinkProgram>(config, session.registers());
  session.adopt(std::move(program));
  write_reg(session, "bk_nexthops", 0, PortId{1}.value + 1u);
  write_reg(session, "bk_nexthops", 1, PortId{2}.value + 1u);
  session.inject(apps::blink::encode_packet({0, 0x11, false}), PortId{3});
  for (std::uint64_t i = 0; i < config.retx_threshold; ++i) {  // drive one failover
    session.inject(apps::blink::encode_packet({0, 0x11, true}), PortId{3});
  }
  session.inject(apps::blink::encode_packet({0, 0x12, false}), PortId{3});
}

void run_routescout(AuditSession& session) {
  apps::routescout::RouteScoutProgram::Config config;
  config.path_ports = {PortId{1}, PortId{2}};
  auto program =
      std::make_unique<apps::routescout::RouteScoutProgram>(config, session.registers());
  session.adopt(std::move(program));
  session.inject(apps::routescout::encode_sample({0, 150}), PortId{3});
  session.inject(apps::routescout::encode_sample({1, 90}), PortId{3});
  session.inject(apps::routescout::encode_data({0x51, 800}), PortId{3});
  session.inject(apps::routescout::encode_data({0x52, 600}), PortId{3});
}

/// The paper's evaluation composition: P4Auth wrapping baseline_l3,
/// driven through the full key-management handshake plus authenticated
/// C-DP register ops — the corpus the secret-flow check matters most
/// for, since real key material sits in the tagged key registers.
void run_l3fwd_p4auth(AuditSession& session) {
  using namespace p4auth::core;

  core::P4AuthAgent::Config config;
  config.self = kSelf;
  config.k_seed = kSeed;
  config.mac = kMac;
  config.num_ports = 8;
  auto inner = std::make_unique<apps::l3fwd::L3FwdProgram>(session.registers());
  auto* l3 = inner.get();
  auto agent =
      std::make_unique<core::P4AuthAgent>(config, session.registers(), std::move(inner));
  auto* agent_ptr = agent.get();
  session.adopt(std::move(agent));
  (void)l3->add_route(0x0A000000u, 8, PortId{2});
  (void)l3->expose_to(*agent_ptr);
  agent_ptr->set_neighbor(PortId{1}, NodeId{2});

  Xoshiro256 ctl_rng(7);
  KeySchedule schedule;
  SeqCounter ctl_seq;

  const auto send_cpu = [&](HdrType hdr, std::uint8_t msg_type, Payload payload, Key64 key,
                            KeyVersion version = {}) {
    Message m;
    m.header.hdr_type = hdr;
    m.header.msg_type = msg_type;
    m.header.seq_num = ctl_seq.next();
    m.header.key_version = version;
    m.header.src = kControllerId;
    m.header.dst = kSelf;
    m.payload = std::move(payload);
    Bytes frame = encode(m);
    seal_frame(kMac, key, frame);
    return session.inject(std::move(frame), kCpuPort);
  };

  // EAK: bootstrap K_auth from the pre-shared seed.
  EakInitiator eak(schedule, kSeed);
  auto out = send_cpu(HdrType::KeyExchange, static_cast<std::uint8_t>(KeyExchMsg::EakExch),
                      eak.start(ctl_rng), kSeed);
  if (out.to_cpu.size() != 1) return;
  const auto resp1 = decode(out.to_cpu.at(0));
  if (!resp1.ok()) return;
  const Key64 k_auth = eak.finish(std::get<EakPayload>(resp1.value().payload));

  // ADHKD: establish K_local.
  AdhkdInitiator adhkd(schedule);
  out = send_cpu(HdrType::KeyExchange, static_cast<std::uint8_t>(KeyExchMsg::InitKeyExch),
                 adhkd.start(ctl_rng), k_auth);
  if (out.to_cpu.size() != 1) return;
  const auto resp2 = decode(out.to_cpu.at(0));
  if (!resp2.ok()) return;
  Key64 k_local = adhkd.finish(std::get<AdhkdPayload>(resp2.value().payload));

  // Re-key once so the double-buffered key store exercises both banks.
  AdhkdInitiator rekey(schedule);
  out = send_cpu(HdrType::KeyExchange, static_cast<std::uint8_t>(KeyExchMsg::InitKeyExch),
                 rekey.start(ctl_rng), k_auth);
  if (out.to_cpu.size() != 1) return;
  const auto resp3 = decode(out.to_cpu.at(0));
  if (!resp3.ok()) return;
  k_local = rekey.finish(std::get<AdhkdPayload>(resp3.value().payload));
  const KeyVersion version = agent_ptr->keys().current_version(kCpuPort);

  // Authenticated C-DP register ops against the exposed l3_stats array.
  send_cpu(HdrType::RegisterOp, static_cast<std::uint8_t>(RegisterMsg::WriteReq),
           RegisterOpPayload{apps::l3fwd::kStatsReg, 1, 99}, k_local, version);
  send_cpu(HdrType::RegisterOp, static_cast<std::uint8_t>(RegisterMsg::ReadReq),
           RegisterOpPayload{apps::l3fwd::kStatsReg, 1, 0}, k_local, version);
  // Bad key: rejected with a tagged nAck + alert (alert path coverage).
  send_cpu(HdrType::RegisterOp, static_cast<std::uint8_t>(RegisterMsg::ReadReq),
           RegisterOpPayload{apps::l3fwd::kStatsReg, 2, 0}, /*key=*/0xBAD, version);

  // Plain data traffic through the wrapped inner program.
  session.inject(apps::l3fwd::encode_ipv4({0x0A000001u, 1000}), PortId{1});
  session.inject(apps::l3fwd::encode_ipv4({0x0A000002u, 500}), PortId{1});
}

}  // namespace

const std::vector<LintEntry>& builtin_programs() {
  static const std::vector<LintEntry> entries = {
      {"l3fwd", run_l3fwd},
      {"hula", run_hula},
      {"flowstats", run_flowstats},
      {"flowradar", run_flowradar},
      {"netcache", run_netcache},
      {"silkroad", run_silkroad},
      {"blink", run_blink},
      {"routescout", run_routescout},
      {"l3fwd+p4auth", run_l3fwd_p4auth},
  };
  return entries;
}

const LintEntry* find_program(std::string_view name) {
  for (const auto& entry : builtin_programs()) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

ProgramReport lint_program(const LintEntry& entry, const LintOptions& options) {
  AuditSession session;
  entry.run(session);
  const auto decl = session.program().resources();
  ProgramReport report;
  report.program = decl.name;
  report.usage = dataplane::compute_usage(decl, options.budget);
  report.findings = run_static_checks(decl, options.budget);
  auto conformance = run_conformance_audit(session);
  report.findings.insert(report.findings.end(), std::make_move_iterator(conformance.begin()),
                         std::make_move_iterator(conformance.end()));
  if (options.model) {
    const auto model = session.program().pipeline_model();
    ModelCheck check = check_model(model, {options.budget, options.limits});
    report.model.ran = true;
    report.model.truncated = check.exploration.truncated;
    report.model.nodes = model.nodes.size();
    report.model.paths = check.exploration.paths.size();
    report.model.projections = check.projections;
    report.model.visited_nodes = check.exploration.visited_nodes;
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(check.findings.begin()),
                           std::make_move_iterator(check.findings.end()));
    // Path conformance: every corpus execution must map onto exactly one
    // model projection. Skipped on truncation (partial path set).
    const auto& traces = session.observed().traces;
    report.model.traces = traces.size();
    ConformanceResult paths = check_path_conformance(check.exploration, traces, decl.name);
    report.model.matched = paths.matched;
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(paths.findings.begin()),
                           std::make_move_iterator(paths.findings.end()));
  }
  sort_findings(report.findings);
  return report;
}

ProgramReport lint_program(const LintEntry& entry, const dataplane::ResourceBudget& budget) {
  return lint_program(entry, LintOptions{budget});
}

std::vector<ProgramReport> lint_all(const LintOptions& options) {
  std::vector<ProgramReport> reports;
  reports.reserve(builtin_programs().size());
  for (const auto& entry : builtin_programs()) {
    reports.push_back(lint_program(entry, options));
  }
  return reports;
}

std::vector<ProgramReport> lint_all(const dataplane::ResourceBudget& budget) {
  return lint_all(LintOptions{budget});
}

}  // namespace p4auth::analysis

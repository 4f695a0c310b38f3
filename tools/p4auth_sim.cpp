// p4auth_sim — command-line front-end for the experiment suite.
//
// Usage:
//   p4auth_sim hula       [--scenario S] [--seed N | --seeds A..B] [--jobs N]
//                         [--duration-ms N] [--metrics-out FILE] [--trace FILE]
//                         [--audit FILE] [--trace-dir DIR] [--shards N]
//                         [--shard-workers N]
//   p4auth_sim routescout [--scenario S] [--seed N | --seeds A..B] [--jobs N]
//                         [--metrics-out FILE] [--trace FILE] [--audit FILE]
//                         [--trace-dir DIR]
//   p4auth_sim regops     [--variant p4runtime|dpregrw|p4auth] [--requests N]
//   p4auth_sim kmp        [--samples N]
//   p4auth_sim multihop   [--min-hops N] [--max-hops N] [--shards N]
//                         [--shard-workers N]
//   p4auth_sim scaling    [--switches M] [--links N]
//   p4auth_sim table1     [--seed N]
//   p4auth_sim resources
//
// Flags accept both "--flag value" and "--flag=value"; unknown flags and
// numeric values that do not parse completely are rejected with a usage
// message and exit code 2 (tools/cli_flags.hpp). Scenarios:
// baseline | attack | p4auth | p4auth-clean.
//
// --shards N (default 1) runs each simulation on N shards of the
// conservative-lookahead engine (--shard-workers caps the thread budget).
// Every output — stdout, metrics, trace, audit — is byte-identical for
// any --shards value; the flag only changes wall-clock time.
//
// --seeds A..B runs a campaign: one isolated simulation per seed, fanned
// out over --jobs worker threads (default 1), results merged in seed
// order — the merged output is byte-identical for any --jobs value.
//
// --metrics-out writes a deterministic JSON snapshot of every counter,
// gauge and histogram the run recorded (merged across seeds in campaign
// mode); --trace writes the per-packet event ring as JSONL and --audit
// the security audit trail (both single-seed only). In campaign mode
// --trace-dir DIR writes per-seed trace_seed<N>.jsonl and
// audit_seed<N>.jsonl files instead.
// See docs/OBSERVABILITY.md for the schemas.
#include <cstdio>
#include <string>

#include "cli_flags.hpp"

#include "experiments/attack_rate_experiment.hpp"
#include "experiments/hula_experiment.hpp"
#include "experiments/kmp_experiment.hpp"
#include "experiments/multihop_experiment.hpp"
#include "experiments/regops_experiment.hpp"
#include "experiments/resources_experiment.hpp"
#include "experiments/routescout_experiment.hpp"
#include "experiments/table1_experiment.hpp"
#include "runner/runner.hpp"
#include "telemetry/telemetry.hpp"

using namespace p4auth;
using namespace p4auth::experiments;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: p4auth_sim <hula|routescout|regops|kmp|multihop|scaling|table1|"
               "resources|attack-rate> [options]\n"
               "  campaign options (hula, routescout): --seeds A..B --jobs N\n"
               "  engine options (hula, multihop): --shards N (default 1) --shard-workers N\n");
}

/// Writes the requested telemetry artifacts; returns 0 or an exit code.
int write_telemetry(telemetry::Telemetry& telemetry, const char* metrics_path,
                    const char* trace_path, const char* audit_path = nullptr) {
  if (metrics_path != nullptr) {
    if (auto s = telemetry.write_metrics_file(metrics_path); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.error().message.c_str());
      return 3;
    }
  }
  if (trace_path != nullptr) {
    if (auto s = telemetry.write_trace_file(trace_path); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.error().message.c_str());
      return 3;
    }
  }
  if (audit_path != nullptr) {
    if (auto s = telemetry.write_audit_file(audit_path); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.error().message.c_str());
      return 3;
    }
  }
  return 0;
}

/// Writes one campaign job's trace + audit dumps into `dir` as
/// trace_seed<N>.jsonl / audit_seed<N>.jsonl. Failures are reported but
/// do not abort the campaign (the metrics merge is unaffected).
void write_job_traces(const telemetry::Telemetry& telemetry, const std::string& dir,
                      std::uint64_t seed) {
  const std::string base = dir + "/";
  if (auto s = telemetry.write_trace_file(base + "trace_seed" + std::to_string(seed) + ".jsonl");
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.error().message.c_str());
  }
  if (auto s = telemetry.write_audit_file(base + "audit_seed" + std::to_string(seed) + ".jsonl");
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.error().message.c_str());
  }
}

Result<Scenario> parse_scenario(const std::string& name) {
  if (name == "baseline") return Scenario::Baseline;
  if (name == "attack") return Scenario::Attack;
  if (name == "p4auth") return Scenario::P4AuthAttack;
  if (name == "p4auth-clean") return Scenario::P4AuthClean;
  return make_error("unknown scenario: " + name);
}

/// Shared campaign parameters for the multi-seed commands. `active` is
/// false when --seeds was absent (single-run mode).
struct CampaignArgs {
  bool active = false;
  runner::SeedRange seeds;
  int jobs = 1;
  /// Non-empty: write per-seed trace/audit JSONL files into this dir.
  std::string trace_dir;
};

/// Parses --seeds/--jobs/--trace-dir and enforces the campaign-mode flag
/// rules: --seeds excludes --seed, --trace and --audit (use --trace-dir
/// for per-seed dumps), --jobs and --trace-dir require --seeds. Returns
/// an error string on misuse.
Result<CampaignArgs> parse_campaign_args(const cli::Flags& flags) {
  CampaignArgs campaign;
  const char* seeds = flags.value("--seeds");
  const char* jobs = flags.value("--jobs");
  const char* trace_dir = flags.value("--trace-dir");
  if (seeds == nullptr) {
    if (jobs != nullptr) return make_error("--jobs requires --seeds A..B");
    if (trace_dir != nullptr) return make_error("--trace-dir requires --seeds A..B");
    return campaign;
  }
  if (flags.value("--seed") != nullptr) {
    return make_error("--seed and --seeds are mutually exclusive");
  }
  if (flags.value("--trace") != nullptr) {
    return make_error("--trace requires a single seed (use --trace-dir for campaigns)");
  }
  if (flags.value("--audit") != nullptr) {
    return make_error("--audit requires a single seed (use --trace-dir for campaigns)");
  }
  if (trace_dir != nullptr) campaign.trace_dir = trace_dir;
  const auto range = runner::parse_seed_range(seeds);
  if (!range.ok()) return range.error();
  campaign.active = true;
  campaign.seeds = range.value();
  campaign.jobs = static_cast<int>(flags.u64("--jobs", 1));
  return campaign;
}

/// Prints the merged per-observable statistics of a campaign, one line
/// per observable in name order.
void print_campaign_stats(const runner::CampaignResult& result) {
  for (const auto& [name, stat] : result.stats) {
    std::printf("  %-20s mean=%.3f stddev=%.3f min=%.3f max=%.3f\n", name.c_str(),
                stat.mean(), stat.stddev(), stat.min(), stat.max());
  }
}

int run_hula(const cli::Flags& flags) {
  if (!flags.check({"--scenario", "--seed", "--seeds", "--jobs", "--duration-ms",
                                "--metrics-out", "--trace", "--audit", "--trace-dir",
                                "--shards", "--shard-workers"})) {
    return 2;
  }
  const auto scenario = parse_scenario(flags.value("--scenario", "baseline"));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.error().message.c_str());
    return 2;
  }
  const auto campaign = parse_campaign_args(flags);
  if (!campaign.ok()) {
    std::fprintf(stderr, "%s\n", campaign.error().message.c_str());
    return 2;
  }
  HulaOptions options;
  options.seed = flags.u64("--seed", options.seed);
  options.duration = SimTime::from_ms(flags.u64("--duration-ms", 1500));
  options.shards = static_cast<int>(flags.u64("--shards", options.shards));
  options.shard_workers = static_cast<int>(flags.u64("--shard-workers", 0));
  const char* metrics_path = flags.value("--metrics-out");
  const char* trace_path = flags.value("--trace");
  const char* audit_path = flags.value("--audit");

  if (campaign.value().active) {
    const auto& args = campaign.value();
    auto result = runner::run_campaign(
        args.seeds.count(), args.jobs, [&](std::size_t i) {
          HulaOptions job_options = options;
          job_options.seed = args.seeds.seed(i);
          runner::JobResult job;
          job_options.telemetry = &job.telemetry;
          const auto r = run_hula_experiment(scenario.value(), job_options);
          job.observe("via_s2_pct", r.path_share_pct[0]);
          job.observe("via_s3_pct", r.path_share_pct[1]);
          job.observe("via_s4_pct", r.path_share_pct[2]);
          job.observe("delivered", static_cast<double>(r.delivered));
          job.observe("probes_rejected", static_cast<double>(r.probes_rejected));
          job.observe("alerts", static_cast<double>(r.alerts));
          if (!args.trace_dir.empty()) {
            write_job_traces(job.telemetry, args.trace_dir, job_options.seed);
          }
          return job;
        });
    std::printf("scenario=%s seeds=%s jobs=%d runs=%zu\n", scenario_name(scenario.value()),
                args.seeds.to_string().c_str(), args.jobs, result.jobs_run);
    print_campaign_stats(result);
    return write_telemetry(result.telemetry, metrics_path, nullptr);
  }

  telemetry::Telemetry telemetry;
  if (metrics_path != nullptr || trace_path != nullptr || audit_path != nullptr) {
    options.telemetry = &telemetry;
  }
  const auto result = run_hula_experiment(scenario.value(), options);
  std::printf("scenario=%s via-S2=%.1f%% via-S3=%.1f%% via-S4=%.1f%% "
              "probes-rejected=%llu alerts=%llu delivered=%llu\n",
              scenario_name(scenario.value()), result.path_share_pct[0],
              result.path_share_pct[1], result.path_share_pct[2],
              static_cast<unsigned long long>(result.probes_rejected),
              static_cast<unsigned long long>(result.alerts),
              static_cast<unsigned long long>(result.delivered));
  return write_telemetry(telemetry, metrics_path, trace_path, audit_path);
}

int run_routescout(const cli::Flags& flags) {
  if (!flags.check({"--scenario", "--seed", "--seeds", "--jobs", "--metrics-out",
                                "--trace", "--audit", "--trace-dir"})) {
    return 2;
  }
  const auto scenario = parse_scenario(flags.value("--scenario", "baseline"));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.error().message.c_str());
    return 2;
  }
  const auto campaign = parse_campaign_args(flags);
  if (!campaign.ok()) {
    std::fprintf(stderr, "%s\n", campaign.error().message.c_str());
    return 2;
  }
  RouteScoutOptions options;
  options.seed = flags.u64("--seed", options.seed);
  const char* metrics_path = flags.value("--metrics-out");
  const char* trace_path = flags.value("--trace");
  const char* audit_path = flags.value("--audit");

  if (campaign.value().active) {
    const auto& args = campaign.value();
    auto result = runner::run_campaign(
        args.seeds.count(), args.jobs, [&](std::size_t i) {
          RouteScoutOptions job_options = options;
          job_options.seed = args.seeds.seed(i);
          runner::JobResult job;
          job_options.telemetry = &job.telemetry;
          const auto r = run_routescout_experiment(scenario.value(), job_options);
          job.observe("path1_pct", r.path_share_pct[0]);
          job.observe("path2_pct", r.path_share_pct[1]);
          job.observe("epochs_completed", static_cast<double>(r.epochs_completed));
          job.observe("epochs_aborted", static_cast<double>(r.epochs_aborted));
          job.observe("alerts", static_cast<double>(r.alerts));
          if (!args.trace_dir.empty()) {
            write_job_traces(job.telemetry, args.trace_dir, job_options.seed);
          }
          return job;
        });
    std::printf("scenario=%s seeds=%s jobs=%d runs=%zu\n", scenario_name(scenario.value()),
                args.seeds.to_string().c_str(), args.jobs, result.jobs_run);
    print_campaign_stats(result);
    return write_telemetry(result.telemetry, metrics_path, nullptr);
  }

  telemetry::Telemetry telemetry;
  if (metrics_path != nullptr || trace_path != nullptr || audit_path != nullptr) {
    options.telemetry = &telemetry;
  }
  const auto result = run_routescout_experiment(scenario.value(), options);
  std::printf("scenario=%s path1=%.1f%% path2=%.1f%% split=%llu/%llu "
              "epochs-aborted=%llu alerts=%llu\n",
              scenario_name(scenario.value()), result.path_share_pct[0],
              result.path_share_pct[1],
              static_cast<unsigned long long>(result.final_split[0]),
              static_cast<unsigned long long>(result.final_split[1]),
              static_cast<unsigned long long>(result.epochs_aborted),
              static_cast<unsigned long long>(result.alerts));
  return write_telemetry(telemetry, metrics_path, trace_path, audit_path);
}

int run_regops(const cli::Flags& flags) {
  if (!flags.check({"--variant", "--requests"})) return 2;
  const std::string name = flags.value("--variant", "p4auth");
  RegOpsVariant variant = RegOpsVariant::P4Auth;
  if (name == "p4runtime") variant = RegOpsVariant::P4Runtime;
  else if (name == "dpregrw") variant = RegOpsVariant::DpRegRw;
  else if (name != "p4auth") {
    std::fprintf(stderr, "unknown variant: %s\n", name.c_str());
    return 2;
  }
  RegOpsOptions options;
  options.requests_per_kind = static_cast<int>(flags.u64("--requests", 400));
  const auto result = run_regops_experiment(variant, options);
  std::printf("variant=%s read-rct=%.1fus write-rct=%.1fus read=%.1frps write=%.1frps\n",
              variant_name(variant), result.read_rct_us_mean, result.write_rct_us_mean,
              result.read_throughput_rps, result.write_throughput_rps);
  return 0;
}

int run_kmp(const cli::Flags& flags) {
  if (!flags.check({"--samples"})) return 2;
  KmpRttOptions options;
  options.samples = static_cast<int>(flags.u64("--samples", 20));
  const auto result = run_kmp_rtt_experiment(options);
  std::printf("local-init=%.3fms port-init=%.3fms local-update=%.3fms port-update=%.3fms\n",
              result.local_init_ms, result.port_init_ms, result.local_update_ms,
              result.port_update_ms);
  return 0;
}

int run_multihop(const cli::Flags& flags) {
  if (!flags.check({"--min-hops", "--max-hops", "--shards", "--shard-workers"})) {
    return 2;
  }
  MultihopOptions options;
  options.min_hops = static_cast<int>(flags.u64("--min-hops", 2));
  options.max_hops = static_cast<int>(flags.u64("--max-hops", 10));
  options.shards = static_cast<int>(flags.u64("--shards", options.shards));
  options.shard_workers = static_cast<int>(flags.u64("--shard-workers", 0));
  for (const auto& point : run_multihop_experiment(options)) {
    std::printf("hops=%d base=%.1fus p4auth=%.1fus overhead=%.2f%%\n", point.hops,
                point.base_us, point.p4auth_us, point.overhead_pct);
  }
  return 0;
}

int run_scaling(const cli::Flags& flags) {
  if (!flags.check({"--switches", "--links"})) return 2;
  const int switches = static_cast<int>(flags.u64("--switches", 25));
  const int links = static_cast<int>(flags.u64("--links", 50));
  const auto measured = run_kmp_scaling_experiment(switches, links);
  const auto closed = kmp_closed_form(static_cast<std::uint64_t>(switches),
                                      static_cast<std::uint64_t>(links));
  std::printf("m=%d n=%d init=%llu msgs/%llu B (closed %llu/%llu) "
              "update=%llu msgs/%llu B (closed %llu/%llu)\n",
              switches, links, static_cast<unsigned long long>(measured.init_messages),
              static_cast<unsigned long long>(measured.init_bytes),
              static_cast<unsigned long long>(closed.init_messages),
              static_cast<unsigned long long>(closed.init_bytes),
              static_cast<unsigned long long>(measured.update_messages),
              static_cast<unsigned long long>(measured.update_bytes),
              static_cast<unsigned long long>(closed.update_messages),
              static_cast<unsigned long long>(closed.update_bytes));
  return 0;
}

int run_table1(const cli::Flags& flags) {
  if (!flags.check({"--seed"})) return 2;
  for (const auto& row : run_table1_experiment(flags.u64("--seed", 1))) {
    std::printf("%-24s baseline=%.1f attacked=%.1f p4auth=%.1f detected=%s/%s (%s)\n",
                row.system.c_str(), row.baseline, row.attacked, row.with_p4auth,
                row.detected_without ? "yes" : "no", row.detected_with ? "yes" : "no",
                row.metric.c_str());
  }
  return 0;
}

int run_attack_rate(const cli::Flags& flags) {
  if (!flags.check({"--writes", "--rate", "--seed"})) return 2;
  AttackRateOptions options;
  options.writes = static_cast<int>(flags.u64("--writes", 150));
  options.seed = flags.u64("--seed", options.seed);
  if (flags.value("--rate") != nullptr) options.rates = {flags.number("--rate", 0)};
  for (const auto& point : run_attack_rate_experiment(options)) {
    std::printf("rate=%.2f goodput=%.1frps completion=%.1fus retries=%.2f alerts=%llu "
                "failed=%llu\n",
                point.tamper_probability, point.goodput_rps, point.mean_completion_us,
                point.retries_per_write, static_cast<unsigned long long>(point.alerts),
                static_cast<unsigned long long>(point.writes_failed));
  }
  return 0;
}

int run_resources(const cli::Flags& flags) {
  if (!flags.check({})) return 2;
  for (const auto& row : run_resources_experiment()) {
    std::printf("%-14s tcam=%.1f%% sram=%.1f%% hash=%.1f%% phv=%.1f%%\n",
                row.program.c_str(), row.usage.tcam_pct, row.usage.sram_pct,
                row.usage.hash_pct, row.usage.phv_pct);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  const cli::Flags flags(argc, argv, 2, usage);
  if (command == "hula") return run_hula(flags);
  if (command == "routescout") return run_routescout(flags);
  if (command == "regops") return run_regops(flags);
  if (command == "kmp") return run_kmp(flags);
  if (command == "multihop") return run_multihop(flags);
  if (command == "scaling") return run_scaling(flags);
  if (command == "table1") return run_table1(flags);
  if (command == "resources") return run_resources(flags);
  if (command == "attack-rate") return run_attack_rate(flags);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  usage();
  return 2;
}

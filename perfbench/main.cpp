// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--source-digest <hex>]
//
// --trace 0 (end-to-end run): sets the named workload up five times
// (set-up time is the median), then runs equal batches for <s> seconds
// with no instrumentation attached, checks every batch's outputs and
// prints the end-to-end metrics.
//
// --trace 1 (traced run): runs every benchmark workload (and the named
// one, if it is not among them) once untraced and once with spans, the
// timing decorator and a telemetry bundle attached, plus the differential
// runs, and prints the per-layer metrics.
//
// Both modes print a human-readable report, a provenance line, and as the
// last line of standard output one JSON object:
//   {"correct":...,"attempted":N,"failed":N,"metrics":{"name":{"value":v,"unit":"u"},...}}
// Exit status: 0 when every output check passed, 1 when one failed, 2 on
// usage or set-up errors (no JSON line is printed then).
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "crypto/halfsiphash_lanes.hpp"

namespace perfbench {

/// Runs the traced mode (traced.cpp).
int run_traced(const std::string& workload, std::uint64_t seed, double seconds, Checks& checks,
               std::uint64_t& attempted, std::uint64_t& failed, LayerMetrics& out);

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <hula_mitm|probe_chain|ctrl_rotate|"
               "fuzz_campaign> --seed <n> --seconds <s> --trace <0|1> [--commit <id>] "
               "[--source-digest <hex>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(args.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = args.workload == "fuzz_campaign";
  for (const auto& name : benchmark_workloads()) known = known || name == args.workload;
  if (!known) usage("unknown or missing --workload");
  if (!have_seed) usage("missing or bad --seed");
  if (args.seconds <= 0) usage("missing --seconds");
  if (args.trace < 0) usage("missing --trace");
  return args;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                  &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model = brand;
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss would also count the parent's pages from before exec.)
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(status);
  return kib / 1024.0;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_provenance(const Args& args, int shards, int workers) {
  const auto backend = p4auth::crypto::active_sip_lane_backend();
  std::printf(
      "provenance: {\"commit\":\"%s\",\"source_digest\":\"%s\",\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"cpu\":\"%s\",\"sip_lane_backend\":\"%s\","
      "\"hardware_concurrency\":%u,\"shards\":%d,\"workers\":%d,\"seed\":%llu,"
      "\"workload\":\"%s\",\"trace\":%d,\"seconds\":%s}\n",
      json_escape(args.commit).c_str(), json_escape(args.source_digest).c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(cpu_model()).c_str(), p4auth::crypto::sip_lane_backend_name(backend),
      std::thread::hardware_concurrency(), shards, workers,
      static_cast<unsigned long long>(args.seed), args.workload.c_str(), args.trace,
      number(args.seconds).c_str());
}

void print_result(const Checks& checks, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& failure : checks.failures()) std::printf("CHECK FAILED: %s\n", failure.c_str());
  std::string line = "{\"correct\":";
  line += checks.failed() == 0 ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(attempted);
  line += ",\"failed\":" + std::to_string(failed);
  line += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ",";
    line += "\"" + metrics[i].name + "\":{\"value\":" + number(metrics[i].value) +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// How each workload's work unit and op read in the human report.
struct Naming {
  const char* rate;
  const char* rate_unit;
  const char* op;
};
Naming naming(const std::string& workload) {
  if (workload == "ctrl_rotate") return {"ctrl_ops_per_s", "ops/s", "ctrl_op"};
  if (workload == "fuzz_campaign") return {"scenarios_per_s", "scenarios/s", "scenario"};
  return {"frames_per_s", "frames/s", "batch"};
}

int run_end_to_end(const Args& args) {
  // The workload is set up kSetups times and set-up time is the median.
  // Each set-up then runs an equal share of the timed batches, pooled.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  Checks checks;
  PassStats pass;
  for (int k = 0; k < kSetups; ++k) {
    SetupTiming timing;
    auto workload = make_workload(args.workload, args.seed, nullptr, timing);
    if (workload == nullptr) {
      std::fprintf(stderr, "perfbench: %s set-up failed\n", args.workload.c_str());
      return 2;
    }
    setup_s.push_back(timing.total());
    run_batches(*workload, args.seconds / kSetups, checks, pass, k == kSetups - 1);
  }

  const double p50 = pass.op_quantile(0.50);
  const double p95 = pass.op_quantile(0.95);
  const std::size_t windows = pass.window_p50.size();
  const Naming names = naming(args.workload);
  const double rss = peak_rss_mb();

  std::printf("perfbench %s  seed %llu  %zu batches in %.2f s measured\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), pass.rates.size(), pass.measured_s);
  std::printf("  %-18s %14.6f s        median of %d set-ups\n", "setup_s", median(setup_s),
              kSetups);
  std::printf("  %-18s %14.1f %-8s sustained in 90%% of %zu batches (median %.1f)\n",
              names.rate, pass.rate(), names.rate_unit, pass.rates.size(), median(pass.rates));
  std::printf("  %-18s %14.2f us       met in 90%% of %zu windows of %zu ops (%zu ops)\n",
              (std::string(names.op) + "_p50_us").c_str(), p50, windows, pass.window_ops,
              pass.ops);
  std::printf("  %-18s %14.2f us       met in 90%% of %zu windows of %zu ops\n",
              (std::string(names.op) + "_p95_us").c_str(), p95, windows, pass.window_ops);
  std::printf("  %-18s %14.2f MB\n", "peak_rss_mb", rss);
  std::printf("  %-18s %14.6f          %llu failed of %llu attempted\n", "fail_frac",
              static_cast<double>(pass.failed) / static_cast<double>(pass.attempted),
              static_cast<unsigned long long>(pass.failed),
              static_cast<unsigned long long>(pass.attempted));
  const bool sharded = args.workload == "probe_chain";
  print_provenance(args, sharded ? 2 : 0, 1);
  print_result(checks, pass.attempted, pass.failed,
               {{"setup_s", median(setup_s), "s"},
                {"rate_per_s", pass.rate(), "1/s"},
                {"op_p50_us", p50, "us"},
                {"op_p95_us", p95, "us"},
                {"peak_rss_mb", rss, "MB"}});
  return checks.failed() == 0 ? 0 : 1;
}

int run_traced_mode(const Args& args) {
  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  LayerMetrics layers;
  const int status =
      run_traced(args.workload, args.seed, args.seconds, checks, attempted, failed, layers);
  if (status != 0) return status;
  print_provenance(args, 2, 1);
  print_result(checks, attempted, failed, layers);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  return args.trace == 1 ? perfbench::run_traced_mode(args) : perfbench::run_end_to_end(args);
}

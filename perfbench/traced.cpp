// Traced mode: the per-layer numbers.
//
// Every workload runs on two set-ups: one bare (the untraced rate) and one
// with the span ledger, the timing decorator and a telemetry bundle
// attached. The traced set-up yields the per-layer metrics; the rate ratio
// of the two is the tracing overhead. Layers without a public seam are
// measured by differential runs of the probe chain: P4Auth on vs off, and
// the 2-shard engine vs the default engine. Whatever is compared runs in
// alternating slices, so a change in host speed hits every side alike.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

void print_spans(const std::string& workload, const SpanLedger& spans) {
  std::printf("  spans (%s):\n", workload.c_str());
  std::printf("    %-30s %10s %12s %12s\n", "span", "calls", "total ms", "self ms");
  for (const auto& [name, e] : spans.entries()) {
    if (e.calls == 0) continue;
    std::printf("    %-30s %10llu %12.2f %12.2f\n", name.c_str(),
                static_cast<unsigned long long>(e.calls), static_cast<double>(e.total_ns) * 1e-6,
                static_cast<double>(e.self_ns()) * 1e-6);
  }
}

/// Wall nanoseconds per frame at the median batch rate. (Compared passes
/// run in alternating slices, so drift hits every side alike.)
double ns_per_frame(const PassStats& pass) { return 1e9 / median(pass.rates); }

constexpr int kRounds = 4;

/// Runs each workload for `slice_s` in turn, kRounds times over, into its
/// own PassStats; each workload's end-of-run checks follow its last slice.
void alternate(const std::vector<std::pair<Workload*, PassStats*>>& passes, double slice_s,
               Checks& checks) {
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& [workload, stats] : passes) {
      run_batches(*workload, slice_s, checks, *stats, round == kRounds - 1);
    }
  }
}

}  // namespace

int run_traced(const std::string& workload, std::uint64_t seed, double seconds, Checks& checks,
               std::uint64_t& attempted, std::uint64_t& failed, LayerMetrics& out) {
  std::vector<std::string> names = benchmark_workloads();
  if (std::find(names.begin(), names.end(), workload) == names.end()) names.push_back(workload);
  // The two set-ups of each workload take 80% of the budget; the
  // differentials take the rest.
  const double slice_s = seconds * 0.8 / (2.0 * kRounds * static_cast<double>(names.size()));
  const auto count = [&](const PassStats& pass) {
    attempted += pass.attempted;
    failed += pass.failed;
  };

  for (const std::string& name : names) {
    SetupTiming plain_timing;
    auto plain = make_workload(name, seed, nullptr, plain_timing);
    Instruments inst;
    SetupTiming timing;
    auto traced_workload = make_workload(name, seed, &inst, timing);
    if (plain == nullptr || traced_workload == nullptr) {
      std::fprintf(stderr, "perfbench: %s set-up failed\n", name.c_str());
      return 2;
    }
    const std::uint64_t covered0 = inst.spans.top_level_ns();
    PassStats untraced, traced;
    alternate({{plain.get(), &untraced}, {traced_workload.get(), &traced}}, slice_s, checks);
    count(untraced);
    count(traced);
    const double covered = static_cast<double>(inst.spans.top_level_ns() - covered0) * 1e-9;

    if (name != "fuzz_campaign") {  // scenarios build their fabrics internally
      out.push_back({"fabric.build_s." + name, timing.build_s, "s"});
      out.push_back({"fabric.keys_s." + name, timing.keys_s, "s"});
    }
    traced_workload->report_layers(out);
    out.push_back({"unaccounted_frac." + name,
                   traced.measured_s > 0 ? 1.0 - covered / traced.measured_s : 0, "ratio"});
    out.push_back({"telemetry.overhead_frac." + name,
                   median(untraced.rates) / median(traced.rates) - 1.0, "ratio"});
    std::printf("traced %s: %zu batches, median rate %.1f/s untraced, %.1f/s traced\n",
                name.c_str(), traced.rates.size(), median(untraced.rates), median(traced.rates));
    print_spans(name, inst.spans);
  }

  // Differential runs over identical chain traffic.
  SetupTiming ignored;
  auto on = make_chain(seed, ChainVariant{true, 0}, ignored);
  auto off = make_chain(seed, ChainVariant{false, 0}, ignored);
  auto sharded = make_chain(seed, ChainVariant{true, 2}, ignored);
  if (on == nullptr || off == nullptr || sharded == nullptr) {
    std::fprintf(stderr, "perfbench: differential chain set-up failed\n");
    return 2;
  }
  PassStats on_all, off_all, sharded_all;
  alternate({{on.get(), &on_all}, {off.get(), &off_all}, {sharded.get(), &sharded_all}},
            seconds * 0.2 / (3.0 * kRounds), checks);
  count(on_all);
  count(off_all);
  count(sharded_all);
  out.push_back({"core.p4auth_ns_per_frame", ns_per_frame(on_all) - ns_per_frame(off_all), "ns"});
  out.push_back(
      {"sharded.overhead_frac", ns_per_frame(sharded_all) / ns_per_frame(on_all) - 1.0, "ratio"});

  std::printf("per-layer metrics:\n");
  for (const Metric& m : out) {
    std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  return 0;
}

}  // namespace perfbench

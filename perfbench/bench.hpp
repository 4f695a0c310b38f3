// Shared pieces of the repository benchmark: wall clock, order
// statistics, the span ledger the traced run records into, the timing
// decorator wrapped around inner data-plane programs, and the workload
// interface every workload implements.
//
// Nothing here reaches inside the program: spans sit around calls into
// public functions (Fabric, Controller, Network, scenario::*), and the
// decorator is an ordinary DataPlaneProgram built by the benchmark's own
// program factories.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dataplane/program.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Accumulates wall time per span name. Spans nest through a stack, so
/// every entry knows how much of its time its child spans covered and
/// self time is total minus child time. Single-threaded by design: every
/// workload runs on the calling thread (the sharded workload uses one
/// worker, which is the calling thread).
class SpanLedger {
 public:
  struct Entry {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint64_t self_ns() const noexcept { return total_ns - child_ns; }
  };

  class Span {
   public:
    Span() = default;
    Span(SpanLedger* ledger, Entry* entry) : ledger_(ledger) {
      if (ledger_ != nullptr) ledger_->open(entry);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (ledger_ != nullptr) ledger_->close();
    }

   private:
    SpanLedger* ledger_ = nullptr;
  };

  /// Stable entry for `name` (look it up once, outside hot loops).
  Entry* entry(std::string_view name);

  const std::map<std::string, Entry, std::less<>>& entries() const noexcept { return entries_; }
  /// Wall time covered by spans opened with no span around them.
  std::uint64_t top_level_ns() const noexcept { return top_level_ns_; }

 private:
  struct Open {
    Entry* entry;
    std::uint64_t start;
    std::uint64_t child_ns;
  };
  void open(Entry* entry) { stack_.push_back(Open{entry, now_ns(), 0}); }
  void close();

  std::map<std::string, Entry, std::less<>> entries_;
  std::vector<Open> stack_;
  std::uint64_t top_level_ns_ = 0;
};

/// Opens a span on `ledger` when tracing (non-null), else a no-op.
inline SpanLedger::Span span(SpanLedger* ledger, SpanLedger::Entry* entry) {
  return ledger == nullptr ? SpanLedger::Span{} : SpanLedger::Span{ledger, entry};
}

/// Timing decorator: forwards every call to the wrapped program and
/// charges process() and plan_burst() to the `apps.*` spans. Only the
/// traced run builds it; the end-to-end run hands the agent the bare
/// program.
class TimedProgram final : public p4auth::dataplane::DataPlaneProgram {
 public:
  TimedProgram(std::unique_ptr<p4auth::dataplane::DataPlaneProgram> inner, SpanLedger& ledger)
      : inner_(std::move(inner)), ledger_(ledger), process_(ledger.entry("apps.process")),
        plan_(ledger.entry("apps.plan_burst")) {}

  p4auth::dataplane::PipelineOutput process(p4auth::dataplane::Packet& packet,
                                            p4auth::dataplane::PipelineContext& ctx) override {
    const SpanLedger::Span s{&ledger_, process_};
    return inner_->process(packet, ctx);
  }
  void plan_burst(std::span<const p4auth::dataplane::BurstFrameView> frames) override {
    const SpanLedger::Span s{&ledger_, plan_};
    inner_->plan_burst(frames);
  }
  void end_burst() override { inner_->end_burst(); }
  p4auth::dataplane::ProgramDeclaration resources() const override {
    return inner_->resources();
  }
  p4auth::dataplane::PipelineModel pipeline_model() const override {
    return inner_->pipeline_model();
  }

 private:
  std::unique_ptr<p4auth::dataplane::DataPlaneProgram> inner_;
  SpanLedger& ledger_;
  SpanLedger::Entry* process_;
  SpanLedger::Entry* plan_;
};

/// What the traced run attaches to a workload: the span ledger (spans and
/// the timing decorator) and a telemetry bundle wired into the fabric.
struct Instruments {
  SpanLedger spans;
  p4auth::telemetry::Telemetry telemetry;
};

/// Output checks: each failed expectation is kept with its message.
class Checks {
 public:
  void expect(bool ok, const std::string& message) {
    if (ok) return;
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(message);
  }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& failures() const noexcept { return failures_; }

 private:
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// One timed batch: an equal share of work, run to quiescence.
struct BatchResult {
  double wall_s = 0;
  /// Work units completed: link-delivered frames, controller ops or
  /// judged scenarios.
  double work = 0;
  /// Wall latency of each op the batch completed, in microseconds.
  std::vector<double> op_us;
  std::uint64_t attempted = 0;  ///< ops whose outcome was checked
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
/// Per-layer metrics, in report order.
using LayerMetrics = std::vector<Metric>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one batch. Outcome checks go into `checks`.
  virtual BatchResult run_batch(Checks& checks) = 0;
  /// End-of-run output checks (after the last batch).
  virtual void finish(Checks& checks) = 0;
  /// Traced runs: per-layer values over the batches run so far.
  virtual void report_layers(LayerMetrics& out) { (void)out; }
  /// Ops per latency window: enough for a p95, few enough that a window
  /// stays inside one speed phase of the host.
  virtual std::size_t window_ops() const { return 200; }
};

/// What a timed pass over one workload measured.
///
/// The host's speed moves between a contended state and faster ones, in
/// phases of under a second to minutes, and how much of a run each covers
/// varies from run to run. A median taken across states moves with that
/// share, so the end-to-end figures are anchored in the contended state
/// instead: the rate is the one sustained in 90% of batches, and each
/// latency percentile is taken per window of consecutive ops (windows far
/// shorter than a phase) and reported as the value met in 90% of windows.
/// (Anchoring in the fastest state instead, as a best-of-N micro benchmark
/// does, spread several times wider between runs in sizing; README.md.) A
/// batch or op counts as failed once however many of its checks fail.
struct PassStats {
  std::size_t window_ops = 200;    ///< ops per latency window
  std::vector<double> rates;       ///< work units per wall second, per batch
  std::vector<double> window_p50;  ///< per-window op latency p50, us
  std::vector<double> window_p95;
  std::vector<double> open_window;  ///< ops of the window being filled
  std::size_t ops = 0;
  double measured_s = 0;  ///< wall time inside timed batches
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add_op(double us);
  /// Work units per second sustained in 90% of batches.
  double rate() const { return quantile(rates, 0.10); }
  /// Op latency percentile q (0.5 or 0.95) met in 90% of windows; the
  /// open window alone when none has closed yet.
  double op_quantile(double q) const;
};

/// Runs batches until `seconds` of wall time have passed, accumulating
/// into `stats`, then (when `finish`) the workload's end-of-run checks,
/// counted as one more op.
void run_batches(Workload& workload, double seconds, Checks& checks, PassStats& stats,
                 bool finish = true);

/// Wall time of the set-up phases up to the first timed batch.
struct SetupTiming {
  double build_s = 0;  ///< fabric construction, switches and links
  double keys_s = 0;   ///< full key bring-up
  double warm_s = 0;   ///< warm-up batches
  double total() const noexcept { return build_s + keys_s + warm_s; }
};

/// The workloads BENCHMARK.json lists, in report order. fuzz_campaign is
/// built by make_workload too but left out while the scenario oracle
/// reports violations on some campaign seeds (README.md).
const std::vector<std::string>& benchmark_workloads();

/// Builds a workload (a benchmark workload or "fuzz_campaign"), brings up
/// every key and warms it up. `inst` is null for the end-to-end run.
/// Returns null on set-up failure or an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        Instruments* inst, SetupTiming& timing);

/// Probe-chain variants for the traced run's differential measurements.
struct ChainVariant {
  bool p4auth = true;
  int shards = 2;  ///< 0 = the default single-simulator engine
};
std::unique_ptr<Workload> make_chain(std::uint64_t seed, ChainVariant variant,
                                     SetupTiming& timing);

}  // namespace perfbench

// The telemetry bundle every instrumented component shares: one metric
// registry, one packet event tracer, one causal span tracker, and one
// security audit trail.
//
// Components hold a `Telemetry*` that may be null (telemetry off: the
// instrumentation reduces to a pointer test). The owner — typically the
// experiment Fabric or a CLI harness — wires the same bundle into the
// network, every switch, and the controller, stamps it with the final
// sim-time, and serialises it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"

namespace p4auth::telemetry {

struct Telemetry {
  MetricRegistry metrics;
  PacketTracer trace;
  SpanTracker spans;
  AuditTrail audit;
  /// Sim-time of the snapshot; set by the harness after the run so the
  /// serialised output is stamped in sim-time, never wall-clock.
  SimTime stamped{};

  Telemetry() = default;
  explicit Telemetry(std::size_t trace_capacity) : trace(trace_capacity) {}

  void stamp(SimTime now) noexcept { stamped = now; }

  /// The instrumented-component entry point: stamps the tracker's current
  /// span onto the trace record and forwards security-relevant kinds to
  /// the audit trail. Call sites that bypass this (raw trace.record)
  /// produce untraced, unaudited records.
  void record(SimTime at, NodeId node, PortId port, TraceEventKind kind, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    const SpanContext& span = spans.current();
    const std::uint64_t ord = spans.firing_order();
    trace.record(at, node, port, kind, a, b, span, ord);
    if (AuditTrail::is_audited(kind)) audit.append(at, node, port, kind, a, b, span, ord);
  }

  /// Binds the firing-order cursor of the owning shard's simulator
  /// (Simulator::firing_order_ptr(); Simulator::set_telemetry does this).
  /// record() stamps the firing event's order onto every trace/audit
  /// record as its merge-ordering key, and the span tracker derives
  /// partition-invariant ids from it.
  void set_order_cursor(const std::uint64_t* cursor) noexcept { spans.set_order_cursor(cursor); }

  /// Folds another bundle into this one: metric series merge element-wise
  /// (counters/gauges add, histograms add bucket-wise), the stamp becomes
  /// the max of the two, and trace event *totals* accumulate. Trace
  /// records are not merged — per-job rings have unrelated timelines, so
  /// a merged bundle reports how many events its jobs recorded but keeps
  /// no event window of its own.
  void merge(const Telemetry& other);

  /// Full metrics snapshot:
  ///   {"schema":"p4auth.metrics.v1","sim_time_ns":N,
  ///    "counters":{...},"gauges":{...},"histograms":{...}}
  /// The snapshot also injects flight-recorder accounting as `trace.*`
  /// and `audit.*` counters, so ring overflow is visible in the file.
  std::string metrics_json() const;

  /// JSONL trace dump (see PacketTracer::to_jsonl).
  std::string trace_jsonl() const;

  /// JSONL audit-trail dump (see AuditTrail::to_jsonl).
  std::string audit_jsonl() const;

  // The writers create missing parent directories and fail with an
  // errno-carrying message rather than silently writing nothing.
  Status write_metrics_file(const std::string& path) const;
  Status write_trace_file(const std::string& path) const;
  Status write_audit_file(const std::string& path) const;
};

/// Free-function spelling of Telemetry::merge, for reduction loops:
/// folds `src` into `dst`. Merging job snapshots into a fresh bundle in
/// job-index order produces byte-identical metrics JSON regardless of
/// how many workers executed the jobs (see docs/OBSERVABILITY.md).
void merge_snapshots(Telemetry& dst, const Telemetry& src);

/// Sharded-run merge: folds the other shards' bundles into `dst` (shard
/// 0's bundle) rebuilding the *single timeline* a one-shard run would
/// have produced. Metrics merge element-wise; trace and audit records
/// from all shards are interleaved by (sim-time, firing-event order,
/// per-tracer emission index) and re-rung through the dst capacities.
///
/// Why this is byte-identical for any shard count: every record's
/// (at, ord) names the firing event that emitted it, events fire on
/// exactly one shard and record only into that shard's bundle, so equal
/// (at, ord) keys always come from one tracer and the emission index
/// orders them exactly as a single-threaded run would have. Ring
/// truncation commutes with the merge because the globally-last C
/// records are contained in the union of each shard's last C records.
void merge_shard_telemetry(Telemetry& dst, const std::vector<const Telemetry*>& others);

}  // namespace p4auth::telemetry

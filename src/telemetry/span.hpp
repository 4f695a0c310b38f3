// Causal spans: deterministic trace/span identifiers that follow one
// packet or one KMP operation across link -> switch -> pipeline ->
// controller hops.
//
// Each shard's simulator is single-threaded, so "the span being worked on
// right now" is a well-defined notion: SpanTracker keeps that current
// context, RAII scopes restore the previous one, and event closures carry
// a SpanContext across scheduling boundaries (capture at schedule time,
// resume at fire time). Ids are derived from simulation state only —
// never wall-clock, never addresses — so same-seed runs produce
// byte-identical traces for any shard count.
//
// SpanContext is deliberately 16 bytes: the hot-path event closures that
// carry one must stay within InplaceHandler's 64-byte inline buffer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace p4auth::telemetry {

struct TraceRecord;

/// The causal coordinates stamped onto every trace/audit record:
/// which trace (end-to-end causal chain), which span (hop / processing
/// segment), and which span caused it. trace_id == 0 means "untraced".
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_id = 0;

  bool active() const noexcept { return trace_id != 0; }
  friend bool operator==(const SpanContext&, const SpanContext&) = default;
};
static_assert(sizeof(SpanContext) == 16, "SpanContext must stay closure-capture friendly");

/// Trace-id derivation domains: ids from different origins never collide
/// even when their detail words do.
inline constexpr std::uint64_t kTraceDomainInject = 1;  ///< host/test packet injection
inline constexpr std::uint64_t kTraceDomainKmp = 2;     ///< controller-driven KMP operation
inline constexpr std::uint64_t kTraceDomainRegOp = 3;   ///< authenticated register access
inline constexpr std::uint64_t kTraceDomainAttack = 4;  ///< adversarial frame injection

/// Deterministic 64-bit id from (domain, detail, sequence) via a
/// splitmix64-style mix. Never returns 0 (0 is the "untraced" sentinel).
std::uint64_t derive_trace_id(std::uint64_t domain, std::uint64_t detail,
                              std::uint64_t sequence) noexcept;

class SpanTracker {
 public:
  /// Restores the previously current context when destroyed. The
  /// default-constructed scope is a no-op — instrumentation sites use it
  /// as the "telemetry off" branch.
  class Scope {
   public:
    Scope() noexcept = default;
    Scope(SpanTracker* tracker, SpanContext previous, std::uint64_t previous_child_seq = 0) noexcept
        : tracker_(tracker), previous_(previous), previous_child_seq_(previous_child_seq) {}
    Scope(Scope&& other) noexcept
        : tracker_(other.tracker_),
          previous_(other.previous_),
          previous_child_seq_(other.previous_child_seq_) {
      other.tracker_ = nullptr;
    }
    Scope& operator=(Scope&& other) noexcept {
      if (this != &other) {
        release();
        tracker_ = other.tracker_;
        previous_ = other.previous_;
        previous_child_seq_ = other.previous_child_seq_;
        other.tracker_ = nullptr;
      }
      return *this;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { release(); }

   private:
    void release() noexcept {
      if (tracker_ != nullptr) {
        tracker_->current_ = previous_;
        tracker_->child_seq_ = previous_child_seq_;
      }
      tracker_ = nullptr;
    }
    SpanTracker* tracker_ = nullptr;
    SpanContext previous_{};
    std::uint64_t previous_child_seq_ = 0;
  };

  /// The context stamped onto records emitted right now.
  const SpanContext& current() const noexcept { return current_; }

  /// Starts a root span of a fresh trace and makes it current. The trace
  /// id is derived from (domain, detail, internal trace counter).
  Scope start_trace(std::uint64_t domain, std::uint64_t detail);

  /// Starts a child span of the current one and makes it current. With no
  /// active trace this is a no-op scope (records stay untraced).
  Scope start_child();

  /// Child-of-current context for an event closure to carry across a
  /// scheduling boundary; does NOT become current here — the closure
  /// resumes it at fire time. Inactive context when no trace is active.
  SpanContext child_for_schedule();

  /// Root-of-new-trace context for a closure to carry (packet injection:
  /// the delivery event is the trace's first span). Not made current.
  SpanContext root_for_schedule(std::uint64_t domain, std::uint64_t detail);

  /// Makes a carried context current again (fire side of a closure).
  Scope resume(const SpanContext& ctx) noexcept;

  /// Root-of-new-trace when nothing is active, child otherwise: the shape
  /// controller operations want, so an alert-triggered rekey stays inside
  /// the alert's trace while a cold-start rekey opens its own.
  Scope start_operation(std::uint64_t domain, std::uint64_t detail);

  std::uint64_t traces_started() const noexcept;

  /// Span and trace ids are pure functions of simulation state, never of
  /// tracker-global counters. Trace ids run one counter per (domain,
  /// detail) origin — every origin deterministically lives on one
  /// tracker, so its sequence is partition-invariant — and span ids mix
  /// the firing event's order (read through `cursor`, which stays owned
  /// by the shard's simulator: Simulator::firing_order_ptr()) with the
  /// parent span and a per-activation child counter. Result: the ids a
  /// packet's hops receive do not depend on which other events happened
  /// to share this tracker, which keeps traces byte-identical across
  /// shard counts. Simulator::set_telemetry binds the cursor; an unbound
  /// tracker reads order 0.
  void set_order_cursor(const std::uint64_t* cursor) noexcept { order_cursor_ = cursor; }

  /// Order of the event firing right now (0 when unbound or quiescent).
  std::uint64_t firing_order() const noexcept { return *order_cursor_; }

 private:
  static constexpr std::uint64_t kNoOrder = 0;

  std::uint64_t next_trace_id(std::uint64_t domain, std::uint64_t detail);
  std::uint32_t next_span_id(std::uint64_t trace, std::uint32_t parent) noexcept;

  SpanContext current_{};
  const std::uint64_t* order_cursor_ = &kNoOrder;
  std::uint64_t child_seq_ = 0;  ///< spans handed out under the current activation
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> trace_counters_;
};

/// Chrome trace-event JSON ({"traceEvents":[...]}) loadable in Perfetto
/// and chrome://tracing: one instant-style slice per record (pid = node,
/// tid = port, ts in microseconds) plus flow events per trace id so the
/// UI draws causal arrows across hops.
std::string trace_event_json(const std::vector<TraceRecord>& records);

}  // namespace p4auth::telemetry

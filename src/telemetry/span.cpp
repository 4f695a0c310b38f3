#include "telemetry/span.hpp"

#include <map>

#include "telemetry/json.hpp"
#include "telemetry/trace.hpp"

namespace p4auth::telemetry {

std::uint64_t derive_trace_id(std::uint64_t domain, std::uint64_t detail,
                              std::uint64_t sequence) noexcept {
  // splitmix64 finalizer over the three words, folded in sequence. Pure
  // function of simulation state, so same-seed runs derive the same ids.
  std::uint64_t z = domain * 0x9E3779B97F4A7C15ull;
  z ^= detail + 0x9E3779B97F4A7C15ull + (z << 6) + (z >> 2);
  z ^= sequence + 0x9E3779B97F4A7C15ull + (z << 6) + (z >> 2);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;  // 0 is the "untraced" sentinel
}

std::uint64_t SpanTracker::next_trace_id(std::uint64_t domain, std::uint64_t detail) {
  return derive_trace_id(domain, detail, ++trace_counters_[{domain, detail}]);
}

std::uint32_t SpanTracker::next_span_id(std::uint64_t trace, std::uint32_t parent) noexcept {
  const std::uint64_t mixed = derive_trace_id(trace ^ *order_cursor_, parent, ++child_seq_);
  const auto id = static_cast<std::uint32_t>(mixed);
  return id == 0 ? 1u : id;
}

SpanTracker::Scope SpanTracker::start_trace(std::uint64_t domain, std::uint64_t detail) {
  Scope scope(this, current_, child_seq_);
  const std::uint64_t trace = next_trace_id(domain, detail);
  const std::uint32_t span = next_span_id(trace, 0);
  child_seq_ = 0;
  current_ = SpanContext{trace, span, 0};
  return scope;
}

SpanTracker::Scope SpanTracker::start_child() {
  if (!current_.active()) return Scope{};
  Scope scope(this, current_, child_seq_);
  const std::uint32_t span = next_span_id(current_.trace_id, current_.span_id);
  child_seq_ = 0;
  current_ = SpanContext{current_.trace_id, span, current_.span_id};
  return scope;
}

SpanContext SpanTracker::child_for_schedule() {
  if (!current_.active()) return SpanContext{};
  return SpanContext{current_.trace_id, next_span_id(current_.trace_id, current_.span_id),
                     current_.span_id};
}

SpanContext SpanTracker::root_for_schedule(std::uint64_t domain, std::uint64_t detail) {
  const std::uint64_t trace = next_trace_id(domain, detail);
  return SpanContext{trace, next_span_id(trace, 0), 0};
}

SpanTracker::Scope SpanTracker::resume(const SpanContext& ctx) noexcept {
  Scope scope(this, current_, child_seq_);
  current_ = ctx;
  child_seq_ = 0;
  return scope;
}

std::uint64_t SpanTracker::traces_started() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [origin, count] : trace_counters_) {
    (void)origin;
    n += count;
  }
  return n;
}

SpanTracker::Scope SpanTracker::start_operation(std::uint64_t domain, std::uint64_t detail) {
  return current_.active() ? start_child() : start_trace(domain, detail);
}

namespace {

std::string hex_id(std::uint64_t id) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const auto nibble = static_cast<std::size_t>((id >> shift) & 0xF);
    if (!started && nibble == 0 && shift != 0) continue;
    started = true;
    out.push_back(kDigits[nibble]);
  }
  return out;
}

}  // namespace

std::string trace_event_json(const std::vector<TraceRecord>& records) {
  // Flow events need to know whether a record starts, continues, or ends
  // its trace; count occurrences per trace id first.
  std::map<std::uint64_t, std::uint64_t> per_trace_total;
  std::map<std::uint64_t, std::uint64_t> per_trace_seen;
  std::map<std::uint64_t, bool> nodes;  // sorted node ids for metadata
  for (const TraceRecord& rec : records) {
    if (rec.span.trace_id != 0) ++per_trace_total[rec.span.trace_id];
    nodes[rec.node.value] = true;
  }

  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ns");
  w.key("traceEvents").begin_array();

  for (const auto& [node, unused] : nodes) {
    (void)unused;
    w.begin_object();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", node);
    w.key("args").begin_object();
    w.kv("name", node == 0 ? std::string("controller") : "switch " + std::to_string(node));
    w.end_object();
    w.end_object();
  }

  for (const TraceRecord& rec : records) {
    const double ts_us = static_cast<double>(rec.at.ns()) / 1000.0;
    w.begin_object();
    w.kv("name", trace_event_name(rec.kind));
    w.kv("cat", "p4auth");
    w.kv("ph", "X");
    w.kv("ts", ts_us);
    w.kv("dur", 1.0);
    w.kv("pid", static_cast<std::uint64_t>(rec.node.value));
    w.kv("tid", static_cast<std::uint64_t>(rec.port.value));
    w.key("args").begin_object();
    w.kv("a", rec.a);
    w.kv("b", rec.b);
    if (rec.span.trace_id != 0) {
      w.kv("trace", hex_id(rec.span.trace_id));
      w.kv("span", static_cast<std::uint64_t>(rec.span.span_id));
      w.kv("parent", static_cast<std::uint64_t>(rec.span.parent_id));
    }
    w.end_object();
    w.end_object();

    if (rec.span.trace_id == 0) continue;
    const std::uint64_t seen = ++per_trace_seen[rec.span.trace_id];
    const std::uint64_t total = per_trace_total[rec.span.trace_id];
    if (total < 2) continue;  // an arrow needs two ends
    w.begin_object();
    w.kv("name", "causal");
    w.kv("cat", "p4auth.flow");
    w.kv("ph", seen == 1 ? "s" : (seen == total ? "f" : "t"));
    if (seen == total) w.kv("bp", "e");
    w.kv("id", hex_id(rec.span.trace_id));
    w.kv("ts", ts_us);
    w.kv("pid", static_cast<std::uint64_t>(rec.node.value));
    w.kv("tid", static_cast<std::uint64_t>(rec.port.value));
    w.end_object();
  }

  w.end_array();
  w.end_object();
  std::string out = w.take();
  out.push_back('\n');
  return out;
}

}  // namespace p4auth::telemetry

// p4auth_trace — offline companion for the causal-trace flight recorder.
//
// Usage:
//   p4auth_trace convert   IN.jsonl [--out FILE]
//   p4auth_trace filter    IN.jsonl [--node N] [--trace-id T] [--kind NAME]
//                          [--out FILE]
//   p4auth_trace summarize IN.jsonl
//   p4auth_trace diff      A.jsonl B.jsonl
//
// `convert` re-emits a span/trace JSONL dump (p4auth_sim --trace) as
// Chrome trace-event JSON, loadable in Perfetto / chrome://tracing, with
// flow arrows connecting the spans of each causal trace. `filter` echoes
// the matching input lines verbatim (byte-preserving, so filtered files
// stay diffable). `summarize` prints per-kind counts and per-trace hop
// latency percentiles. `diff` compares two dumps line-by-line and exits
// 1 when they differ — `diff A A` is the determinism smoke check.
//
// --trace-id accepts decimal or 0x-prefixed hex (the form printed by
// `summarize` and embedded in the trace-event JSON args).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "common/stats.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"

using namespace p4auth;
using namespace p4auth::telemetry;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: p4auth_trace <convert|filter|summarize|diff> IN.jsonl [B.jsonl]\n"
               "  convert   IN.jsonl [--out FILE]               JSONL -> Chrome trace-event\n"
               "  filter    IN.jsonl [--node N] [--trace-id T] [--kind NAME] [--out FILE]\n"
               "  summarize IN.jsonl                            per-kind / per-trace stats\n"
               "  diff      A.jsonl B.jsonl                     exit 1 when dumps differ\n");
}

/// One parsed line of a trace/audit JSONL dump plus its original text
/// (filter echoes the text verbatim to stay byte-preserving).
struct ParsedLine {
  TraceRecord record;
  std::string text;
};

/// Extracts the integer value of `"key":<digits>` from a JSONL line.
/// Returns `fallback` when the key is absent (older dumps without span
/// coordinates stay loadable).
std::uint64_t json_u64(const std::string& line, const char* key, std::uint64_t fallback) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return fallback;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

/// Extracts the string value of `"key":"..."` from a JSONL line.
std::string json_str(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return {};
  return line.substr(begin, end - begin);
}

/// Loads a JSONL dump. Lines that do not look like trace records (no
/// "ev" key) are rejected so a metrics file passed by mistake fails
/// loudly instead of summarizing garbage.
bool load_jsonl(const char* path, std::vector<ParsedLine>& out) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "p4auth_trace: cannot open %s\n", path);
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string ev = json_str(line, "ev");
    TraceEventKind kind{};
    if (ev.empty() || !trace_event_kind_from_name(ev, kind)) {
      std::fprintf(stderr, "p4auth_trace: %s:%zu: not a trace record (ev=%s)\n", path, line_no,
                   ev.empty() ? "<missing>" : ev.c_str());
      return false;
    }
    ParsedLine parsed;
    parsed.record.at = SimTime::from_ns(json_u64(line, "t", 0));
    parsed.record.node = NodeId{static_cast<std::uint16_t>(json_u64(line, "node", 0))};
    parsed.record.port = PortId{static_cast<std::uint16_t>(json_u64(line, "port", 0))};
    parsed.record.kind = kind;
    parsed.record.a = json_u64(line, "a", 0);
    parsed.record.b = json_u64(line, "b", 0);
    parsed.record.span.trace_id = json_u64(line, "trace", 0);
    parsed.record.span.span_id = static_cast<std::uint32_t>(json_u64(line, "span", 0));
    parsed.record.span.parent_id = static_cast<std::uint32_t>(json_u64(line, "parent", 0));
    parsed.text = line;
    out.push_back(std::move(parsed));
  }
  return true;
}

/// Writes `content` to `path` (creating parent directories) or, when
/// `path` is null, to stdout.
int write_output(const char* path, const std::string& content) {
  if (path == nullptr) {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return 0;
  }
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  std::error_code ec;
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    std::fprintf(stderr, "p4auth_trace: cannot write %s\n", path);
    return 3;
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  return out.good() ? 0 : 3;
}

// --- commands ------------------------------------------------------------

int run_convert(int argc, char** argv) {
  const cli::Flags flags(argc, argv, 3, usage);
  if (argc < 3 || !flags.check({"--out"})) return 2;
  std::vector<ParsedLine> lines;
  if (!load_jsonl(argv[2], lines)) return 3;
  std::vector<TraceRecord> records;
  records.reserve(lines.size());
  for (const auto& line : lines) records.push_back(line.record);
  return write_output(flags.value("--out"), trace_event_json(records));
}

int run_filter(int argc, char** argv) {
  const cli::Flags flags(argc, argv, 3, usage);
  if (argc < 3 || !flags.check({"--node", "--trace-id", "--kind", "--out"})) {
    return 2;
  }
  const char* node_arg = flags.value("--node");
  const char* trace_arg = flags.value("--trace-id");
  const char* kind_arg = flags.value("--kind");
  TraceEventKind kind{};
  if (kind_arg != nullptr && !trace_event_kind_from_name(kind_arg, kind)) {
    std::fprintf(stderr, "p4auth_trace: unknown event kind: %s\n", kind_arg);
    return 2;
  }
  const std::uint64_t node = flags.u64("--node", 0);
  // Base 0: accepts both decimal and the 0x-prefixed hex form that
  // `summarize` prints and the trace-event JSON embeds.
  const std::uint64_t trace_id = flags.u64("--trace-id", 0, 0);

  std::vector<ParsedLine> lines;
  if (!load_jsonl(argv[2], lines)) return 3;
  std::string kept;
  for (const auto& line : lines) {
    if (node_arg != nullptr && line.record.node.value != node) continue;
    if (trace_arg != nullptr && line.record.span.trace_id != trace_id) continue;
    if (kind_arg != nullptr && line.record.kind != kind) continue;
    kept += line.text;
    kept += '\n';
  }
  return write_output(flags.value("--out"), kept);
}

int run_summarize(int argc, char** argv) {
  if (argc < 3 || !cli::Flags(argc, argv, 3, usage).check({})) return 2;
  std::vector<ParsedLine> lines;
  if (!load_jsonl(argv[2], lines)) return 3;

  std::map<std::string, std::uint64_t> by_kind;
  std::map<std::uint64_t, std::uint64_t> by_node;
  struct TraceSpan {
    std::uint64_t first_ns = 0;
    std::uint64_t last_ns = 0;
    std::uint64_t events = 0;
  };
  std::map<std::uint64_t, TraceSpan> traces;
  for (const auto& line : lines) {
    ++by_kind[std::string(trace_event_name(line.record.kind))];
    ++by_node[line.record.node.value];
    if (line.record.span.trace_id == 0) continue;
    auto [it, inserted] = traces.try_emplace(line.record.span.trace_id);
    const std::uint64_t t = line.record.at.ns();
    if (inserted) it->second.first_ns = t;
    it->second.first_ns = std::min(it->second.first_ns, t);
    it->second.last_ns = std::max(it->second.last_ns, t);
    ++it->second.events;
  }

  std::printf("events=%zu traces=%zu nodes=%zu\n", lines.size(), traces.size(), by_node.size());
  for (const auto& [name, count] : by_kind) {
    std::printf("  kind %-16s %llu\n", name.c_str(), static_cast<unsigned long long>(count));
  }

  // Per-trace end-to-end latency: first event to last event of the same
  // causal trace — the hop-by-hop delivery chain the spans stitched up.
  SampleSet latency;
  const TraceSpan* slowest = nullptr;
  std::uint64_t slowest_id = 0;
  for (const auto& [id, span] : traces) {
    latency.add(static_cast<double>(span.last_ns - span.first_ns));
    if (slowest == nullptr || span.last_ns - span.first_ns > slowest->last_ns - slowest->first_ns) {
      slowest = &span;
      slowest_id = id;
    }
  }
  if (latency.count() > 0) {
    std::printf("trace latency ns: p50=%.0f p95=%.0f p99=%.0f max=%.0f\n", latency.percentile(50),
                latency.percentile(95), latency.percentile(99), latency.max());
    std::printf("slowest trace: 0x%llx events=%llu span=%lluns\n",
                static_cast<unsigned long long>(slowest_id),
                static_cast<unsigned long long>(slowest->events),
                static_cast<unsigned long long>(slowest->last_ns - slowest->first_ns));
  }
  return 0;
}

int run_diff(int argc, char** argv) {
  if (argc < 4 || !cli::Flags(argc, argv, 4, usage).check({})) return 2;
  std::ifstream a(argv[2]), b(argv[3]);
  if (!a.is_open() || !b.is_open()) {
    std::fprintf(stderr, "p4auth_trace: cannot open %s\n", !a.is_open() ? argv[2] : argv[3]);
    return 3;
  }
  std::string line_a, line_b;
  std::size_t line_no = 0, differing = 0;
  for (;;) {
    const bool got_a = static_cast<bool>(std::getline(a, line_a));
    const bool got_b = static_cast<bool>(std::getline(b, line_b));
    if (!got_a && !got_b) break;
    ++line_no;
    if (got_a && got_b && line_a == line_b) continue;
    ++differing;
    if (differing <= 10) {
      std::printf("line %zu:\n  < %s\n  > %s\n", line_no, got_a ? line_a.c_str() : "<eof>",
                  got_b ? line_b.c_str() : "<eof>");
    }
  }
  if (differing == 0) {
    std::printf("identical (%zu lines)\n", line_no);
    return 0;
  }
  std::printf("%zu differing lines\n", differing);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "convert") return run_convert(argc, argv);
  if (command == "filter") return run_filter(argc, argv);
  if (command == "summarize") return run_summarize(argc, argv);
  if (command == "diff") return run_diff(argc, argv);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  usage();
  return 2;
}

// Tiny formatting helpers shared by the figure/table harnesses, plus the
// machine-readable artifact writer (BENCH_<name>.json).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "runner/runner.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace p4auth::bench {

/// Campaign parameters shared by the multi-seed harnesses.
struct CampaignArgs {
  runner::SeedRange seeds;
  int jobs = 0;        ///< 0 = hardware concurrency
  int shards = 1;      ///< engine shards per job
  int shard_workers = 0;  ///< resolved so shards x jobs fits the machine
};

/// Parses "--seeds A..B", "--jobs N", "--shards N" and
/// "--shard-workers N" (both "--flag value" and "--flag=value") and
/// rejects anything else on the command line with exit code 2, so a
/// typoed flag never silently runs the defaults. Results are
/// byte-identical for any --shards/--shard-workers value; the flags only
/// trade wall-clock time.
inline CampaignArgs parse_campaign_args(int argc, char** argv,
                                        runner::SeedRange default_seeds, int default_jobs = 0) {
  CampaignArgs args{default_seeds, default_jobs};
  const auto fail = [&](const std::string& message) {
    std::fprintf(stderr,
                 "%s\nusage: %s [--seeds A..B] [--jobs N] [--shards N] [--shard-workers N]\n",
                 message.c_str(), argv[0]);
    std::exit(2);
  };
  const auto flag_value = [&](int& i, const char* flag) -> const char* {
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(argv[i], flag, len) != 0) return nullptr;
    if (argv[i][len] == '=') return argv[i] + len + 1;
    if (argv[i][len] != '\0') return nullptr;
    if (i + 1 >= argc) fail(std::string("missing value for ") + flag);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(i, "--seeds"); v != nullptr) {
      const auto range = runner::parse_seed_range(v);
      if (!range.ok()) fail(range.error().message);
      args.seeds = range.value();
    } else if (const char* v2 = flag_value(i, "--jobs"); v2 != nullptr) {
      args.jobs = static_cast<int>(std::strtoul(v2, nullptr, 10));
    } else if (const char* v3 = flag_value(i, "--shards"); v3 != nullptr) {
      args.shards = static_cast<int>(std::strtoul(v3, nullptr, 10));
    } else if (const char* v4 = flag_value(i, "--shard-workers"); v4 != nullptr) {
      args.shard_workers = static_cast<int>(std::strtoul(v4, nullptr, 10));
    } else {
      fail(std::string("unknown flag: ") + argv[i]);
    }
  }
  args.jobs = runner::resolve_workers(args.jobs);
  // Nested budget: every concurrently-running job spins up its own
  // sharded engine, so divide the machine across jobs up front.
  args.shard_workers = runner::resolve_shard_workers(args.shard_workers, args.shards, args.jobs);
  return args;
}

inline void title(const std::string& heading) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", heading.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) { std::printf("%s\n", text.c_str()); }

inline void rule() {
  std::printf("----------------------------------------------------------------\n");
}

/// Prints a histogram's tail behaviour — count and p50/p95/p99 — with the
/// raw values multiplied by `scale` (e.g. 1e-6 for ns -> ms). The log2
/// buckets make the percentiles estimates, not exact ranks; good enough
/// to see tail spread next to a mean.
inline void percentile_line(const char* label, const telemetry::Histogram& h, double scale,
                            const char* unit) {
  std::printf("  %-24s n=%llu p50=%.3f%s p95=%.3f%s p99=%.3f%s\n", label,
              static_cast<unsigned long long>(h.count()), h.percentile(0.50) * scale, unit,
              h.percentile(0.95) * scale, unit, h.percentile(0.99) * scale, unit);
}

/// Machine-readable companion to the human-readable tables: collects the
/// numbers a harness prints into a flat JSON document and writes it to
/// BENCH_<name>.json in the working directory on destruction (or an
/// explicit write()). Rows model table lines; top-level scalars model
/// summary figures. Output field order is insertion order, so a harness
/// emits byte-identical artifacts across runs.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {
    writer_.begin_object();
    writer_.key("schema");
    writer_.value(std::string_view("p4auth.bench.v1"));
    writer_.key("bench");
    writer_.value(std::string_view(name_));
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() { write(); }

  template <typename V>
  JsonReport& scalar(std::string_view key, V value) {
    end_rows();
    writer_.key(key);
    writer_.value(value);
    return *this;
  }

  /// Starts a row in the "rows" array; fill it with field() calls.
  JsonReport& row() {
    if (!in_rows_) {
      writer_.key("rows");
      writer_.begin_array();
      in_rows_ = true;
    } else {
      writer_.end_object();
    }
    writer_.begin_object();
    in_row_ = true;
    return *this;
  }

  template <typename V>
  JsonReport& field(std::string_view key, V value) {
    writer_.key(key);
    writer_.value(value);
    return *this;
  }

  /// Writes BENCH_<name>.json; safe to call once, destructor is a no-op
  /// afterwards. Returns false (and warns on stderr) if the file cannot
  /// be created.
  bool write() {
    if (written_) return true;
    written_ = true;
    end_rows();
    writer_.end_object();
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    const std::string body = writer_.take() + "\n";
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  void end_rows() {
    if (!in_rows_) return;
    if (in_row_) writer_.end_object();
    writer_.end_array();
    in_rows_ = false;
    in_row_ = false;
  }

  std::string name_;
  telemetry::JsonWriter writer_;
  bool in_rows_ = false;
  bool in_row_ = false;
  bool written_ = false;
};

}  // namespace p4auth::bench

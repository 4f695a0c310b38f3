// Fig 20 + Table III experiments: key-management-protocol round-trip
// times (local/port key initialization and update) and KMP message/byte
// scalability over a network of m switches and n links.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace p4auth::telemetry {
struct Telemetry;
}

namespace p4auth::experiments {

struct KmpRttResult {
  double local_init_ms = 0;
  double local_update_ms = 0;
  double port_init_ms = 0;
  double port_update_ms = 0;
  int samples = 0;
};

struct KmpRttOptions {
  int samples = 20;
  std::uint64_t seed = 1;
  /// Optional shared bundle: fills kmp.rtt_ns{op} histograms (p50/p95/p99
  /// in the snapshot) and the kmp_complete trace stream.
  telemetry::Telemetry* telemetry = nullptr;
};

KmpRttResult run_kmp_rtt_experiment(const KmpRttOptions& options = {});

/// One Table III row, measured by actually running the KMP over a star
/// topology with `switches` switches and `links` inter-switch links and
/// counting the controller's wire traffic.
struct KmpScalingResult {
  int switches = 0;
  int links = 0;
  std::uint64_t init_messages = 0;
  std::uint64_t init_bytes = 0;
  std::uint64_t update_messages = 0;
  std::uint64_t update_bytes = 0;
};

/// `shards`/`shard_workers` follow Fabric::Options (byte-identical
/// counts for any shard count).
KmpScalingResult run_kmp_scaling_experiment(int switches, int links, std::uint64_t seed = 1,
                                            int shards = 1, int shard_workers = 0);

/// Closed forms from §XI / Table III.
struct KmpClosedForm {
  std::uint64_t init_messages, init_bytes, update_messages, update_bytes;
};
constexpr KmpClosedForm kmp_closed_form(std::uint64_t m, std::uint64_t n) {
  return KmpClosedForm{4 * m + 5 * n, 104 * m + 138 * n, 2 * m + 3 * n, 60 * m + 78 * n};
}

/// §XI: "it takes 150ms to finish (improves significantly when done in
/// parallel)". Makespan of initializing ALL keys of an m-switch, n-link
/// domain, sequentially vs with concurrent exchanges.
struct KmpMakespan {
  int switches = 0;
  int links = 0;
  double sequential_ms = 0;
  double parallel_ms = 0;
  double speedup = 0;
};

KmpMakespan run_kmp_makespan_experiment(int switches, int links, std::uint64_t seed = 1,
                                        int shards = 1, int shard_workers = 0);

}  // namespace p4auth::experiments

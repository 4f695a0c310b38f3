// Fig 18/19 experiment: register read/write request completion time and
// throughput for the three access paths the paper compares —
// P4Runtime (gRPC stack), DP-Reg-RW (raw PacketOut), and P4Auth
// (PacketOut + digests). Requests are issued sequentially, as in the
// paper's PTF-driven measurement.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace p4auth::experiments {

enum class RegOpsVariant { P4Runtime, DpRegRw, P4Auth };

const char* variant_name(RegOpsVariant variant);

struct RegOpsResult {
  double read_rct_us_mean = 0;
  double read_rct_us_p99 = 0;
  double write_rct_us_mean = 0;
  double write_rct_us_p99 = 0;
  double read_throughput_rps = 0;   ///< sequential requests per second
  double write_throughput_rps = 0;
  std::uint64_t failures = 0;
};

struct RegOpsOptions {
  int requests_per_kind = 400;
  std::uint64_t seed = 1;
  /// Shards of the conservative-lookahead engine (<= 1 = one shard; a
  /// single-switch fabric always clamps to one).
  int shards = 1;
  /// Worker threads for the sharded engine (0 = one per shard).
  int shard_workers = 0;
};

RegOpsResult run_regops_experiment(RegOpsVariant variant, const RegOpsOptions& options = {});

}  // namespace p4auth::experiments

// Fig 21 experiment: HULA probe traversal time vs hop count, with and
// without P4Auth, on the BMv2-analog target. Each on-path switch verifies
// the probe's digest and re-tags it for the next hop; because probes
// accumulate a per-hop trace, the digested byte count — and therefore the
// P4Auth overhead — grows with the path length.
//
// Also reports the single-switch Tofino data-packet overhead quoted at
// the end of §IX-C (~6%).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace p4auth::experiments {

struct MultihopPoint {
  int hops = 0;
  double base_us = 0;      ///< traversal time without P4Auth
  double p4auth_us = 0;    ///< traversal time with P4Auth
  double overhead_pct = 0;
};

struct MultihopOptions {
  int min_hops = 2;
  int max_hops = 10;
  int probes_per_point = 10;
  std::uint64_t seed = 1;
  /// Shards of the conservative-lookahead engine (<= 1 = one shard;
  /// byte-identical results for any N).
  int shards = 1;
  /// Worker threads for the sharded engine (0 = one per shard).
  int shard_workers = 0;
};

std::vector<MultihopPoint> run_multihop_experiment(const MultihopOptions& options = {});

/// Single hardware switch: data-packet processing time, base vs P4Auth
/// (Tofino timing model).
struct SingleSwitchOverhead {
  double base_ns = 0;
  double p4auth_ns = 0;
  double overhead_pct = 0;
};
SingleSwitchOverhead run_single_switch_overhead(std::uint64_t seed = 1);

}  // namespace p4auth::experiments

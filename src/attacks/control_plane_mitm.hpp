// Control-plane MitM toolkit (threat model §II-A): interposers installed
// at the switch-OS seam between the gRPC agent and the SDK/driver —
// the LD_PRELOAD-style backdoor. The attacker sees and rewrites C-DP
// messages in either direction but holds no P4Auth keys, so rewritten
// messages carry stale digests.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/wire.hpp"
#include "netsim/switch.hpp"

namespace p4auth::attacks {

/// Receives the register index and current value; returns the forged value.
using ValueTransform = std::function<std::uint64_t(std::uint32_t index, std::uint64_t value)>;

/// Like ValueTransform, but may pass on a value: nullopt leaves it as is.
using ValueRewrite =
    std::function<std::optional<std::uint64_t>(std::uint32_t index, std::uint64_t value)>;

/// The intermittent implant of the Table I experiments: applies `rewrite`
/// until it has forged `shots` values, then goes quiet. A shot is spent
/// only when `rewrite` returns a value, so a rewrite that always forges
/// spends one per message and a selective one only on the values it
/// picks. The count lives in the returned transform; hand it to the
/// interposer rather than copying it.
ValueTransform counted_implant(std::uint32_t shots, ValueRewrite rewrite);

/// Rewrites the value of register *write requests* heading to the data
/// plane (Attack on update messages, Table I). `target` empty = any
/// register.
netsim::OsInterposer make_write_value_tamper(std::optional<RegisterId> target,
                                             ValueTransform transform);

/// Rewrites the value of register *read responses* heading to the
/// controller (Attack1 §II-A — misreported statistics, Fig. 2/9).
netsim::OsInterposer make_report_inflater(std::optional<RegisterId> target,
                                          ValueTransform transform);

/// Drops matching C-DP messages (e.g. suppressing a transit-table clear).
netsim::OsInterposer make_message_dropper(core::HdrType hdr_type,
                                          std::optional<RegisterId> target = std::nullopt);

/// Records raw PacketOut frames for later replay (§VIII replay attack).
class ReplayRecorder {
 public:
  /// Interposer that passes everything through while recording register
  /// write requests.
  netsim::OsInterposer interposer();
  const std::vector<Bytes>& recorded() const noexcept { return recorded_; }

 private:
  std::vector<Bytes> recorded_;
};

/// Crafts `count` forged write requests with guessed digests (§VIII
/// brute-force / DoS flood). Every one is detectable; the point is the
/// alert-pressure they create.
std::vector<Bytes> make_bogus_write_flood(NodeId src, NodeId dst, RegisterId reg,
                                          std::size_t count, std::uint64_t seed);

}  // namespace p4auth::attacks

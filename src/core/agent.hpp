// P4AuthAgent — the P4Auth data-plane module (the paper's 400 lines of P4
// plus externs, §VII), realized as a DataPlaneProgram that wraps an inner
// application program.
//
// Responsibilities, all executed in the data plane:
//  * authenticate C-DP register read/write requests against K_local and
//    serve them through the reg_id_to_name_mapping table, answering with
//    tagged ack/nAck responses (§V, Fig. 8/15);
//  * run the data-plane side of the key management protocol: EAK
//    responder, ADHKD responder/initiator for local and port keys, with
//    two-version consistent key installs (§VI);
//  * authenticate DP-DP feedback messages: verify inbound DpData frames
//    with the ingress port key, hand the inner payload to the wrapped
//    program, and re-tag outbound feedback with each egress port key (§V);
//  * detect and alert: digest mismatches, replays, untagged protected
//    messages — alerts rate-limited per §VIII.
//
// The inner program is oblivious to P4Auth. Outbound packets whose first
// byte is a registered "protected magic" (e.g. a HULA probe) are wrapped
// and tagged; everything else passes untouched.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/dos_guard.hpp"
#include "core/key_store.hpp"
#include "core/protocol.hpp"
#include "core/replay_guard.hpp"
#include "core/wire.hpp"
#include "crypto/mac.hpp"
#include "dataplane/digest_extern.hpp"
#include "dataplane/program.hpp"
#include "dataplane/table.hpp"
#include "telemetry/telemetry.hpp"

namespace p4auth::core {

class P4AuthAgent : public dataplane::DataPlaneProgram {
 public:
  struct Config {
    NodeId self{};
    Key64 k_seed = 0;
    crypto::MacKind mac = crypto::MacKind::HalfSipHash24;
    KeySchedule schedule{};
    int num_ports = 16;
    /// Max alerts per window before suppression (§VIII DoS mitigation).
    std::uint32_t alert_rate_limit = 64;
    SimTime alert_window = SimTime::from_ms(100);
    /// When true, a protected-magic packet arriving untagged on a data
    /// port is dropped (and alerted) instead of processed.
    bool enforce_feedback_auth = true;
    /// When false the agent becomes the DP-Reg-RW baseline: register ops
    /// are served through the same tables but without digests/alerts.
    bool auth_enabled = true;
    /// §XI extension: encrypt DP-DP feedback payloads with a key derived
    /// from the port master secret (Encrypt-then-MAC; HalfSipHash counter
    /// mode). An on-link eavesdropper then learns nothing about probe
    /// contents. Both ends must agree on this setting.
    bool encrypt_feedback = false;
  };

  /// Creates the agent and its backing key registers inside `registers`
  /// (the hosting switch's register file).
  P4AuthAgent(Config config, dataplane::RegisterFile& registers,
              std::unique_ptr<dataplane::DataPlaneProgram> inner);

  // --- topology / exposure configuration (done by the operator pipeline
  //     at deploy time, like p4Info + LLDP would) -------------------------

  /// Declares that `port` faces neighbour switch `peer`. Ignored for a
  /// port outside 1..num_ports.
  void set_neighbor(PortId port, NodeId peer);

  /// Makes a register addressable by C-DP requests: installs the two
  /// (regId, read/write) entries in reg_id_to_name_mapping (§VII).
  Status expose_register(RegisterId id, std::string name);

  /// Registers a leading byte identifying protected in-network feedback
  /// messages (e.g. the HULA probe magic).
  void add_protected_magic(std::uint8_t magic);

  // --- DataPlaneProgram ---------------------------------------------------

  dataplane::PipelineOutput process(dataplane::Packet& packet,
                                    dataplane::PipelineContext& ctx) override;
  dataplane::PipelineModel pipeline_model() const override;

  // --- introspection (tests / benches) -------------------------------------

  struct Stats {
    std::uint64_t digest_failures = 0;
    std::uint64_t replay_rejections = 0;
    std::uint64_t alerts_sent = 0;
    std::uint64_t alerts_suppressed = 0;
    std::uint64_t reads_served = 0;
    std::uint64_t writes_served = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t feedback_verified = 0;
    std::uint64_t feedback_rejected = 0;
    std::uint64_t unauth_feedback_dropped = 0;
    std::uint64_t feedback_tagged = 0;
    std::uint64_t key_installs = 0;
    SimTime last_key_install{};
    std::uint64_t lldp_announcement_rounds = 0;
    std::uint64_t lldp_neighbors_learned = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

  const DataPlaneKeyStore& keys() const noexcept { return keys_; }
  bool has_local_key() const noexcept { return keys_.has_key(kCpuPort); }
  dataplane::DataPlaneProgram* inner() noexcept { return inner_.get(); }
  const Config& config() const noexcept { return config_; }

 private:
  // C-DP handlers (CPU-port arrivals). `msg` is `frame` decoded; the
  // digest is verified over `frame`, the bytes as received. A reply that
  // answers the request (register ack/nAck, KMP response, the port-key
  // leg a portKeyInit/Update starts) is sealed into `frame` itself, only
  // after verify and the replay check: the request's buffer carries its
  // answer back, so the round trip draws nothing from the network pool.
  dataplane::PipelineOutput handle_register_op(const Message& msg, Bytes& frame,
                                               dataplane::PipelineContext& ctx);
  dataplane::PipelineOutput handle_key_exchange_cpu(const Message& msg, Bytes& frame,
                                                    dataplane::PipelineContext& ctx);
  // DP-DP dispatch (data-port arrivals). A DpData frame is verified
  // over its wire bytes, then stripped to its inner payload in place, so
  // the inner program runs on the ingress buffer itself.
  dataplane::PipelineOutput handle_dp_data(const Header& header, dataplane::Packet& packet,
                                           dataplane::PipelineContext& ctx);
  // DP-DP port-key update legs; the responder's leg answers in `frame`.
  dataplane::PipelineOutput handle_key_exchange_port(const Message& msg, Bytes& frame,
                                                     PortId ingress,
                                                     dataplane::PipelineContext& ctx);

  /// Runs the inner program and wraps protected-magic emissions.
  dataplane::PipelineOutput run_inner(dataplane::Packet& packet,
                                      dataplane::PipelineContext& ctx);

  bool is_protected_magic(const Bytes& payload) const noexcept;
  std::optional<PortId> port_of_neighbor(NodeId peer) const;

  /// Per-port protocol state, like the paper's port-indexed registers
  /// (§VII): slot 0 is the C-DP channel, slot p the link on data port p.
  struct PortSlot {
    SeqTracker rx;                          ///< replay window of inbound frames
    SeqCounter tx;                          ///< seq of frames this agent originates
    std::optional<NodeId> neighbor;         ///< data ports: the switch across the link
    std::optional<AdhkdInitiator> pending;  ///< data ports: port-key exchange in flight
  };
  /// The only place a port number becomes a slot index: null outside
  /// 0..num_ports; data_slot() also refuses slot 0.
  PortSlot* slot(PortId port) noexcept;
  PortSlot* data_slot(PortId port) noexcept;

  /// The admission step of every authenticated ingress: verifies `frame`
  /// under `key`, then
  /// checks `port`'s replay window unless `replay_check` is off (KMP
  /// responses). Owns the verify and replay counters and records; the
  /// caller answers a rejection with its own nAck or alert.
  enum class Admission : std::uint8_t { Admitted, Forged, Replayed };
  Admission admit(std::string_view site, std::span<const std::uint8_t> frame,
                  const Header& header, const std::optional<Key64>& key, PortId port,
                  bool replay_check, dataplane::PipelineContext& ctx);
  /// The alert for a rejected frame: DigestMismatch (expected seq 0) or
  /// ReplayDetected (expected = `port`'s window top).
  void reject(dataplane::PipelineOutput& out, dataplane::PipelineContext& ctx,
              Admission verdict, std::uint32_t context, const Header& header, PortId port);

  /// Drops the frame and raises an alert: built, sealed (seal_local)
  /// and rate-limited.
  void push_alert(dataplane::PipelineOutput& out, dataplane::PipelineContext& ctx, AlertMsg code,
                  std::uint32_t context, std::uint16_t observed, std::uint16_t expected,
                  std::uint32_t detail = 0);

  void install_key(PortId slot, Key64 key, dataplane::PipelineContext& ctx);

  /// A frame this agent originates on `channel` (a slot's port): src =
  /// self, the slot's next seq and the channel's current key version.
  Message originate(PortId channel, HdrType type, std::uint8_t msg_type, NodeId dst,
                    std::uint8_t flags, Payload payload);
  /// The answer to `request`: its type, seq, key version and port scope.
  Message make_response(const Message& request, std::uint8_t msg_type, Payload payload) const;

  /// ADHKD responder: installs the master in `slot` and returns the
  /// unsealed answer leg, which the caller seals under a key it holds.
  Message answer_adhkd(const Message& request, PortId slot, dataplane::PipelineContext& ctx);
  /// ADHKD initiator for `port`'s key: parks it in the port's slot and
  /// seals its first leg into `frame`, an InitKeyExch on the C-DP channel
  /// under the local key or an UpdKeyExch on the link under the port key.
  Bytes start_port_exchange(KeyExchMsg kind, PortId port, NodeId peer, Bytes frame,
                            dataplane::PipelineContext& ctx);
  /// Installs the key of `port`'s pending exchange; false if none.
  bool finish_port_exchange(PortId port, const AdhkdPayload& answer,
                            dataplane::PipelineContext& ctx);

  // The digest extern over core::digest_cover, billed to the packet.
  /// Encodes `msg` into `out` and seals the frame under `key`.
  Bytes seal(const Message& msg, Key64 key, Bytes out, dataplane::PipelineContext& ctx) const;
  /// seal() under the current local key, stamping its version into `msg`
  /// (K_seed, version 0, before local-key init); a plain encode with
  /// authentication off.
  Bytes seal_local(Message& msg, Bytes out, dataplane::PipelineContext& ctx) const;

  // --- telemetry hooks ----------------------------------------------------
  // Per-switch counter series cached on first use (registry references
  // are stable); every hook is a no-op when the context carries no
  // telemetry bundle.
  struct TeleSeries {
    telemetry::Telemetry* bound = nullptr;
    telemetry::Counter* verify_ok = nullptr;
    telemetry::Counter* verify_fail = nullptr;
    telemetry::Counter* replay_drops = nullptr;
    telemetry::Counter* unauth_drops = nullptr;
    telemetry::Counter* alerts_sent = nullptr;
    telemetry::Counter* alerts_suppressed = nullptr;
    telemetry::Counter* table_hits = nullptr;
    telemetry::Counter* table_misses = nullptr;
    telemetry::Counter* key_installs = nullptr;
  };
  /// Binds (or rebinds) the cache to the context's bundle; null when off.
  TeleSeries* tele(dataplane::PipelineContext& ctx);
  void note_table_lookup(dataplane::PipelineContext& ctx, bool hit, RegisterId reg);
  void note_unauth_drop(dataplane::PipelineContext& ctx, PortId port);
  void note_alert(dataplane::PipelineContext& ctx, bool suppressed, AlertMsg code);
  void note_key_install(dataplane::PipelineContext& ctx, PortId slot);

  Config config_;
  dataplane::RegisterFile& registers_;  // exposed arrays, resolved by pipeline_model()
  std::unique_ptr<dataplane::DataPlaneProgram> inner_;
  DataPlaneKeyStore keys_;
  dataplane::DigestExtern digest_;
  dataplane::ExactTable reg_map_;
  /// An exposed register's name, and its array once a register op has
  /// found it by that name (names are unique and arrays never removed,
  /// so a found pointer cannot go stale).
  struct Exposed {
    std::string name;
    dataplane::RegisterArray* array = nullptr;
  };
  std::vector<Exposed> exposed_;
  std::unordered_map<RegisterId, std::string> exposed_by_id_;

  std::vector<PortSlot> slots_;  // [0, num_ports]
  std::unordered_map<NodeId, PortId> port_of_peer_;
  std::vector<std::uint8_t> protected_magics_;

  std::optional<Key64> k_auth_;

  RateLimiter alert_limiter_;
  Stats stats_;
  TeleSeries tele_;
};

}  // namespace p4auth::core

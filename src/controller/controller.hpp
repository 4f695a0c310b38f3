// The P4Auth controller: the trusted C side of the C-DP protocols.
//
// Owns per-switch state (mirror key store, sequence counters, outstanding
// ledger), drives the key management protocol (§VI: local/port key init
// and update, including the controller-redirected port-key init legs),
// issues authenticated register read/write requests, and collects alerts.
//
// Request frames come from a controller-owned BufferPool and are encoded
// and sealed when the request is issued (seq, key and key version are
// fixed then). The agent seals its reply into the request's own buffer,
// and once a RegisterOp or KeyExchange PacketIn has been dispatched its
// buffer goes back to the pool: the steady-state register round trip
// allocates nothing. Alerts and LLDP reports are not recycled: they
// answer no request, and parking them would only grow the pool.
//
// Timing: client-side compose/parse/digest costs are modelled with the
// constants in Config — they represent the Python controller of the
// paper's prototype (§VII) and are the calibration knobs for Fig 18/19.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/buffer_pool.hpp"
#include "core/auth.hpp"
#include "core/dos_guard.hpp"
#include "core/key_store.hpp"
#include "core/protocol.hpp"
#include "core/replay_guard.hpp"
#include "core/wire.hpp"
#include "netsim/control_channel.hpp"
#include "telemetry/telemetry.hpp"

namespace p4auth::controller {

class Controller {
 public:
  struct Config {
    crypto::MacKind mac = crypto::MacKind::HalfSipHash24;
    core::KeySchedule schedule{};
    std::size_t max_outstanding = 256;
    /// Client-side request composition cost (index only vs index + data —
    /// the asymmetry behind the paper's read/write throughput gap).
    /// Recalibrated x0.75 alongside the channel models (EXPERIMENTS.md):
    /// the zero-allocation hot path removed the alloc/copy overhead the
    /// original constants folded in.
    SimTime compose_read = SimTime::from_us(750);
    SimTime compose_write = SimTime::from_us(1350);
    SimTime parse_response = SimTime::from_us(45);
    /// Cost of one digest computation/verification at the controller.
    SimTime digest_cost = SimTime::from_us(27);
    /// false => DP-Reg-RW baseline: same PacketOut path, no digests.
    bool p4auth_enabled = true;
    /// When true, an LLDP neighbour report for a not-yet-keyed adjacency
    /// automatically triggers port-key initialization (§VI-C's
    /// port-activation trigger).
    bool auto_port_keys = false;
    /// When true, an authentic integrity alert (digest mismatch, replay,
    /// missing auth) triggers a local-key update on the reporting switch.
    /// The rekey runs inside the alert's causal trace, so the audit trail
    /// links tampered frame -> verify failure -> alert -> key install.
    bool rekey_on_alert = false;
    std::uint64_t seed = 0xC0117011E5ull;
  };

  Controller(netsim::Simulator& sim, Config config);

  /// Registers a switch and wires its control channel to this controller.
  void attach_switch(NodeId id, netsim::ControlChannel& channel, Key64 k_seed, int num_ports);

  // --- Key management protocol (§VI, Fig. 14) ----------------------------

  /// (a) Local key initialization: EAK then ADHKD; 4 messages.
  void init_local_key(NodeId sw, std::function<void(Result<Key64>)> done);
  /// (b) Local key update: ADHKD under the current local key; 2 messages.
  void update_local_key(NodeId sw, std::function<void(Result<Key64>)> done);
  /// (c) Port key initialization: portKeyInit + 4 controller-redirected
  /// ADHKD legs; 5 messages. `done` fires when the final leg reaches `a`.
  void init_port_key(NodeId a, PortId port_a, NodeId b, PortId port_b,
                     std::function<void(Status)> done);
  /// (d) Port key update: portKeyUpdate + 2 direct DP-DP legs; only the
  /// first message involves the controller. `done` fires on delivery of
  /// portKeyUpdate; the DP-DP exchange completes below the controller.
  void update_port_key(NodeId a, PortId port_a, NodeId b, std::function<void(Status)> done);

  // --- Authenticated register access (§V) --------------------------------

  void read_register(NodeId sw, RegisterId reg, std::uint32_t index,
                     std::function<void(Result<std::uint64_t>)> done);
  void write_register(NodeId sw, RegisterId reg, std::uint32_t index, std::uint64_t value,
                      std::function<void(Result<std::uint64_t>)> done);

  /// One op of a run_register_ops batch.
  struct RegisterOp {
    core::RegisterMsg op = core::RegisterMsg::ReadReq;  ///< ReadReq or WriteReq
    RegisterId reg{};
    std::uint32_t index = 0;
    std::uint64_t value = 0;  ///< what a WriteReq writes; unused by a read
  };

  /// The one fan-out of the controller-side apps: issues every op at
  /// once, in list order, exactly as read_register/write_register would.
  /// `done` fires once, inline from the answer that decides the outcome:
  /// with every op's value in list order (a write yields the value
  /// written), or with the first failed op's error unchanged, after which
  /// later answers are ignored. An empty list completes at once; the
  /// batch schedules no event of its own.
  void run_register_ops(NodeId sw, const std::vector<RegisterOp>& ops,
                        std::function<void(Result<std::vector<std::uint64_t>>)> done);

  // --- Observability ------------------------------------------------------

  struct AlertRecord {
    NodeId sw{};
    core::AlertMsg code{};
    core::AlertPayload payload{};
    SimTime at{};
    bool authentic = false;  ///< alert digest verified
  };
  const std::vector<AlertRecord>& alerts() const noexcept { return alerts_; }
  void set_alert_handler(std::function<void(const AlertRecord&)> handler) {
    alert_handler_ = std::move(handler);
  }

  struct Stats {
    std::uint64_t requests_sent = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t nacks_received = 0;
    std::uint64_t response_digest_failures = 0;
    std::uint64_t unmatched_responses = 0;
    std::uint64_t kmp_messages_sent = 0;
    std::uint64_t kmp_bytes_sent = 0;
    std::uint64_t kmp_messages_received = 0;
    std::uint64_t kmp_bytes_received = 0;
    std::uint64_t lldp_reports = 0;
    std::uint64_t auto_port_inits = 0;
    std::uint64_t alert_rekeys = 0;  ///< local-key updates triggered by alerts
    /// Alerts whose digest did not verify — forged or replayed. These are
    /// recorded for forensics but never trigger defensive actions; the
    /// fuzz oracle asserts exactly that under alert-flood attacks.
    std::uint64_t inauthentic_alerts = 0;
    /// Multi-lane digest batches (same-delivery-instant PacketIn groups
    /// with >= 2 verifications, pushed through the SIMD lane kernel).
    std::uint64_t batched_verifies = 0;
    /// Messages whose digest was checked via a multi-lane batch.
    std::uint64_t batch_verified_messages = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Attaches the shared telemetry bundle (null = off): KMP round-trip
  /// histograms (kmp.rtt_ns{op}), control-plane message counters, and
  /// kmp_complete trace events.
  void set_telemetry(telemetry::Telemetry* telemetry) noexcept { telemetry_ = telemetry; }

  /// Current mirrored local key for a switch (tests/benches).
  std::optional<Key64> local_key(NodeId sw) const;
  bool has_switch(NodeId sw) const { return state_of(sw) != nullptr; }

  /// §VIII: requests to `sw` issued more than `age` ago and never
  /// answered — the request/response-imbalance DoS signal an operator
  /// should act on (together with unmatched_responses in Stats).
  std::vector<std::uint16_t> stale_requests(NodeId sw, SimTime age) const;

  /// Adjacencies learned from LLDP reports (canonical: lower node first).
  struct Adjacency {
    NodeId a{};
    PortId port_a{};
    NodeId b{};
    PortId port_b{};
    bool keyed = false;
    friend bool operator==(const Adjacency&, const Adjacency&) = default;
  };
  const std::vector<Adjacency>& adjacencies() const noexcept { return adjacencies_; }

 private:
  enum class LocalPhase { Eak, Adhkd };
  struct PendingLocal {
    LocalPhase phase = LocalPhase::Eak;
    bool is_update = false;
    std::optional<core::EakInitiator> eak;
    std::optional<core::AdhkdInitiator> adhkd;
    std::uint16_t expect_seq = 0;
    std::function<void(Result<Key64>)> done;
  };

  struct PendingPortInit {
    NodeId a{};
    PortId port_a{};
    NodeId b{};
    PortId port_b{};
    SimTime start{};  ///< when the init was issued (kmp.rtt_ns)
    std::function<void(Status)> done;
  };

  /// The key a request is sealed under and the version it carries.
  struct RequestKey {
    Key64 key = 0;
    KeyVersion version{};
  };

  struct SwitchState {
    NodeId id{};
    netsim::ControlChannel* channel = nullptr;
    Key64 k_seed = 0;
    core::MirrorKeyStore keys;
    std::optional<Key64> k_auth;
    core::SeqCounter tx_seq;
    /// Issued register ops awaiting their ack/nAck, with their completions.
    core::OutstandingLedger<std::function<void(Result<std::uint64_t>)>> ledger;
    std::optional<PendingLocal> pending_local;

    SwitchState(NodeId node, netsim::ControlChannel* ch, Key64 seed, int num_ports,
                std::size_t max_outstanding)
        : id(node), channel(ch), k_seed(seed), keys(num_ports), ledger(max_outstanding) {}

    /// The current local key and version (K_seed, version 0, before init).
    RequestKey local_key() const {
      return {keys.local().current().value_or(k_seed), keys.local().current_version()};
    }
    bool is_data_port(PortId port) const {
      return port != kCpuPort && port.value <= keys.num_ports();
    }
  };

  /// One PacketIn parked between delivery and dispatch. Same-instant
  /// deliveries (they share ControlChannel::kCtrlKey, so the simulator's
  /// coalescing probe sees the group) are staged here and verified as one
  /// multi-lane digest batch before dispatching in arrival order.
  struct StagedPacketIn {
    SwitchState* st = nullptr;
    core::Message msg;  ///< `frame` decoded (LLDP reports: unused)
    bool is_lldp = false;
    Bytes frame;  ///< as received: the digest is verified over it
    telemetry::SpanContext span;
    bool digest_ok = true;
  };

  /// The attached switch `sw`, or null: one index into switches_.
  SwitchState* state_of(NodeId sw) const noexcept {
    return sw.value < switches_.size() ? switches_[sw.value].get() : nullptr;
  }
  void on_packet_in(NodeId sw, Bytes frame);
  /// Verifies every staged PacketIn in one multi-lane digest call and
  /// dispatches them in arrival order.
  void flush_packet_ins();
  void on_lldp_report(SwitchState& st, const Bytes& frame);
  void on_register_response(SwitchState& st, const core::Message& msg, bool digest_ok);
  /// Registers and issues a register read/write: the request is encoded
  /// and sealed now and leaves after the modelled compose delay.
  void issue_register_op(NodeId sw, core::RegisterMsg op, RegisterId reg, std::uint32_t index,
                         std::uint64_t value, SimTime compose,
                         std::function<void(Result<std::uint64_t>)> done);
  void on_key_exchange(SwitchState& st, const core::Message& msg, bool digest_ok);
  void on_alert(SwitchState& st, const core::Message& msg, bool digest_ok);

  /// Encodes `msg` into a buffer from frame_pool_ and tags it under
  /// `key` (when P4Auth is on).
  Bytes seal_request(const core::Message& msg, Key64 key);
  /// The one builder of the requests this controller originates: src =
  /// controller, dst = `st`, stamped `key.version` and sealed under
  /// `key.key`.
  Bytes request(const SwitchState& st, core::HdrType type, std::uint8_t msg_type,
                std::uint16_t seq, core::Payload payload, RequestKey key);
  /// Transmits a sealed frame; counts KMP traffic when asked.
  void send(SwitchState& st, Bytes frame, bool is_kmp, std::function<void()> delivered = {});

  /// Key to verify an inbound message from `st`, given its header.
  std::optional<Key64> verify_key_for(SwitchState& st, const core::Message& msg) const;

  /// Wraps a KMP completion callback so it records the operation
  /// (record_kmp) when it fires.
  template <typename V>
  std::function<void(V)> track_kmp(NodeId sw, const char* op, std::function<void(V)> done);
  /// The `delivered` callback that completes a port-key operation issued
  /// at `start`: records it and reports success to `done`. One closure
  /// holds `done` itself, not a track_kmp wrapper of it.
  std::function<void()> port_key_delivered(NodeId sw, const char* op, SimTime start,
                                           std::function<void(Status)> done);
  /// Records a finished KMP operation when telemetry is on:
  /// kmp.rtt_ns{op}, kmp.completed{op,ok} and a kmp_complete trace event.
  void record_kmp(NodeId sw, const char* op, SimTime start, bool ok);

  // Span plumbing (no-ops when telemetry is off). An operation entry
  // point roots a new trace — unless one is already active, in which
  // case it nests (an alert-triggered rekey stays in the alert's trace).
  telemetry::SpanTracker::Scope span_operation(std::uint64_t domain, std::uint64_t detail);
  telemetry::SpanContext span_ctx() const;
  telemetry::SpanTracker::Scope span_resume(const telemetry::SpanContext& ctx);

  void start_adhkd_local(SwitchState& st, bool is_update);

  netsim::Simulator& sim_;
  Config config_;
  std::vector<StagedPacketIn> staged_packet_ins_;
  /// flush_packet_ins swaps the staged batch out into this reused vector
  /// for dispatch, so neither side reallocates in steady state.
  std::vector<StagedPacketIn> dispatch_batch_;
  /// Request frames; the answers to them come back here (see top).
  BufferPool frame_pool_;
  // flush_packet_ins' digest batch, reused across flushes.
  std::vector<crypto::DigestJob> digest_jobs_;
  std::vector<Digest32> digest_tags_;
  std::vector<StagedPacketIn*> digest_staged_;
  std::vector<std::unique_ptr<SwitchState>> switches_;  ///< by NodeId value; null = not attached
  std::vector<PendingPortInit> pending_port_inits_;
  std::vector<Adjacency> adjacencies_;
  std::vector<AlertRecord> alerts_;
  std::function<void(const AlertRecord&)> alert_handler_;
  Stats stats_;
  Xoshiro256 rng_;
  telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace p4auth::controller

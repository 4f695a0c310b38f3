// The behavioural-model switch node: a data plane (program + registers)
// below an explicitly modelled switch-OS boundary.
//
// The OS boundary is the paper's central attack surface (§II-A): a
// compromised switch OS can interpose between the gRPC agent and the
// SDK/driver and rewrite C-DP messages in both directions. We model that
// seam as a pair of hooks every PacketOut/PacketIn crosses. P4Auth's whole
// point is that its checks run *below* this seam, in the data plane.
#pragma once

#include <functional>
#include <memory>

#include "common/rng.hpp"
#include "dataplane/program.hpp"
#include "dataplane/timing.hpp"
#include "netsim/link.hpp"
#include "netsim/network.hpp"
#include "netsim/node.hpp"
#include "telemetry/telemetry.hpp"

namespace p4auth::netsim {

/// The compromised-OS seam. Hooks may mutate the message or drop it;
/// absent hooks pass everything through (benign OS).
struct OsInterposer {
  std::function<TamperVerdict(Bytes&)> to_dataplane;   ///< PacketOut path
  std::function<TamperVerdict(Bytes&)> to_controller;  ///< PacketIn path
};

class Switch : public Node {
 public:
  Switch(NodeId id, dataplane::TimingModel timing, std::uint64_t seed);

  dataplane::RegisterFile& registers() noexcept { return registers_; }
  Xoshiro256& rng() noexcept { return rng_; }
  const dataplane::TimingModel& timing() const noexcept { return timing_; }

  void set_program(std::unique_ptr<dataplane::DataPlaneProgram> program) {
    program_ = std::move(program);
  }
  dataplane::DataPlaneProgram* program() noexcept { return program_.get(); }

  /// Data-port arrival: runs the pipeline; emissions leave after the
  /// modelled processing delay.
  void on_frame(PortId ingress, Bytes payload) override;

  /// PacketOut delivery from the control channel. Crosses the OS boundary
  /// (to_dataplane hook) before reaching the pipeline on the CPU port.
  void handle_packet_out(Bytes message);

  void set_os_interposer(OsInterposer interposer) { interposer_ = std::move(interposer); }

  /// OS-originated PacketIn: a compromised switch OS can fabricate
  /// messages toward the controller without the data plane ever seeing
  /// them (§II-A). The frame still crosses the to_controller hook, like
  /// every legitimate PacketIn. Attack harnesses use this to model
  /// digest-channel flooding.
  void inject_packet_in(Bytes message) { send_packet_in(std::move(message)); }

  /// Attaches the shared telemetry bundle (null = off). Per-switch
  /// counters and the per-stage timing histogram are bound lazily.
  void set_telemetry(telemetry::Telemetry* telemetry);
  telemetry::Telemetry* telemetry() const noexcept { return telemetry_; }

  /// Wired by the control channel; receives PacketIn messages that already
  /// crossed the OS boundary (to_controller hook).
  void set_packet_in_sink(std::function<void(Bytes)> sink) { packet_in_sink_ = std::move(sink); }

  struct Stats {
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t drops = 0;
    std::uint64_t packet_outs = 0;
    std::uint64_t packet_ins = 0;
    std::uint64_t packet_ins_lost = 0;  ///< no channel attached
    std::uint64_t os_tampered = 0;
    std::uint64_t os_dropped = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Cumulative processing delay billed, for timing experiments.
  SimTime total_processing_time() const noexcept { return total_processing_; }

 private:
  void run_pipeline(dataplane::Packet packet);
  void send_packet_in(Bytes message);
  /// Runs one OS interposer hook over a message crossing the seam and
  /// counts and records what it did. `toward` is the trace record's `b`
  /// (1: toward the data plane, the AttackInject convention; 2: toward
  /// the controller). False when the hook dropped the message.
  bool cross_os_seam(const std::function<TamperVerdict(Bytes&)>& hook, Bytes& message,
                     std::uint64_t toward);

  dataplane::TimingModel timing_;
  Xoshiro256 rng_;
  dataplane::RegisterFile registers_;
  std::unique_ptr<dataplane::DataPlaneProgram> program_;
  OsInterposer interposer_;
  /// Copy of a message taken before an interposer runs, to tell a
  /// rewrite from a pass; reused so interposed messages do not allocate.
  Bytes os_original_;
  std::function<void(Bytes)> packet_in_sink_;
  Stats stats_;
  SimTime total_processing_{};

  telemetry::Telemetry* telemetry_ = nullptr;
  /// Cached per-switch series (registry references are stable), so the
  /// per-packet path does one pointer test instead of a map lookup.
  struct TeleSeries {
    telemetry::Histogram* process_ns = nullptr;
    telemetry::Counter* table_lookups = nullptr;
    telemetry::Counter* register_accesses = nullptr;
    telemetry::Counter* hash_calls = nullptr;
    telemetry::Counter* hashed_bytes = nullptr;
    telemetry::Counter* drops = nullptr;
  } tele_;
};

}  // namespace p4auth::netsim

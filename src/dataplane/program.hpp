// The data-plane program abstraction: what a compiled P4 program is to a
// switch, a DataPlaneProgram is to our behavioural-model Switch.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/buffer_pool.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dataplane/packet.hpp"
#include "dataplane/pipeline_model.hpp"
#include "dataplane/register_file.hpp"
#include "dataplane/resources.hpp"

namespace p4auth::telemetry {
struct Telemetry;
}

namespace p4auth::dataplane {

/// Receiver for pipeline audit events. Normally null (the hooks compile
/// to a pointer test); the conformance auditor in src/analysis installs
/// one to observe which declared constructs a program actually exercises.
class AuditSink {
 public:
  virtual ~AuditSink() = default;
  /// A program consulted the named match-action table (or its
  /// register-backed behavioural-model stand-in).
  virtual void on_table_lookup(std::string_view table) = 0;
  /// A program ran a digest-verify extern with the given outcome. The
  /// label names the verify site and must match the corresponding
  /// DigestVerify node object in the program's PipelineModel.
  virtual void on_digest_verify(std::string_view label, bool ok) {
    (void)label;
    (void)ok;
  }
};

/// Per-invocation view of the switch a program runs on: stateful register
/// access, the target's random() source, current time, and the cost
/// counters the timing model bills from. Optionally carries the hosting
/// switch's telemetry bundle (null when telemetry is off), the network's
/// packet-buffer pool (null when the program runs standalone), and an
/// audit sink (null outside conformance audits).
class PipelineContext {
 public:
  PipelineContext(RegisterFile& registers, Xoshiro256& rng, SimTime now, NodeId self,
                  telemetry::Telemetry* telemetry = nullptr, BufferPool* pool = nullptr,
                  AuditSink* audit = nullptr)
      : registers_(registers), rng_(rng), now_(now), self_(self), telemetry_(telemetry),
        pool_(pool), audit_(audit) {}

  RegisterFile& registers() noexcept { return registers_; }
  Xoshiro256& rng() noexcept { return rng_; }
  SimTime now() const noexcept { return now_; }
  NodeId self() const noexcept { return self_; }
  PacketCosts& costs() noexcept { return costs_; }
  telemetry::Telemetry* telemetry() const noexcept { return telemetry_; }
  BufferPool* pool() const noexcept { return pool_; }
  AuditSink* audit() const noexcept { return audit_; }

  /// Reports a lookup against the named table; free when no audit is
  /// attached. Programs call this where they bill costs().table_lookups
  /// so the auditor can match observed lookups, by name, to the Table
  /// nodes of the program's PipelineModel (its declared tables).
  void note_table(std::string_view table) {
    if (audit_ != nullptr) audit_->on_table_lookup(table);
  }

  /// Reports the outcome of a digest-verify site; free when no audit is
  /// attached. The label ties the runtime event to the matching
  /// DigestVerify node in the program's PipelineModel so the path
  /// conformance audit can replay executions onto model paths.
  void note_verify(std::string_view label, bool ok) {
    if (audit_ != nullptr) audit_->on_digest_verify(label, ok);
  }

  /// Pool-backed buffer for an outgoing frame; a plain Bytes when the
  /// context has no pool. The buffer leaves the pool's custody here and
  /// re-enters it when the network recycles the delivered frame.
  Bytes acquire_buffer(std::size_t capacity_hint = 0) {
    if (pool_ != nullptr) return pool_->acquire(capacity_hint);
    Bytes out;
    out.reserve(capacity_hint);
    return out;
  }

  /// Hands a spent buffer (e.g. a consumed ingress payload) back to the
  /// pool; frees it normally when the context has no pool.
  void release_buffer(Bytes&& buffer) {
    if (pool_ != nullptr) pool_->release(std::move(buffer));
  }

 private:
  RegisterFile& registers_;
  Xoshiro256& rng_;
  SimTime now_;
  NodeId self_;
  telemetry::Telemetry* telemetry_;
  BufferPool* pool_;
  AuditSink* audit_;
  PacketCosts costs_;
};

/// Read-only view of one frame, the argument of the unused
/// DataPlaneProgram::plan_burst hook below.
struct BurstFrameView {
  PortId ingress{};
  std::span<const std::uint8_t> frame{};
};

class DataPlaneProgram {
 public:
  virtual ~DataPlaneProgram() = default;

  /// Processes one packet. Called for data-port arrivals and for PacketOut
  /// messages from the controller (ingress == kCpuPort).
  virtual PipelineOutput process(Packet& packet, PipelineContext& ctx) = 0;

  /// Vestigial no-op hooks of a removed burst pre-pass: nothing in src/
  /// calls them, since every frame reaches process() on its own. They
  /// remain only because the benchmark's TimedProgram decorator
  /// (perfbench/bench.hpp) overrides them; the next change to the
  /// benchmark drops those overrides, and these two virtuals with them.
  virtual void plan_burst(std::span<const BurstFrameView> frames) { (void)frames; }
  virtual void end_burst() {}

  /// Declared resource footprint (what the P4 compiler would report),
  /// derived from pipeline_model(). Virtual only so decorators can
  /// forward it; programs declare themselves through the model.
  virtual ProgramDeclaration resources() const { return pipeline_model().declaration(); }

  /// The program's one declaration: the guarded control-flow model the
  /// symbolic checker explores and resources() derives from (empty by
  /// default: the program declares nothing and opts out of model
  /// checking). Programs keep it in lock-step with process(); the path
  /// conformance audit and the audit-undeclared-*/audit-dead-* rules
  /// flag drift mechanically.
  virtual PipelineModel pipeline_model() const { return {}; }
};

}  // namespace p4auth::dataplane

// Packet and pipeline-processing types for the behavioural-model switch.
//
// A Packet is an opaque byte payload plus the metadata a PISA pipeline
// carries alongside it (ingress port, arrival time). Programs parse the
// payload themselves — exactly like a P4 parser would.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "common/inline_vec.hpp"
#include "common/types.hpp"

namespace p4auth::dataplane {

struct Packet {
  Bytes payload;
  PortId ingress{};
  SimTime arrival{};
};

/// One packet emitted by the pipeline on a data port.
struct Emit {
  PortId port{};
  Bytes payload;
};

/// Everything a pipeline pass produces: zero or more emitted packets
/// (unicast, multicast, or probe replication) and zero or more PacketIn
/// messages to the controller CPU port (a rejected request produces both a
/// nAck and an alert). The hosting switch computes the processing delay
/// from the PacketCosts the program accrued.
///
/// The emit lists use in-object storage sized for the common cases
/// (unicast forward, probe replication to a few ports, nAck + alert) so a
/// steady-state pipeline pass never heap-allocates the output itself.
struct PipelineOutput {
  InlineVec<Emit, 4> emits;
  InlineVec<Bytes, 2> to_cpu;
  bool dropped = false;

  static PipelineOutput drop() {
    PipelineOutput out;
    out.dropped = true;
    return out;
  }

  static PipelineOutput unicast(PortId port, Bytes payload) {
    PipelineOutput out;
    out.emits.push_back(Emit{port, std::move(payload)});
    return out;
  }
};

/// Per-packet cost counters a program accrues while processing; the
/// TimingModel converts them into a processing delay for the target.
struct PacketCosts {
  int table_lookups = 0;
  int register_accesses = 0;
  int hash_calls = 0;
  std::size_t hashed_bytes = 0;
  int recirculations = 0;
  /// Widest within-pass digest batch this packet used (0 = no hashing):
  /// a program hashing k inputs of its *own* packet as one multi-lane
  /// batch, which the conformance auditor checks against HashUse::lanes
  /// declarations.
  int max_hash_lanes = 0;

  void add_hash(std::size_t bytes) noexcept { add_hash(bytes, 1); }

  void add_hash(std::size_t bytes, int lanes) noexcept {
    ++hash_calls;
    hashed_bytes += bytes;
    if (lanes > max_hash_lanes) max_hash_lanes = lanes;
  }
};

}  // namespace p4auth::dataplane

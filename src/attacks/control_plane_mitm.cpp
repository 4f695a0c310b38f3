#include "attacks/control_plane_mitm.hpp"

#include "common/rng.hpp"

namespace p4auth::attacks {
namespace {

using core::HdrType;
using core::Message;
using core::RegisterMsg;
using core::RegisterOpPayload;

bool is_register_op(const Message& msg, RegisterMsg op, std::optional<RegisterId> target) {
  if (msg.header.hdr_type != HdrType::RegisterOp) return false;
  if (static_cast<RegisterMsg>(msg.header.msg_type) != op) return false;
  if (!target.has_value()) return true;
  return std::get<RegisterOpPayload>(msg.payload).reg_id == *target;
}

/// Rewrite-in-place helper: decode, transform the value, re-encode with
/// the ORIGINAL digest (the attacker cannot recompute it).
netsim::TamperVerdict rewrite_value(Bytes& frame, RegisterMsg op,
                                    const std::optional<RegisterId>& target,
                                    const ValueTransform& transform) {
  auto decoded = core::decode(frame);
  if (!decoded.ok()) return netsim::TamperVerdict::Pass;
  Message msg = decoded.value();
  if (!is_register_op(msg, op, target)) return netsim::TamperVerdict::Pass;
  auto& payload = std::get<RegisterOpPayload>(msg.payload);
  payload.value = transform(payload.index, payload.value);
  frame = core::encode(msg);  // digest untouched: stale if P4Auth is on
  return netsim::TamperVerdict::Pass;
}

}  // namespace

ValueTransform counted_implant(std::uint32_t shots, ValueRewrite rewrite) {
  return [shots, rewrite = std::move(rewrite)](std::uint32_t index,
                                               std::uint64_t value) mutable {
    if (shots == 0) return value;
    const std::optional<std::uint64_t> forged = rewrite(index, value);
    if (!forged.has_value()) return value;
    --shots;
    return *forged;
  };
}

netsim::OsInterposer make_write_value_tamper(std::optional<RegisterId> target,
                                             ValueTransform transform) {
  netsim::OsInterposer interposer;
  interposer.to_dataplane = [target, transform = std::move(transform)](Bytes& frame) {
    return rewrite_value(frame, RegisterMsg::WriteReq, target, transform);
  };
  return interposer;
}

netsim::OsInterposer make_report_inflater(std::optional<RegisterId> target,
                                          ValueTransform transform) {
  netsim::OsInterposer interposer;
  interposer.to_controller = [target, transform = std::move(transform)](Bytes& frame) {
    return rewrite_value(frame, RegisterMsg::Ack, target, transform);
  };
  return interposer;
}

netsim::OsInterposer make_message_dropper(core::HdrType hdr_type,
                                          std::optional<RegisterId> target) {
  netsim::OsInterposer interposer;
  const auto hook = [hdr_type, target](Bytes& frame) {
    auto decoded = core::decode(frame);
    if (!decoded.ok()) return netsim::TamperVerdict::Pass;
    const Message& msg = decoded.value();
    if (msg.header.hdr_type != hdr_type) return netsim::TamperVerdict::Pass;
    if (target.has_value()) {
      if (msg.header.hdr_type != HdrType::RegisterOp) return netsim::TamperVerdict::Pass;
      if (std::get<RegisterOpPayload>(msg.payload).reg_id != *target) {
        return netsim::TamperVerdict::Pass;
      }
    }
    return netsim::TamperVerdict::Drop;
  };
  interposer.to_dataplane = hook;
  return interposer;
}

netsim::OsInterposer ReplayRecorder::interposer() {
  netsim::OsInterposer interposer;
  interposer.to_dataplane = [this](Bytes& frame) {
    auto decoded = core::decode(frame);
    if (decoded.ok() &&
        is_register_op(decoded.value(), RegisterMsg::WriteReq, std::nullopt)) {
      recorded_.push_back(frame);
    }
    return netsim::TamperVerdict::Pass;
  };
  return interposer;
}

std::vector<Bytes> make_bogus_write_flood(NodeId src, NodeId dst, RegisterId reg,
                                          std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Bytes> flood;
  flood.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Message msg;
    msg.header.hdr_type = HdrType::RegisterOp;
    msg.header.msg_type = static_cast<std::uint8_t>(RegisterMsg::WriteReq);
    msg.header.seq_num = static_cast<std::uint16_t>(rng.next_u64());
    msg.header.src = src;
    msg.header.dst = dst;
    msg.header.digest = rng.next_u32();  // guessed digest
    msg.payload = RegisterOpPayload{reg, static_cast<std::uint32_t>(i % 8), rng.next_u64()};
    flood.push_back(core::encode(msg));
  }
  return flood;
}

}  // namespace p4auth::attacks

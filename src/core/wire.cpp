#include "core/wire.hpp"

#include <cassert>
#include <cstring>

namespace p4auth::core {
namespace {

void write_header(ScratchWriter& w, const Header& h) {
  w.u8(static_cast<std::uint8_t>(h.hdr_type))
      .u8(h.msg_type)
      .u16(h.seq_num)
      .u8(h.key_version.value)
      .u8(h.flags)
      .u16(h.src.value)
      .u16(h.dst.value)
      .u32(h.digest);
}

/// Writes the fixed-width payload alternatives. DpData (the only
/// variable-length payload) is excluded; encode_into copies its inner.
void write_fixed_payload(ScratchWriter& w, const Payload& payload) {
  std::visit(
      [&w](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, RegisterOpPayload>) {
          w.u32(p.reg_id.value).u32(p.index).u64(p.value);
        } else if constexpr (std::is_same_v<T, EakPayload>) {
          w.u64(p.salt);
        } else if constexpr (std::is_same_v<T, AdhkdPayload>) {
          w.u64(p.public_key).u64(p.salt);
        } else if constexpr (std::is_same_v<T, PortKeyPayload>) {
          w.u16(p.port.value).u16(p.peer.value);
        } else if constexpr (std::is_same_v<T, AlertPayload>) {
          w.u32(p.context).u16(p.observed_seq).u16(p.expected_seq).u32(p.detail);
        }
      },
      payload);
}

[[maybe_unused]] bool payload_matches_type(const Message& m) {
  switch (m.header.hdr_type) {
    case HdrType::RegisterOp: return std::holds_alternative<RegisterOpPayload>(m.payload);
    case HdrType::Alert: return std::holds_alternative<AlertPayload>(m.payload);
    case HdrType::DpData: return std::holds_alternative<DpDataPayload>(m.payload);
    case HdrType::KeyExchange:
      switch (static_cast<KeyExchMsg>(m.header.msg_type)) {
        case KeyExchMsg::EakExch: return std::holds_alternative<EakPayload>(m.payload);
        case KeyExchMsg::InitKeyExch:
        case KeyExchMsg::UpdKeyExch: return std::holds_alternative<AdhkdPayload>(m.payload);
        case KeyExchMsg::PortKeyInit:
        case KeyExchMsg::PortKeyUpdate: return std::holds_alternative<PortKeyPayload>(m.payload);
      }
      return false;
  }
  return false;
}

}  // namespace

Bytes encode(const Message& message) {
  Bytes out;
  encode_into(message, out);
  return out;
}

void encode_into(const Message& message, Bytes& out) {
  assert(payload_matches_type(message));
  out.resize(encoded_size(message.payload));  // exact: header included
  ScratchWriter w(out.data());
  write_header(w, message.header);
  write_fixed_payload(w, message.payload);
  if (const auto* dp = std::get_if<DpDataPayload>(&message.payload); dp && !dp->inner.empty()) {
    std::memcpy(out.data() + w.written(), dp->inner.data(), dp->inner.size());
  }
}

Result<Header> decode_header(std::span<const std::uint8_t> frame) {
  if (frame.size() < kHeaderSize) return make_error("p4auth frame truncated");
  if (!looks_like_p4auth(frame)) return make_error("unknown hdrType");
  // Direct loads in write_header's field order: every DpData frame is
  // parsed here on every hop.
  const std::uint8_t* p = frame.data();
  const auto u16_at = [p](std::size_t at) {
    return static_cast<std::uint16_t>((p[at] << 8) | p[at + 1]);
  };
  Header h;
  h.hdr_type = static_cast<HdrType>(p[0]);
  h.msg_type = p[1];
  h.seq_num = u16_at(2);
  h.key_version = KeyVersion{p[4]};
  h.flags = p[5];
  h.src = NodeId{u16_at(6)};
  h.dst = NodeId{u16_at(8)};
  h.digest = read_digest(frame);
  return h;
}

Result<Message> decode(std::span<const std::uint8_t> frame) {
  auto header = decode_header(frame);
  if (!header.ok()) return header.error();
  const Header& h = header.value();
  ByteReader r(frame.subspan(kHeaderSize));

  Message m;
  m.header = h;
  switch (h.hdr_type) {
    case HdrType::RegisterOp: {
      if (h.msg_type < 1 || h.msg_type > 4) return make_error("unknown register msgType");
      if (r.remaining() < 16) return make_error("registerOp payload truncated");
      RegisterOpPayload p;
      p.reg_id = RegisterId{r.u32()};
      p.index = r.u32();
      p.value = r.u64();
      m.payload = p;
      break;
    }
    case HdrType::KeyExchange: {
      switch (static_cast<KeyExchMsg>(h.msg_type)) {
        case KeyExchMsg::EakExch: {
          if (r.remaining() < 8) return make_error("eak payload truncated");
          m.payload = EakPayload{r.u64()};
          break;
        }
        case KeyExchMsg::InitKeyExch:
        case KeyExchMsg::UpdKeyExch: {
          if (r.remaining() < 16) return make_error("adhkd payload truncated");
          AdhkdPayload p;
          p.public_key = r.u64();
          p.salt = r.u64();
          m.payload = p;
          break;
        }
        case KeyExchMsg::PortKeyInit:
        case KeyExchMsg::PortKeyUpdate: {
          if (r.remaining() < 4) return make_error("portKey payload truncated");
          PortKeyPayload p;
          p.port = PortId{r.u16()};
          p.peer = NodeId{r.u16()};
          m.payload = p;
          break;
        }
        default:
          return make_error("unknown keyExchange msgType");
      }
      break;
    }
    case HdrType::Alert: {
      if (h.msg_type < 1 || h.msg_type > 5) return make_error("unknown alert msgType");
      if (r.remaining() < 12) return make_error("alert payload truncated");
      AlertPayload p;
      p.context = r.u32();
      p.observed_seq = r.u16();
      p.expected_seq = r.u16();
      p.detail = r.u32();
      m.payload = p;
      break;
    }
    case HdrType::DpData: {
      DpDataPayload p;
      // Copy the remainder once into the owned payload (the Message
      // outlives the frame).
      const auto rest = r.view(r.remaining());
      p.inner.assign(rest.begin(), rest.end());
      m.payload = std::move(p);
      break;
    }
  }
  if (!r.exhausted()) return make_error("p4auth frame has trailing bytes");
  return m;
}

void write_digest(std::span<std::uint8_t> frame, Digest32 digest) noexcept {
  ScratchWriter(frame.data() + kDigestOffset).u32(digest);
}

std::size_t encoded_size(const Payload& payload) noexcept {
  return kHeaderSize + std::visit(
                           [](const auto& p) -> std::size_t {
                             using T = std::decay_t<decltype(p)>;
                             if constexpr (std::is_same_v<T, RegisterOpPayload>) return 16;
                             if constexpr (std::is_same_v<T, EakPayload>) return 8;
                             if constexpr (std::is_same_v<T, AdhkdPayload>) return 16;
                             if constexpr (std::is_same_v<T, PortKeyPayload>) return 4;
                             if constexpr (std::is_same_v<T, AlertPayload>) return 12;
                             if constexpr (std::is_same_v<T, DpDataPayload>) return p.inner.size();
                           },
                           payload);
}

}  // namespace p4auth::core

// P4Auth wire format (paper Fig. 7).
//
// Every protocol message is a 14-byte p4auth_h header followed by a typed
// payload:
//
//   hdrType(1) msgType(1) seqNum(2) keyVersion(1) flags(1)
//   srcId(2) dstId(2) digest(4)
//
// digest = HMAC_K(p4auth_h-without-digest || payload)   (Eqn. 4)
//
// digest_cover() is the only definition of that input: it names the
// covered bytes of an encoded frame, frame[0, kDigestOffset) and
// frame[kHeaderSize, end). Every tag is "encode, then seal the frame in
// place" and every verify runs over the frame as received (core/auth.hpp
// for software ends, the agent's extern for the data plane), so the
// digest always covers the bytes on the wire, never a re-encoding.
//
// Message sizes are load-bearing: they reproduce Table III's byte counts
// (EAK leg 22 B, ADHKD leg 30 B, portKeyInit/Update 18 B; local key init
// = 2x22 + 2x30 = 104 B, etc.). Do not resize fields casually.
#pragma once

#include <cstdint>
#include <span>
#include <variant>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/types.hpp"

namespace p4auth::core {

enum class HdrType : std::uint8_t {
  RegisterOp = 1,   ///< C-DP register read/write request/response
  KeyExchange = 2,  ///< KMP messages (EAK / ADHKD / port-key control)
  Alert = 3,        ///< DP -> C detection alert
  DpData = 4,       ///< authenticated DP-DP in-network feedback carrier
};

enum class RegisterMsg : std::uint8_t { ReadReq = 1, WriteReq = 2, Ack = 3, NAck = 4 };

enum class KeyExchMsg : std::uint8_t {
  EakExch = 1,        ///< EAK salt exchange leg (local-key bootstrap)
  InitKeyExch = 2,    ///< ADHKD leg during key *initialization*
  UpdKeyExch = 3,     ///< ADHKD leg during key *update*
  PortKeyInit = 4,    ///< C -> DP: begin port-key init for a port
  PortKeyUpdate = 5,  ///< C -> DP: begin port-key update for a port
};

enum class AlertMsg : std::uint8_t {
  DigestMismatch = 1,
  ReplayDetected = 2,
  UnknownRegister = 3,
  RateLimited = 4,
  MissingAuth = 5,  ///< protected in-network message arrived untagged
};

/// Header flag bits.
inline constexpr std::uint8_t kFlagResponse = 0x01;   ///< second leg of an exchange
inline constexpr std::uint8_t kFlagPortScope = 0x02;  ///< exchange concerns a port key
inline constexpr std::uint8_t kFlagEncrypted = 0x04;  ///< DpData payload is encrypted (§XI)

struct Header {
  HdrType hdr_type{};
  std::uint8_t msg_type = 0;
  std::uint16_t seq_num = 0;
  KeyVersion key_version{};
  std::uint8_t flags = 0;
  NodeId src{};
  NodeId dst{};
  Digest32 digest = 0;

  bool is_response() const noexcept { return flags & kFlagResponse; }
  bool is_port_scope() const noexcept { return flags & kFlagPortScope; }
  bool is_encrypted() const noexcept { return flags & kFlagEncrypted; }
};

inline constexpr std::size_t kHeaderSize = 14;
/// The digest field occupies frame[kDigestOffset, kHeaderSize); every
/// header byte ahead of it is covered by the digest.
inline constexpr std::size_t kDigestOffset = 10;

/// Register read/write request/response body (readReq/writeReq/ack/nAck).
/// `value` is the write value in writeReq and the read result in ack.
struct RegisterOpPayload {
  RegisterId reg_id{};
  std::uint32_t index = 0;
  std::uint64_t value = 0;
  friend bool operator==(const RegisterOpPayload&, const RegisterOpPayload&) = default;
};

/// EAK salt leg (S1 or S2).
struct EakPayload {
  std::uint64_t salt = 0;
  friend bool operator==(const EakPayload&, const EakPayload&) = default;
};

/// ADHKD leg: modified-DH public key plus a salt (PK1/S1 or PK2/S2).
struct AdhkdPayload {
  std::uint64_t public_key = 0;
  std::uint64_t salt = 0;
  friend bool operator==(const AdhkdPayload&, const AdhkdPayload&) = default;
};

/// portKeyInit / portKeyUpdate control body: which local port, which peer.
struct PortKeyPayload {
  PortId port{};
  NodeId peer{};
  friend bool operator==(const PortKeyPayload&, const PortKeyPayload&) = default;
};

/// Alert detail: what was detected and where.
struct AlertPayload {
  std::uint32_t context = 0;       ///< regId / port / peer, code-dependent
  std::uint16_t observed_seq = 0;
  std::uint16_t expected_seq = 0;
  std::uint32_t detail = 0;
  friend bool operator==(const AlertPayload&, const AlertPayload&) = default;
};

/// Authenticated opaque carrier for DP-DP in-network feedback messages
/// (e.g. a HULA probe rides inside).
struct DpDataPayload {
  Bytes inner;
  friend bool operator==(const DpDataPayload&, const DpDataPayload&) = default;
};

using Payload = std::variant<RegisterOpPayload, EakPayload, AdhkdPayload, PortKeyPayload,
                             AlertPayload, DpDataPayload>;

struct Message {
  Header header;
  Payload payload;
};

/// Serializes header + payload. The payload alternative must agree with
/// header.hdr_type / msg_type (checked by assert in debug builds).
Bytes encode(const Message& message);

/// Serializes into `out`, resized once to the exact encoded size and
/// overwritten whole. Reusing a buffer with that much capacity (a pooled
/// one, or the request a reply answers) keeps the path allocation-free.
void encode_into(const Message& message, Bytes& out);

/// Parses a frame. Fails on truncation, unknown types, or a payload
/// alternative that does not match the header.
Result<Message> decode(std::span<const std::uint8_t> frame);

/// Parses only the 14-byte header (decode's own header parser). Fails on
/// a short frame or an unknown hdrType; the payload is not looked at. A
/// DpData frame needs nothing more: its payload is frame[kHeaderSize..).
Result<Header> decode_header(std::span<const std::uint8_t> frame);

/// True when the frame plausibly starts with a p4auth header (used by the
/// agent to separate protocol frames from plain traffic).
inline bool looks_like_p4auth(std::span<const std::uint8_t> frame) noexcept {
  return frame.size() >= kHeaderSize && frame[0] >= 1 && frame[0] <= 4;
}

/// The bytes an encoded frame's digest covers (Eqn. 4), as two views
/// into the frame: `head` is the header ahead of the digest field,
/// `tail` the payload (empty for a DpData frame with no inner bytes).
struct DigestCover {
  std::span<const std::uint8_t> head;
  std::span<const std::uint8_t> tail;
  std::size_t size() const noexcept { return head.size() + tail.size(); }
};

/// The digest seam. Requires frame.size() >= kHeaderSize. Eqn. 4: the
/// digest covers p4auth_h *excluding the digest field* plus the payload.
/// The digest occupies the header's last 4 bytes, so they are skipped
/// rather than hashed as zeros.
inline DigestCover digest_cover(std::span<const std::uint8_t> frame) noexcept {
  return DigestCover{frame.first(kDigestOffset), frame.subspan(kHeaderSize)};
}

/// Reads / overwrites the digest field of an encoded frame in place.
/// Both require frame.size() >= kHeaderSize.
inline Digest32 read_digest(std::span<const std::uint8_t> frame) noexcept {
  const std::uint8_t* p = frame.data() + kDigestOffset;
  return (Digest32{p[0]} << 24) | (Digest32{p[1]} << 16) | (Digest32{p[2]} << 8) | p[3];
}
void write_digest(std::span<std::uint8_t> frame, Digest32 digest) noexcept;

/// Total encoded size of a message carrying this payload.
std::size_t encoded_size(const Payload& payload) noexcept;

}  // namespace p4auth::core

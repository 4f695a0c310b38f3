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
// Message sizes are load-bearing: they reproduce Table III's byte counts
// (EAK leg 22 B, ADHKD leg 30 B, portKeyInit/Update 18 B; local key init
// = 2x22 + 2x30 = 104 B, etc.). Do not resize fields casually.
#pragma once

#include <array>
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

/// Serializes into `out` (cleared first, exact-size reserve). Reusing a
/// pooled buffer here keeps the tag-and-emit path allocation-free.
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
bool looks_like_p4auth(std::span<const std::uint8_t> frame) noexcept;

/// The digest's input: header with digest zeroed, followed by the payload
/// (Eqn. 4 — digest covers both header groups).
Bytes digest_input(const Message& message);

/// Stack scratch for the copy-free digest input: 10 header bytes (sans
/// digest) plus the largest fixed payload (16 B), rounded up.
using DigestScratch = std::array<std::uint8_t, 32>;

/// The digest input as two spans. `head` points into the caller's
/// scratch (header sans digest, plus fixed payload fields); `tail`
/// borrows a variable-length payload (DpData inner) and is empty
/// otherwise. Valid only while the scratch and the message both live.
struct DigestView {
  std::span<const std::uint8_t> head;
  std::span<const std::uint8_t> tail;
  std::size_t size() const noexcept { return head.size() + tail.size(); }
};

/// Builds the digest input in `scratch` without heap allocation —
/// feed the two spans to the matching crypto::compute_digest overload.
DigestView digest_input_into(const Message& message, DigestScratch& scratch) noexcept;

/// Total encoded size of a message carrying this payload.
std::size_t encoded_size(const Payload& payload) noexcept;

}  // namespace p4auth::core

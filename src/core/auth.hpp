// Frame sealing and verification (the paper's authentication protocol,
// §V): attach/check the HMAC digest of an encoded frame under a shared
// secret key. The digest covers exactly core::digest_cover(frame).
#pragma once

#include "core/wire.hpp"
#include "crypto/mac.hpp"

namespace p4auth::core {

/// Computes the digest over the frame's covered bytes and writes it into
/// the frame's digest field. Requires frame.size() >= kHeaderSize.
void seal_frame(crypto::MacKind mac, Key64 key, std::span<std::uint8_t> frame);

/// Recomputes the digest over the frame as received and compares it with
/// the carried one. Requires frame.size() >= kHeaderSize.
bool verify_frame(crypto::MacKind mac, Key64 key, std::span<const std::uint8_t> frame);

}  // namespace p4auth::core

#include "core/auth.hpp"

namespace p4auth::core {

void seal_frame(crypto::MacKind mac, Key64 key, std::span<std::uint8_t> frame) {
  const DigestCover cover = digest_cover(frame);
  write_digest(frame, crypto::compute_digest(mac, key, cover.head, cover.tail));
}

bool verify_frame(crypto::MacKind mac, Key64 key, std::span<const std::uint8_t> frame) {
  const DigestCover cover = digest_cover(frame);
  return crypto::verify_digest(mac, key, cover.head, cover.tail, read_digest(frame));
}

}  // namespace p4auth::core

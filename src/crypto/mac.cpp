#include "crypto/mac.hpp"

#include <algorithm>
#include <array>

#include "crypto/crc32.hpp"
#include "crypto/halfsiphash.hpp"
#include "crypto/halfsiphash_lanes.hpp"

namespace p4auth::crypto {

Digest32 compute_digest(MacKind kind, Key64 key, std::span<const std::uint8_t> data) noexcept {
  switch (kind) {
    case MacKind::HalfSipHash24:
      return halfsiphash(key, data, kHalfSipHash24);
    case MacKind::HalfSipHash13:
      return halfsiphash(key, data, kHalfSipHash13);
    case MacKind::Crc32Envelope: {
      Crc32 crc;
      crc.update_u64(key);
      crc.update(data);
      crc.update_u64(key);
      return crc.final();
    }
  }
  return 0;  // unreachable
}

bool verify_digest(MacKind kind, Key64 key, std::span<const std::uint8_t> data,
                   Digest32 tag) noexcept {
  return compute_digest(kind, key, data) == tag;
}

Digest32 compute_digest(MacKind kind, Key64 key, std::span<const std::uint8_t> head,
                        std::span<const std::uint8_t> tail) noexcept {
  switch (kind) {
    case MacKind::HalfSipHash24:
      return halfsiphash(key, head, tail, kHalfSipHash24);
    case MacKind::HalfSipHash13:
      return halfsiphash(key, head, tail, kHalfSipHash13);
    case MacKind::Crc32Envelope: {
      Crc32 crc;
      crc.update_u64(key);
      crc.update(head);
      crc.update(tail);
      crc.update_u64(key);
      return crc.final();
    }
  }
  return 0;  // unreachable
}

bool verify_digest(MacKind kind, Key64 key, std::span<const std::uint8_t> head,
                   std::span<const std::uint8_t> tail, Digest32 tag) noexcept {
  return compute_digest(kind, key, head, tail) == tag;
}

void compute_digest(MacKind kind, std::span<const DigestJob> jobs,
                    std::span<Digest32> out) noexcept {
  switch (kind) {
    case MacKind::HalfSipHash24:
    case MacKind::HalfSipHash13: {
      // DigestJob is the lane-kernel job type, so the batch goes to the
      // SIMD dispatcher as-is; it splits the batch into lane groups and
      // masks ragged tails internally.
      const SipRounds rounds =
          kind == MacKind::HalfSipHash24 ? kHalfSipHash24 : kHalfSipHash13;
      halfsiphash_lanes(jobs, out, rounds);
      break;
    }
    case MacKind::Crc32Envelope:
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        out[i] = compute_digest(kind, jobs[i].key, jobs[i].head, jobs[i].tail);
      }
      break;
  }
}

}  // namespace p4auth::crypto

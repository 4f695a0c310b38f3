// The `compute_digest` extern (paper §VII): the data plane's entry point
// into keyed hashing. On BMv2 the paper implements HalfSipHash as an
// extern function; on Tofino it uses the native CRC32 units. This wrapper
// binds the crypto primitive to the pipeline cost model so every digest
// operation is billed to the packet being processed.
#pragma once

#include <span>

#include "common/types.hpp"
#include "crypto/mac.hpp"
#include "dataplane/packet.hpp"

namespace p4auth::dataplane {

class DigestExtern {
 public:
  explicit DigestExtern(crypto::MacKind kind) noexcept : kind_(kind) {}

  crypto::MacKind kind() const noexcept { return kind_; }

  /// The tag of `head || tail`, billed to the packet. The P4Auth agent
  /// passes an encoded frame's core::digest_cover spans.
  Digest32 compute(Key64 key, std::span<const std::uint8_t> head,
                   std::span<const std::uint8_t> tail, PacketCosts& costs) const noexcept {
    costs.add_hash(head.size() + tail.size());
    return crypto::compute_digest(kind_, key, head, tail);
  }

  bool verify(Key64 key, std::span<const std::uint8_t> head,
              std::span<const std::uint8_t> tail, Digest32 tag,
              PacketCosts& costs) const noexcept {
    costs.add_hash(head.size() + tail.size());
    return crypto::verify_digest(kind_, key, head, tail, tag);
  }

  /// Within-pass batch: one packet hashing `jobs.size()` of its own
  /// inputs as a multi-lane group. Each job bills one hash call at the
  /// group's lane width, which the conformance auditor diffs against the
  /// program's declared HashUse::lanes.
  void compute_batch(std::span<const crypto::DigestJob> jobs, std::span<Digest32> out,
                     PacketCosts& costs) const noexcept {
    const int lanes = static_cast<int>(jobs.size());
    for (const auto& job : jobs) costs.add_hash(job.head.size() + job.tail.size(), lanes);
    crypto::compute_digest(kind_, jobs, out);
  }

 private:
  crypto::MacKind kind_;
};

}  // namespace p4auth::dataplane

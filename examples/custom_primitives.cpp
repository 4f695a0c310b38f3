// Pluggable primitives (§XI): P4Auth is a framework — the digest MAC, the
// KDF's PRF, and the key exchange are swappable. This example runs the
// same stack under the BMv2-analog profile (HalfSipHash digests, CRC32
// PRF) and the Tofino-analog profile (CRC32 everywhere), and prints the
// resource cost of upgrading digest width.
//
// Build & run:  cmake --build build && ./build/examples/custom_primitives
#include <cstdio>

#include "core/agent.hpp"
#include "core/auth.hpp"
#include "core/protocol.hpp"
#include "dataplane/resources.hpp"

using namespace p4auth;

namespace {

/// Runs one EAK+ADHKD key schedule and one tagged message under a given
/// crypto profile, entirely in memory.
void demonstrate_profile(const char* name, crypto::MacKind mac, crypto::PrfKind prf) {
  core::KeySchedule schedule;
  schedule.kdf = crypto::Kdf(prf, 1);

  Xoshiro256 controller_rng(1), switch_rng(2);
  const Key64 k_seed = 0x5EED;

  // EAK: derive the authentication key.
  core::EakInitiator eak(schedule, k_seed);
  const auto salt1 = eak.start(controller_rng);
  const auto eak_response = core::eak_respond(schedule, k_seed, salt1, switch_rng);
  const Key64 k_auth = eak.finish(eak_response.reply);

  // ADHKD: derive the master secret.
  core::AdhkdInitiator adhkd(schedule);
  const auto leg1 = adhkd.start(controller_rng);
  const auto adhkd_response = core::adhkd_respond(schedule, leg1, switch_rng);
  const Key64 k_local = adhkd.finish(adhkd_response.reply);

  // Authenticate a register write under the derived key.
  core::Message msg;
  msg.header.hdr_type = core::HdrType::RegisterOp;
  msg.header.msg_type = static_cast<std::uint8_t>(core::RegisterMsg::WriteReq);
  msg.payload = core::RegisterOpPayload{RegisterId{42}, 0, 1234};
  Bytes frame = core::encode(msg);
  core::seal_frame(mac, k_local, frame);

  std::printf("%-24s k_auth=%016llx k_local=%016llx digest=%08x verified=%s\n", name,
              static_cast<unsigned long long>(k_auth),
              static_cast<unsigned long long>(k_local), core::read_digest(frame),
              core::verify_frame(mac, k_local, frame) ? "yes" : "no");
  if (k_local != adhkd_response.master) std::printf("  !! key disagreement\n");
}

}  // namespace

int main() {
  std::printf("crypto profiles (§XI pluggable primitives):\n");
  demonstrate_profile("bmv2 (HalfSipHash/CRC)", crypto::MacKind::HalfSipHash24,
                      crypto::PrfKind::Crc32);
  demonstrate_profile("tofino (CRC32 only)", crypto::MacKind::Crc32Envelope,
                      crypto::PrfKind::Crc32);
  demonstrate_profile("hardened (SipHash PRF)", crypto::MacKind::HalfSipHash24,
                      crypto::PrfKind::HalfSipHash24);

  std::printf("\nresource price of wider digests (one digest instance):\n");
  for (const int lanes : {1, 2, 4, 8}) {
    const auto use = dataplane::HashUse::halfsiphash("digest", 22, lanes);
    std::printf("  %3d-bit digest: %3d hash units, %d stages\n", 32 * lanes, use.units(),
                use.stages());
  }
  std::printf("\nA cheaper MAC (HalfSipHash-1-3) is also available for targets\n");
  std::printf("with tight stage budgets; see crypto::MacKind::HalfSipHash13.\n");
  return 0;
}

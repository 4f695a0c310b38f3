#include "attacks/link_mitm.hpp"

#include <gtest/gtest.h>

#include "common/alloc_probe.hpp"
#include "core/auth.hpp"

namespace p4auth::attacks {
namespace {

namespace hula = apps::hula;

constexpr Key64 kPortKey = 0xFEEDFACE0000BEEFull;

Bytes raw_probe(std::uint8_t util) {
  hula::Probe probe;
  probe.origin_tor = NodeId{5};
  probe.max_util = util;
  probe.trace = {{NodeId{5}, PortId{0}, 0}, {NodeId{4}, PortId{2}, util}};
  return hula::encode_probe(probe);
}

Bytes wrap(Bytes probe) {
  core::Message msg;
  msg.header.hdr_type = core::HdrType::DpData;
  msg.header.msg_type = 1;
  msg.header.seq_num = 3;
  msg.header.src = NodeId{4};
  msg.header.dst = NodeId{1};
  msg.payload = core::DpDataPayload{std::move(probe)};
  Bytes frame = core::encode(msg);
  core::seal_frame(crypto::MacKind::HalfSipHash24, kPortKey, frame);
  return frame;
}

Bytes wrapped_probe(std::uint8_t util) { return wrap(raw_probe(util)); }

/// A three-hop probe and its bytes after a rewrite to util 10.
Bytes multi_hop_probe() {
  hula::Probe probe;
  probe.origin_tor = NodeId{5};
  probe.max_util = 200;
  probe.trace = {{NodeId{5}, PortId{0}, 0}, {NodeId{4}, PortId{2}, 128}, {NodeId{3}, PortId{1}, 200}};
  return hula::encode_probe(probe);
}
const Bytes kForgedMultiHop = {0x48, 0x00, 0x05, 10, 3,                          // magic, tor, util, hops
                               0x00, 0x05, 0x00, 0x00, 0, 0, 0x00, 0x00,        // S5 at util 0
                               0x00, 0x04, 0x00, 0x02, 10, 0, 0x00, 0x00,       // S4 clamped
                               0x00, 0x03, 0x00, 0x01, 10, 0, 0x00, 0x00};      // S3 clamped

TEST(ProbeUtilRewriter, ForgesRawProbe) {
  auto hook = make_probe_util_rewriter(10);
  Bytes frame = raw_probe(128);
  EXPECT_EQ(hook(frame), netsim::TamperVerdict::Pass);
  const auto probe = hula::decode_probe(frame);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.value().max_util, 10);
  for (const auto& hop : probe.value().trace) EXPECT_LE(hop.util, 10);
}

TEST(ProbeUtilRewriter, ForgesWrappedProbeButStalesDigest) {
  auto hook = make_probe_util_rewriter(10);
  Bytes frame = wrapped_probe(128);
  EXPECT_EQ(hook(frame), netsim::TamperVerdict::Pass);
  const auto msg = core::decode(frame);
  ASSERT_TRUE(msg.ok());
  const auto probe =
      hula::decode_probe(std::get<core::DpDataPayload>(msg.value().payload).inner);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.value().max_util, 10);
  // Without the port key the rewritten frame cannot carry a valid digest.
  EXPECT_FALSE(core::verify_frame(crypto::MacKind::HalfSipHash24, kPortKey, frame));
}

TEST(ProbeUtilRewriter, RewritesMultiHopProbesInPlace) {
  auto hook = make_probe_util_rewriter(10);
  Bytes raw = multi_hop_probe();
  hook(raw);
  EXPECT_EQ(raw, kForgedMultiHop);

  // Carried: the header, stale digest included, is left byte for byte.
  const Bytes original = wrap(multi_hop_probe());
  Bytes carried = original;
  hook(carried);
  ASSERT_EQ(carried.size(), original.size());
  EXPECT_EQ(Bytes(carried.begin(), carried.begin() + core::kHeaderSize),
            Bytes(original.begin(), original.begin() + core::kHeaderSize));
  EXPECT_EQ(Bytes(carried.begin() + core::kHeaderSize, carried.end()), kForgedMultiHop);
}

TEST(ProbeUtilRewriter, LeavesNonProbesAlone) {
  auto hook = make_probe_util_rewriter(10);
  Bytes frame = {0x44, 1, 2, 3};  // HULA data magic
  const Bytes original = frame;
  hook(frame);
  EXPECT_EQ(frame, original);
}

TEST(ProbeStripAndForge, RemovesAuthentication) {
  auto hook = make_probe_strip_and_forge(10);
  Bytes frame = wrapped_probe(128);
  EXPECT_EQ(hook(frame), netsim::TamperVerdict::Pass);
  // The frame is now a bare probe — no p4auth framing at all.
  const auto probe = hula::decode_probe(frame);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.value().max_util, 10);
}

TEST(ProbeStripAndForge, StripsMultiHopProbeHeaderInPlace) {
  auto hook = make_probe_strip_and_forge(10);
  Bytes carried = wrap(multi_hop_probe());
  hook(carried);
  EXPECT_EQ(carried, kForgedMultiHop);
  Bytes raw = multi_hop_probe();
  hook(raw);
  EXPECT_EQ(raw, kForgedMultiHop);
}

TEST(LinkMitmAlloc, WarmedRewritesDoNotAllocate) {
  ASSERT_TRUE(AllocProbe::active());
  auto rewriter = make_probe_util_rewriter(10);
  auto stripper = make_probe_strip_and_forge(10);
  const Bytes raw = multi_hop_probe();
  const Bytes carried = wrap(multi_hop_probe());
  // Warm-up: each hook's scratch probe grows its trace once.
  Bytes warm = raw;
  rewriter(warm);
  warm = raw;
  stripper(warm);

  Bytes a = raw, b = carried, c = raw, d = carried;
  AllocProbe::reset();
  rewriter(a);
  rewriter(b);
  stripper(c);
  stripper(d);
  const std::uint64_t allocations = AllocProbe::allocations();
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(a, kForgedMultiHop);
  EXPECT_EQ(d, kForgedMultiHop);
}

TEST(ProbeDropper, DropsProbesOnly) {
  auto hook = make_probe_dropper();
  Bytes wrapped = wrapped_probe(50);
  EXPECT_EQ(hook(wrapped), netsim::TamperVerdict::Drop);
  Bytes raw = raw_probe(50);
  EXPECT_EQ(hook(raw), netsim::TamperVerdict::Drop);
  Bytes data = {0x44, 1, 2, 3};
  EXPECT_EQ(hook(data), netsim::TamperVerdict::Pass);
}

}  // namespace
}  // namespace p4auth::attacks

// Lane-equivalence suite: every multi-lane backend must be bit-identical
// to the scalar HalfSipHash reference for every (key, head, tail, rounds)
// input — randomized lengths, all lane counts 0..2*kMaxSipLanes, every
// two-span split point, and ragged groups mixing message lengths.
#include "crypto/halfsiphash_lanes.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/halfsiphash.hpp"
#include "crypto/mac.hpp"

namespace p4auth::crypto {
namespace {

std::vector<std::uint8_t> random_bytes(Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  return bytes;
}

std::vector<SipLaneBackend> available_backends() {
  std::vector<SipLaneBackend> backends;
  for (SipLaneBackend candidate :
       {SipLaneBackend::Portable, SipLaneBackend::Avx2, SipLaneBackend::Avx512}) {
    if (force_sip_lane_backend(candidate)) backends.push_back(candidate);
  }
  reset_sip_lane_backend();
  return backends;
}

class LaneBackendSweep : public ::testing::TestWithParam<SipLaneBackend> {
 protected:
  void SetUp() override {
    if (!force_sip_lane_backend(GetParam())) {
      GTEST_SKIP() << "backend " << sip_lane_backend_name(GetParam())
                   << " not supported on this host";
    }
  }
  void TearDown() override { reset_sip_lane_backend(); }
};

TEST_P(LaneBackendSweep, MatchesScalarOverRandomizedLengthsAndLaneCounts) {
  Xoshiro256 rng(0xC0FFEE ^ static_cast<std::uint64_t>(GetParam()));
  for (SipRounds rounds : {kHalfSipHash24, kHalfSipHash13}) {
    for (std::size_t lanes = 0; lanes <= 2 * kMaxSipLanes; ++lanes) {
      std::vector<std::vector<std::uint8_t>> messages;
      std::vector<std::uint64_t> keys;
      for (std::size_t i = 0; i < lanes; ++i) {
        messages.push_back(random_bytes(rng, rng.next_below(128)));
        keys.push_back(rng.next_u64());
      }
      std::vector<SipLaneJob> jobs;
      for (std::size_t i = 0; i < lanes; ++i) {
        jobs.push_back(SipLaneJob{keys[i], messages[i], {}});
      }
      std::vector<std::uint32_t> out(lanes, 0);
      halfsiphash_lanes(jobs, out, rounds);
      for (std::size_t i = 0; i < lanes; ++i) {
        EXPECT_EQ(out[i], halfsiphash(keys[i], messages[i], rounds))
            << "lanes=" << lanes << " lane=" << i << " len=" << messages[i].size();
      }
    }
  }
}

TEST_P(LaneBackendSweep, MatchesScalarTwoSpanAtEverySplitPoint) {
  Xoshiro256 rng(0xBEEF ^ static_cast<std::uint64_t>(GetParam()));
  const auto message = random_bytes(rng, 61);  // odd length: ragged final block
  const std::uint64_t key = rng.next_u64();
  const std::span<const std::uint8_t> whole(message);
  for (std::size_t split = 0; split <= message.size(); ++split) {
    const auto head = whole.first(split);
    const auto tail = whole.subspan(split);
    const std::array<SipLaneJob, 1> jobs{SipLaneJob{key, head, tail}};
    std::uint32_t out = 0;
    halfsiphash_lanes(jobs, std::span<std::uint32_t>(&out, 1));
    EXPECT_EQ(out, halfsiphash(key, whole)) << "split=" << split;
    EXPECT_EQ(out, halfsiphash(key, head, tail)) << "split=" << split;
  }
}

TEST_P(LaneBackendSweep, RaggedGroupsMixShortAndLongLanes) {
  // Extreme length skew inside one kernel pass: empty messages next to
  // multi-block ones exercises the per-block lane masking.
  Xoshiro256 rng(0xD00D ^ static_cast<std::uint64_t>(GetParam()));
  const std::array<std::size_t, 8> lengths{0, 1, 3, 4, 5, 64, 255, 7};
  std::vector<std::vector<std::uint8_t>> messages;
  std::vector<SipLaneJob> jobs;
  for (std::size_t len : lengths) messages.push_back(random_bytes(rng, len));
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    jobs.push_back(SipLaneJob{0x1111 * (i + 1), messages[i], {}});
  }
  std::vector<std::uint32_t> out(jobs.size(), 0);
  halfsiphash_lanes(jobs, out, kHalfSipHash24);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(out[i], halfsiphash(jobs[i].key, messages[i], kHalfSipHash24)) << "lane " << i;
  }
}

TEST_P(LaneBackendSweep, TwoSpanJobsWithRandomSplitsAcrossManyGroups) {
  Xoshiro256 rng(0xABCD ^ static_cast<std::uint64_t>(GetParam()));
  constexpr std::size_t kJobs = 37;  // several full groups + a ragged final one
  std::vector<std::vector<std::uint8_t>> buffers;
  std::vector<SipLaneJob> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    buffers.push_back(random_bytes(rng, rng.next_below(96)));
  }
  for (std::size_t i = 0; i < kJobs; ++i) {
    const std::span<const std::uint8_t> whole(buffers[i]);
    const std::size_t split = whole.empty() ? 0 : rng.next_below(whole.size() + 1);
    jobs.push_back(SipLaneJob{rng.next_u64(), whole.first(split), whole.subspan(split)});
  }
  std::vector<std::uint32_t> out(kJobs, 0);
  halfsiphash_lanes(jobs, out, kHalfSipHash13);
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(out[i], halfsiphash(jobs[i].key, jobs[i].head, jobs[i].tail, kHalfSipHash13))
        << "job " << i;
  }
}

TEST_P(LaneBackendSweep, LongMessagesTakeTheScalarPathInMixedGroups) {
  // Lengths straddle the 512-byte staging limit, so a group holding a
  // long message (hashed by the scalar reference) sits next to groups
  // that stay on the lane kernel. Each rotation gives every length a
  // turn in every lane position, including alone as the single job.
  Xoshiro256 rng(0x10A6 ^ static_cast<std::uint64_t>(GetParam()));
  const std::array<std::size_t, 6> lengths{0, 90, 511, 512, 513, 1500};
  const std::size_t width = sip_lane_width(GetParam());
  for (std::size_t count : {std::size_t{1}, width, 2 * width + 1}) {
    for (std::size_t rotation = 0; rotation < lengths.size(); ++rotation) {
      std::vector<std::vector<std::uint8_t>> buffers;
      std::vector<SipLaneJob> jobs;
      for (std::size_t i = 0; i < count; ++i) {
        buffers.push_back(random_bytes(rng, lengths[(i + rotation) % lengths.size()]));
      }
      for (std::size_t i = 0; i < count; ++i) {
        const std::span<const std::uint8_t> whole(buffers[i]);
        const std::size_t split = rng.next_below(whole.size() + 1);
        jobs.push_back(SipLaneJob{rng.next_u64(), whole.first(split), whole.subspan(split)});
      }
      std::vector<std::uint32_t> out(count, 0);
      halfsiphash_lanes(jobs, out);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(out[i], halfsiphash(jobs[i].key, buffers[i]))
            << "count=" << count << " rotation=" << rotation << " job " << i
            << " len=" << buffers[i].size();
      }
    }
  }
}

TEST_P(LaneBackendSweep, SingleJobEqualsScalar) {
  // One job takes the scalar reference on every backend.
  Xoshiro256 rng(0x51E ^ static_cast<std::uint64_t>(GetParam()));
  for (SipRounds rounds : {kHalfSipHash24, kHalfSipHash13}) {
    for (std::size_t len : {0, 1, 10, 64, 103, 600}) {
      const auto message = random_bytes(rng, len);
      const std::span<const std::uint8_t> whole(message);
      const std::size_t split = rng.next_below(len + 1);
      const std::array<SipLaneJob, 1> jobs{
          SipLaneJob{rng.next_u64(), whole.first(split), whole.subspan(split)}};
      std::uint32_t out = 0;
      halfsiphash_lanes(jobs, std::span<std::uint32_t>(&out, 1), rounds);
      EXPECT_EQ(out, halfsiphash(jobs[0].key, message, rounds)) << "len=" << len;
    }
  }
}

TEST_P(LaneBackendSweep, OneLaneRaggedGroupMatchesScalarAtEverySplitPoint) {
  // width + 1 jobs: a full group, then a kernel pass with one active
  // lane, whose job is split at every point.
  Xoshiro256 rng(0x0E1A ^ static_cast<std::uint64_t>(GetParam()));
  const std::size_t width = sip_lane_width(GetParam());
  const auto message = random_bytes(rng, 61);
  const std::span<const std::uint8_t> whole(message);
  const std::uint64_t key = rng.next_u64();
  std::vector<SipLaneJob> jobs(width + 1, SipLaneJob{rng.next_u64(), whole, {}});
  for (std::size_t split = 0; split <= message.size(); ++split) {
    jobs.back() = SipLaneJob{key, whole.first(split), whole.subspan(split)};
    std::vector<std::uint32_t> out(jobs.size(), 0);
    halfsiphash_lanes(jobs, out);
    EXPECT_EQ(out.back(), halfsiphash(key, whole)) << "split=" << split;
    EXPECT_EQ(out.front(), halfsiphash(jobs.front().key, whole)) << "split=" << split;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, LaneBackendSweep,
    ::testing::ValuesIn(available_backends()),
    [](const ::testing::TestParamInfo<SipLaneBackend>& info) {
      return std::string(sip_lane_backend_name(info.param));
    });

TEST(HalfSipHashLanes, BackendsAgreeWithEachOther) {
  Xoshiro256 rng(0x5EED);
  std::vector<std::vector<std::uint8_t>> messages;
  std::vector<SipLaneJob> jobs;
  for (std::size_t i = 0; i < kMaxSipLanes + 3; ++i) {
    messages.push_back(random_bytes(rng, rng.next_below(80)));
  }
  for (std::size_t i = 0; i < messages.size(); ++i) {
    jobs.push_back(SipLaneJob{rng.next_u64(), messages[i], {}});
  }
  std::vector<std::vector<std::uint32_t>> results;
  for (SipLaneBackend backend : available_backends()) {
    ASSERT_TRUE(force_sip_lane_backend(backend));
    std::vector<std::uint32_t> out(jobs.size(), 0);
    halfsiphash_lanes(jobs, out);
    results.push_back(std::move(out));
  }
  reset_sip_lane_backend();
  ASSERT_FALSE(results.empty());
  for (std::size_t i = 1; i < results.size(); ++i) EXPECT_EQ(results[i], results[0]);
}

TEST(HalfSipHashLanes, ActiveBackendReportsSupportedWidth) {
  const SipLaneBackend backend = active_sip_lane_backend();
  EXPECT_TRUE(sip_lane_width(backend) == 4 || sip_lane_width(backend) == 8 ||
              sip_lane_width(backend) == 16);
  EXPECT_LE(sip_lane_width(backend), kMaxSipLanes);
  EXPECT_STRNE(sip_lane_backend_name(backend), "unknown");
}

TEST(HalfSipHashLanes, ForcingUnsupportedBackendIsRejected) {
  const SipLaneBackend before = active_sip_lane_backend();
  EXPECT_FALSE(force_sip_lane_backend(static_cast<SipLaneBackend>(0xFF)));
  EXPECT_EQ(active_sip_lane_backend(), before);
}

TEST(MacLanes, MultiLaneComputeDigestMatchesScalarForAllKinds) {
  Xoshiro256 rng(0xFACE);
  for (MacKind kind :
       {MacKind::HalfSipHash24, MacKind::HalfSipHash13, MacKind::Crc32Envelope}) {
    std::vector<std::vector<std::uint8_t>> buffers;
    std::vector<DigestJob> jobs;
    for (std::size_t i = 0; i < 21; ++i) buffers.push_back(random_bytes(rng, rng.next_below(64)));
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      const std::span<const std::uint8_t> whole(buffers[i]);
      const std::size_t split = whole.empty() ? 0 : rng.next_below(whole.size() + 1);
      jobs.push_back(DigestJob{rng.next_u64(), whole.first(split), whole.subspan(split)});
    }
    std::vector<Digest32> out(jobs.size(), 0);
    compute_digest(kind, jobs, out);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(out[i], compute_digest(kind, jobs[i].key, jobs[i].head, jobs[i].tail))
          << "kind=" << static_cast<int>(kind) << " job " << i;
    }
  }
}

}  // namespace
}  // namespace p4auth::crypto

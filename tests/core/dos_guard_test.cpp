#include "core/dos_guard.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

namespace p4auth::core {
namespace {

TEST(RateLimiter, AllowsUpToThreshold) {
  RateLimiter limiter(3, SimTime::from_ms(100));
  const SimTime t = SimTime::from_ms(1);
  EXPECT_TRUE(limiter.allow(t));
  EXPECT_TRUE(limiter.allow(t));
  EXPECT_TRUE(limiter.allow(t));
  EXPECT_FALSE(limiter.allow(t));
  EXPECT_EQ(limiter.suppressed(), 1u);
}

TEST(RateLimiter, WindowSlides) {
  RateLimiter limiter(2, SimTime::from_ms(10));
  EXPECT_TRUE(limiter.allow(SimTime::from_ms(0)));
  EXPECT_TRUE(limiter.allow(SimTime::from_ms(1)));
  EXPECT_FALSE(limiter.allow(SimTime::from_ms(5)));
  // First event expired at t=10.
  EXPECT_TRUE(limiter.allow(SimTime::from_ms(10)));
  EXPECT_FALSE(limiter.allow(SimTime::from_ms(10)));
}

TEST(RateLimiter, AlertFloodScenario) {
  // §VIII: an adversary tampering every request triggers an alert per
  // message; the limiter must cap the alert stream, not the detection.
  RateLimiter limiter(64, SimTime::from_ms(100));
  int sent = 0;
  for (int i = 0; i < 10000; ++i) {
    if (limiter.allow(SimTime::from_us(static_cast<std::uint64_t>(i)))) ++sent;
  }
  EXPECT_LE(sent, 64 + 1);
  EXPECT_EQ(limiter.suppressed(), 10000u - static_cast<std::uint64_t>(sent));
}

TEST(OutstandingLedger, MatchesRequestResponse) {
  OutstandingLedger ledger(8);
  ASSERT_TRUE(ledger.on_request(1, SimTime::from_ms(0)).ok());
  ASSERT_TRUE(ledger.on_request(2, SimTime::from_ms(1)).ok());
  EXPECT_EQ(ledger.outstanding(), 2u);
  EXPECT_TRUE(ledger.on_response(1));
  EXPECT_EQ(ledger.outstanding(), 1u);
}

TEST(OutstandingLedger, BoundsInFlightRequests) {
  OutstandingLedger ledger(2);
  ASSERT_TRUE(ledger.on_request(1, {}).ok());
  ASSERT_TRUE(ledger.on_request(2, {}).ok());
  EXPECT_FALSE(ledger.on_request(3, {}).ok());
  EXPECT_TRUE(ledger.on_response(1));
  EXPECT_TRUE(ledger.on_request(3, {}).ok());
}

TEST(OutstandingLedger, ForgedResponsesAreUnmatched) {
  // §VIII second attack: a flood of fabricated responses shows up as
  // responses with no matching request.
  OutstandingLedger ledger(8);
  ASSERT_TRUE(ledger.on_request(5, {}).ok());
  EXPECT_FALSE(ledger.on_response(99));
  EXPECT_FALSE(ledger.on_response(5 + 1));
  EXPECT_EQ(ledger.unmatched_responses(), 2u);
  EXPECT_TRUE(ledger.on_response(5));
  EXPECT_FALSE(ledger.on_response(5));  // duplicate = unmatched
  EXPECT_EQ(ledger.unmatched_responses(), 3u);
}

TEST(OutstandingLedger, DuplicateSeqKeepsTheFirstEntry) {
  // A seq still in flight when the 16-bit counter wraps back to it: the
  // first registration (and its issue time) stands, and one response
  // clears it.
  OutstandingLedger ledger(8);
  ASSERT_TRUE(ledger.on_request(7, SimTime::from_ms(0)).ok());
  ASSERT_TRUE(ledger.on_request(7, SimTime::from_ms(50)).ok());
  EXPECT_EQ(ledger.outstanding(), 1u);
  const auto stale = ledger.unacked_older_than(SimTime::from_ms(30), SimTime::from_ms(20));
  ASSERT_EQ(stale.size(), 1u);  // aged from t=0, not from the re-issue
  EXPECT_EQ(stale[0], 7);
  EXPECT_TRUE(ledger.on_response(7));
  EXPECT_FALSE(ledger.on_response(7));
  EXPECT_EQ(ledger.outstanding(), 0u);
}

TEST(OutstandingLedger, UnackedSeqsComeInIssueOrder) {
  OutstandingLedger ledger(8);
  const std::uint16_t issued[] = {40000, 9, 513, 3, 65535, 77};
  for (std::size_t i = 0; i < std::size(issued); ++i) {
    ASSERT_TRUE(ledger.on_request(issued[i], SimTime::from_ms(i)).ok());
  }
  EXPECT_TRUE(ledger.on_response(3));
  const auto stale = ledger.unacked_older_than(SimTime::from_ms(100), SimTime::from_ms(1));
  EXPECT_EQ(stale, (std::vector<std::uint16_t>{40000, 9, 513, 65535, 77}));
}

TEST(OutstandingLedger, UnackedAging) {
  OutstandingLedger ledger(8);
  ASSERT_TRUE(ledger.on_request(1, SimTime::from_ms(0)).ok());
  ASSERT_TRUE(ledger.on_request(2, SimTime::from_ms(50)).ok());
  const auto stale = ledger.unacked_older_than(SimTime::from_ms(60), SimTime::from_ms(20));
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], 1);
}

TEST(OutstandingLedger, CarriesEachRequestsCompletion) {
  // One list holds the request and its completion: a response hands back
  // the completion of the first entry for its seq; a refused request
  // leaves the completion with the caller.
  OutstandingLedger<std::string> ledger(2);
  std::string first = "first", reissue = "re-issue", other = "other", refused = "refused";
  ASSERT_TRUE(ledger.on_request(7, {}, first).ok());
  ASSERT_TRUE(ledger.on_request(7, {}, reissue).ok());  // seq in flight: dropped
  ASSERT_TRUE(ledger.on_request(8, {}, other).ok());
  EXPECT_FALSE(ledger.on_request(9, {}, refused).ok());
  EXPECT_EQ(refused, "refused");
  EXPECT_EQ(ledger.on_response(8), std::optional<std::string>("other"));
  EXPECT_EQ(ledger.on_response(7), std::optional<std::string>("first"));
  EXPECT_EQ(ledger.on_response(7), std::nullopt);
  EXPECT_EQ(ledger.unmatched_responses(), 1u);
}

}  // namespace
}  // namespace p4auth::core

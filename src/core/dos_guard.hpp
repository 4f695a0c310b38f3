// Denial-of-service mitigations (§VIII):
//  * RateLimiter — the data plane caps alert messages per window so a
//    flood of tampered requests cannot jam the DP->C link with alerts.
//  * OutstandingLedger — the controller bounds in-flight requests and
//    tracks not-yet-acknowledged sequence numbers, so a flood of forged
//    responses is detected (responses without a matching request) and the
//    request/response imbalance threshold can trip. The ledger is a flat
//    vector in issue order, never longer than its bound: a warm ledger
//    registers and matches requests without allocating. Each entry can
//    carry the request's completion, so a caller keeps one list.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace p4auth::core {

class RateLimiter {
 public:
  RateLimiter(std::uint32_t max_events, SimTime window)
      : max_events_(max_events), window_(window) {}

  /// True if an event at `now` is under the threshold (and records it).
  bool allow(SimTime now) {
    while (!events_.empty() && events_.front() + window_ <= now) events_.pop_front();
    if (events_.size() >= max_events_) {
      ++suppressed_;
      return false;
    }
    events_.push_back(now);
    return true;
  }

  std::uint64_t suppressed() const noexcept { return suppressed_; }
  std::size_t in_window() const noexcept { return events_.size(); }

 private:
  std::uint32_t max_events_;
  SimTime window_;
  std::deque<SimTime> events_;
  std::uint64_t suppressed_ = 0;
};

/// The ledger's per-request payload when a caller needs none.
struct NoCompletion {};

/// `Completion` rides with each entry (the controller keeps the callback
/// its answer completes), so one list carries the whole outstanding
/// request.
template <typename Completion = NoCompletion>
class OutstandingLedger {
 public:
  explicit OutstandingLedger(std::size_t max_outstanding)
      : max_outstanding_(max_outstanding) {}

  /// Registers an issued request and moves its completion in from
  /// `done`. Fails when the in-flight bound is hit, leaving `done` with
  /// the caller to report the refusal. A seq already in flight keeps its
  /// first entry (issue time and completion); `done` is then dropped.
  Status on_request(std::uint16_t seq, SimTime now, Completion& done) {
    if (pending_.size() >= max_outstanding_) {
      return make_error("outstanding request limit reached");
    }
    if (find(seq) == pending_.end()) pending_.push_back(Entry{seq, now, std::move(done)});
    return {};
  }
  Status on_request(std::uint16_t seq, SimTime now) {
    Completion none{};
    return on_request(seq, now, none);
  }

  /// Matches a response to its request and hands back its completion.
  /// An unmatched response is the §VIII "many modified response
  /// messages" signature.
  std::optional<Completion> on_response(std::uint16_t seq) {
    const auto it = find(seq);
    if (it == pending_.end()) {
      ++unmatched_responses_;
      return std::nullopt;
    }
    std::optional<Completion> done(std::move(it->done));
    pending_.erase(it);
    return done;
  }

  std::size_t outstanding() const noexcept { return pending_.size(); }
  std::uint64_t unmatched_responses() const noexcept { return unmatched_responses_; }

  /// Sequence numbers issued but never answered (stale after `age`), in
  /// the order they were issued.
  std::vector<std::uint16_t> unacked_older_than(SimTime now, SimTime age) const {
    std::vector<std::uint16_t> out;
    for (const Entry& e : pending_) {
      if (e.issued + age <= now) out.push_back(e.seq);
    }
    return out;
  }

 private:
  struct Entry {
    std::uint16_t seq = 0;
    SimTime issued{};
    [[no_unique_address]] Completion done{};
  };

  typename std::vector<Entry>::iterator find(std::uint16_t seq) {
    return std::find_if(pending_.begin(), pending_.end(),
                        [seq](const Entry& e) { return e.seq == seq; });
  }

  std::size_t max_outstanding_;
  std::vector<Entry> pending_;  ///< issue order
  std::uint64_t unmatched_responses_ = 0;
};

}  // namespace p4auth::core

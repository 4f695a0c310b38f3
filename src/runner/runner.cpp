#include "runner/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace p4auth::runner {

std::string SeedRange::to_string() const {
  if (first == last) return std::to_string(first);
  return std::to_string(first) + ".." + std::to_string(last);
}

Result<SeedRange> parse_seed_range(const std::string& text) {
  const auto parse_u64 = [](const std::string& s, std::uint64_t& out) {
    if (s.empty()) return false;
    char* end = nullptr;
    errno = 0;
    out = std::strtoull(s.c_str(), &end, 10);
    return errno == 0 && end == s.c_str() + s.size();
  };
  SeedRange range;
  const std::size_t dots = text.find("..");
  if (dots == std::string::npos) {
    if (!parse_u64(text, range.first)) {
      return make_error("bad seed range '" + text + "' (expected A or A..B)");
    }
    range.last = range.first;
    return range;
  }
  if (!parse_u64(text.substr(0, dots), range.first) ||
      !parse_u64(text.substr(dots + 2), range.last)) {
    return make_error("bad seed range '" + text + "' (expected A or A..B)");
  }
  if (range.last < range.first) {
    return make_error("bad seed range '" + text + "' (A must be <= B)");
  }
  return range;
}

void JobResult::observe(std::string_view name, double value) {
  auto it = stats.find(name);
  if (it == stats.end()) it = stats.emplace(std::string(name), RunningStat{}).first;
  it->second.add(value);
}

const RunningStat& CampaignResult::stat(std::string_view name) const noexcept {
  static const RunningStat kEmpty{};
  const auto it = stats.find(name);
  return it != stats.end() ? it->second : kEmpty;
}

int resolve_workers(int requested) noexcept {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

int resolve_shard_workers(int requested, int shards, int jobs) noexcept {
  if (shards < 1) shards = 1;
  if (requested >= 1) return requested < shards ? requested : shards;
  const int hw = resolve_workers(0);
  const int per_job = hw / (jobs >= 1 ? jobs : 1);
  const int budget = per_job >= 1 ? per_job : 1;
  return budget < shards ? budget : shards;
}

WorkerPool::WorkerPool(int threads) {
  if (threads < 0) threads = 0;
  threads_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) threads_.emplace_back([this] { worker_loop(); });
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::note_error() noexcept {
  const std::lock_guard<std::mutex> lock(error_mu_);
  if (!first_error_) first_error_ = std::current_exception();
}

void WorkerPool::run_slice() {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_) return;
    try {
      (*task_)(i);
    } catch (...) {
      note_error();
    }
  }
}

void WorkerPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    lock.unlock();
    run_slice();
    lock.lock();
    if (--pending_workers_ == 0) done_cv_.notify_all();
  }
}

void WorkerPool::dispatch(std::size_t count, const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  if (threads_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    task_ = &task;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    pending_workers_ = threads_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  run_slice();  // the caller is a worker too
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_workers_ == 0; });
  task_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

void parallel_for(std::size_t count, int workers, const std::function<void(std::size_t)>& body) {
  // The caller is one of the workers, so a lone worker (or job) spawns
  // no thread.
  const std::size_t threads = std::min(static_cast<std::size_t>(resolve_workers(workers)), count);
  WorkerPool pool(threads > 0 ? static_cast<int>(threads - 1) : 0);
  pool.dispatch(count, body);
}

CampaignResult run_campaign(std::size_t count, int workers,
                            const std::function<JobResult(std::size_t)>& job) {
  std::vector<JobResult> results(count);
  parallel_for(count, workers, [&](std::size_t i) { results[i] = job(i); });

  CampaignResult merged;
  merged.jobs_run = count;
  for (auto& result : results) {
    for (auto& [name, stat] : result.stats) {
      auto it = merged.stats.find(name);
      if (it == merged.stats.end()) {
        merged.stats.emplace(name, stat);
      } else {
        it->second.merge(stat);
      }
    }
    telemetry::merge_snapshots(merged.telemetry, result.telemetry);
  }
  return merged;
}

}  // namespace p4auth::runner

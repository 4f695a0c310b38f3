// Parallel experiment campaign runner.
//
// A campaign is a list of self-contained jobs — typically (experiment
// config, scenario, seed) tuples — fanned out over a fixed-size worker
// pool. Each job constructs its own Fabric/Simulator/Telemetry, so the
// single-threaded determinism contract holds per job; nothing is shared
// between workers except the job queue (an atomic index) and the
// pre-sized result slots (each written by exactly one worker).
//
// Reduction happens on the caller's thread in job-index order via
// RunningStat::merge and telemetry::merge_snapshots, so the merged
// result of a campaign is byte-identical for any worker count: `--jobs
// 1` and `--jobs N` agree to the last bit (pinned by
// tests/runner/campaign_determinism_test.cpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.hpp"
#include "common/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace p4auth::runner {

/// Inclusive seed interval, as written on the command line: "A..B", or a
/// bare "A" meaning A..A.
struct SeedRange {
  std::uint64_t first = 1;
  std::uint64_t last = 1;

  std::size_t count() const noexcept { return static_cast<std::size_t>(last - first + 1); }
  std::uint64_t seed(std::size_t index) const noexcept {
    return first + static_cast<std::uint64_t>(index);
  }
  std::string to_string() const;
};

/// Parses "A..B" or "A" (decimal, A <= B required).
Result<SeedRange> parse_seed_range(const std::string& text);

/// What one campaign job hands back: named scalar observables (one
/// RunningStat per name, usually holding a single sample) plus the job's
/// own telemetry snapshot. std::map keeps reduction order deterministic.
struct JobResult {
  std::map<std::string, RunningStat, std::less<>> stats;
  telemetry::Telemetry telemetry;

  /// Records one observation of `name`.
  void observe(std::string_view name, double value);
};

/// Campaign outcome: per-observable statistics merged across all jobs in
/// job-index order, plus the merged telemetry snapshot.
struct CampaignResult {
  std::map<std::string, RunningStat, std::less<>> stats;
  telemetry::Telemetry telemetry;
  std::size_t jobs_run = 0;

  /// Stats for `name`; an empty RunningStat when never observed.
  const RunningStat& stat(std::string_view name) const noexcept;
};

/// Resolves a requested worker count: values >= 1 pass through, 0 means
/// hardware concurrency (at least 1).
int resolve_workers(int requested) noexcept;

/// Resolves the worker budget for one sharded simulator nested inside a
/// campaign: explicit requests (>= 1) pass through (clamped to the shard
/// count); 0 divides the hardware among the concurrently-running jobs so
/// shards x jobs never oversubscribes the machine.
int resolve_shard_workers(int requested, int shards, int jobs) noexcept;

/// Fixed pool of persistent worker threads for repeated fork-join
/// dispatches. The pool starts its threads once and re-dispatches them,
/// so a caller issuing thousands of small parallel steps (the sharded
/// simulator runs one dispatch per lookahead window) pays wakeup cost,
/// not thread-creation cost. parallel_for is one dispatch on a pool of
/// its own.
///
/// dispatch(count, task) runs task(i) for every i in [0, count); the
/// calling thread participates, so total parallelism is threads + 1.
/// Indices are claimed from an atomic counter — tasks must not care
/// which thread runs them. The first exception any task throws is
/// rethrown on the caller after every worker has gone idle.
class WorkerPool {
 public:
  /// Spawns `threads` background workers (0 = every dispatch runs
  /// entirely on the caller).
  explicit WorkerPool(int threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const noexcept { return static_cast<int>(threads_.size()); }

  void dispatch(std::size_t count, const std::function<void(std::size_t)>& task);

 private:
  void worker_loop();
  void run_slice();
  void note_error() noexcept;

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;       ///< bumped per dispatch (guarded by mu_)
  std::size_t pending_workers_ = 0;    ///< workers still in the current dispatch
  bool stop_ = false;
  const std::function<void(std::size_t)>* task_ = nullptr;  ///< valid during a dispatch
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::mutex error_mu_;
  std::exception_ptr first_error_;
};

/// Invokes `body(i)` for every i in [0, count) across `workers` threads,
/// the caller among them (inline on the caller when workers <= 1 or
/// count <= 1), and blocks until all complete: one WorkerPool dispatch
/// on min(workers, count) - 1 threads. Work is claimed from an atomic
/// counter, so the assignment of jobs to threads is scheduling-dependent
/// — bodies must not care which thread runs them. The first exception
/// thrown by any body is rethrown here after all workers have stopped.
void parallel_for(std::size_t count, int workers, const std::function<void(std::size_t)>& body);

/// Runs `count` jobs over `workers` threads and reduces the results in
/// job-index order. `job` must be callable concurrently from multiple
/// threads for distinct indices.
CampaignResult run_campaign(std::size_t count, int workers,
                            const std::function<JobResult(std::size_t)>& job);

}  // namespace p4auth::runner

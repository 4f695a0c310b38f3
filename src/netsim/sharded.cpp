#include "netsim/sharded.hpp"

#include <cassert>

#include "runner/runner.hpp"

namespace p4auth::netsim {

namespace {
/// Shard whose window runs on this thread; kNoShard on the coordinator
/// and on campaign workers that never enter a window.
thread_local int t_current_shard = kNoShard;
}  // namespace

int current_shard() noexcept { return t_current_shard; }
void set_current_shard(int shard) noexcept { t_current_shard = shard; }

ShardedSimulator::ShardedSimulator(Simulator& shard0, int count, int workers) {
  if (count < 1) count = 1;
  sims_.push_back(&shard0);
  for (int k = 1; k < count; ++k) {
    owned_.push_back(std::make_unique<Simulator>());
    owned_.back()->share_root_counter(shard0);
    sims_.push_back(owned_.back().get());
  }
  if (workers < 1) workers = 1;
  if (workers > count) workers = count;
  pool_ = std::make_unique<runner::WorkerPool>(workers - 1);
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::run() {
  if (sims_.size() == 1) {
    // A lone shard has no cross-shard edges, so no window is needed — and
    // none is possible: with no cut links the lookahead is legitimately
    // zero, which would make the strictly-below-horizon window spin.
    // Draining the heap directly fires the exact same order the windowed
    // schedule would.
    set_current_shard(0);
    sims_[0]->run();
    set_current_shard(kNoShard);
    return;
  }
  assert(lookahead_.ns() > 0 && "sharded run needs a positive lookahead");
  for (;;) {
    for (Simulator* sim : sims_) sim->flush_outbox();
    bool any = false;
    SimTime t_min{};
    for (Simulator* sim : sims_) {
      bool ok = false;
      const SimTime t = sim->next_event_time(ok);
      if (ok && (!any || t < t_min)) {
        t_min = t;
        any = true;
      }
    }
    if (!any) break;
    const SimTime horizon = t_min + lookahead_;
    pool_->dispatch(sims_.size(), [this, horizon](std::size_t k) {
      set_current_shard(static_cast<int>(k));
      sims_[k]->run_window(horizon);
      set_current_shard(kNoShard);
    });
  }
  // Quiescent: re-align every clock to the global end time so harness
  // code scheduling relative to "now" behaves identically for any shard
  // count.
  SimTime end{};
  for (Simulator* sim : sims_) {
    if (sim->now() > end) end = sim->now();
  }
  for (Simulator* sim : sims_) sim->sync_clock(end);
}

std::size_t ShardedSimulator::processed() const noexcept {
  std::size_t n = 0;
  for (const Simulator* sim : sims_) n += sim->processed();
  return n;
}

}  // namespace p4auth::netsim

// Thread-local shard context for the sharded simulation engine.
//
// A worker thread executing one shard's event window publishes the shard
// id here so shard-aware components (Network) can route state access to
// "the shard running right now" without threading a shard id through
// every call. Outside a window — on the coordinator and on campaign
// worker threads — the context is kNoShard and shard-aware accessors use
// shard 0, which is also where every component of a one-shard run lives.
#pragma once

namespace p4auth::netsim {

inline constexpr int kNoShard = -1;

/// Shard whose window is executing on this thread (kNoShard otherwise).
int current_shard() noexcept;

/// Set by shard workers around run_window; restore to kNoShard after.
void set_current_shard(int shard) noexcept;

}  // namespace p4auth::netsim

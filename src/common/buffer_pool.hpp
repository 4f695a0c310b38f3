// Free-list recycler for packet payload buffers.
//
// The simulate-forward-authenticate loop moves the same `Bytes` vector
// from link delivery through the pipeline to the next emit, but every
// buffer *birth* (probe replication, DpData wrapping, alert encoding)
// and *death* (consumed or dropped packets) used to hit the allocator.
// The pool closes that cycle: dead buffers park on a free list with
// their capacity intact, and the next acquire hands one back instead of
// allocating. One pool per Network (per simulation run), so the stats a
// run exports are independent of how many campaign workers share the
// process — a requirement for byte-identical --jobs output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace p4auth {

class BufferPool {
 public:
  struct Config {
    /// Free-list cap: releases beyond this are freed, not parked, so a
    /// burst cannot pin memory forever.
    std::size_t max_buffers = 1024;
    /// Capacity floor for every buffer the pool allocates, fresh or
    /// grown from a recycled buffer below the hint. Recycled buffers
    /// keep whatever capacity they grew to.
    std::size_t min_capacity = 256;
  };

  struct Stats {
    std::uint64_t acquires = 0;  ///< total acquire() calls
    std::uint64_t reuses = 0;    ///< acquires served from the free list without allocating
    std::uint64_t misses = 0;    ///< acquires that had to allocate (fresh or grown)
    std::uint64_t releases = 0;  ///< buffers parked on the free list
    std::uint64_t dropped = 0;   ///< releases refused (list full / no storage)
    std::uint64_t high_water = 0;  ///< max free-list length observed
  };

  BufferPool() noexcept = default;
  explicit BufferPool(Config config) noexcept : config_(config) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns an empty buffer (size 0) with capacity >= capacity_hint,
  /// recycled when the free list has one.
  Bytes acquire(std::size_t capacity_hint = 0);

  /// Parks a dead buffer's storage for reuse. Buffers that never
  /// allocated (capacity 0, e.g. moved-from vectors) and releases past
  /// the cap are dropped.
  void release(Bytes&& buffer);

  std::size_t free_buffers() const noexcept { return free_.size(); }
  const Stats& stats() const noexcept { return stats_; }
  const Config& config() const noexcept { return config_; }

 private:
  Config config_;
  std::vector<Bytes> free_;
  Stats stats_;
};

/// RAII handle on a pooled buffer: releases back to the pool on scope
/// exit unless take() detached the bytes (e.g. moved into an Emit, after
/// which the hosting switch recycles them when the packet dies).
class PooledBytes {
 public:
  PooledBytes() noexcept = default;
  explicit PooledBytes(BufferPool& pool, std::size_t capacity_hint = 0)
      : pool_(&pool), bytes_(pool.acquire(capacity_hint)) {}

  PooledBytes(PooledBytes&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)), bytes_(std::move(other.bytes_)) {}

  PooledBytes& operator=(PooledBytes&& other) noexcept {
    if (this == &other) return *this;
    reset();
    pool_ = std::exchange(other.pool_, nullptr);
    bytes_ = std::move(other.bytes_);
    return *this;
  }

  PooledBytes(const PooledBytes&) = delete;
  PooledBytes& operator=(const PooledBytes&) = delete;

  ~PooledBytes() { reset(); }

  Bytes& operator*() noexcept { return bytes_; }
  Bytes* operator->() noexcept { return &bytes_; }
  const Bytes& operator*() const noexcept { return bytes_; }

  bool attached() const noexcept { return pool_ != nullptr; }

  /// Detaches and returns the buffer; the handle no longer releases it.
  Bytes take() noexcept {
    pool_ = nullptr;
    return std::move(bytes_);
  }

  /// Releases the buffer back to the pool now.
  void reset() {
    if (pool_ != nullptr) {
      pool_->release(std::move(bytes_));
      pool_ = nullptr;
    }
    bytes_ = Bytes{};
  }

 private:
  BufferPool* pool_ = nullptr;
  Bytes bytes_;
};

}  // namespace p4auth

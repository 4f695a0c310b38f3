#include "common/buffer_pool.hpp"

#include <algorithm>

namespace p4auth {

Bytes BufferPool::acquire(std::size_t capacity_hint) {
  ++stats_.acquires;
  const std::size_t capacity = std::max(capacity_hint, config_.min_capacity);
  if (!free_.empty()) {
    Bytes buffer = std::move(free_.back());
    free_.pop_back();
    buffer.clear();
    if (buffer.capacity() >= capacity_hint) {
      ++stats_.reuses;
      return buffer;
    }
    // Too small, e.g. an exact-size frame born outside the pool. Growing
    // it allocates, so it is a miss; growing to the floor, not to the
    // bare hint, spares the next slightly larger acquire a second growth.
    ++stats_.misses;
    buffer.reserve(capacity);
    return buffer;
  }
  ++stats_.misses;
  Bytes buffer;
  buffer.reserve(capacity);
  return buffer;
}

void BufferPool::release(Bytes&& buffer) {
  if (buffer.capacity() == 0 || free_.size() >= config_.max_buffers) {
    ++stats_.dropped;
    Bytes discard = std::move(buffer);  // free now, off the list
    return;
  }
  ++stats_.releases;
  // Reserve the whole cap on the first park so steady-state releases
  // never grow the list storage (the zero-alloc window counts those).
  if (free_.capacity() < config_.max_buffers) free_.reserve(config_.max_buffers);
  free_.push_back(std::move(buffer));
  if (free_.size() > stats_.high_water) stats_.high_water = free_.size();
}

}  // namespace p4auth

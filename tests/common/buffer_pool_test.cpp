#include "common/buffer_pool.hpp"

#include <gtest/gtest.h>

namespace p4auth {
namespace {

TEST(BufferPool, FirstAcquireAllocatesWithMinCapacity) {
  BufferPool pool;
  const Bytes buf = pool.acquire();
  EXPECT_TRUE(buf.empty());
  EXPECT_GE(buf.capacity(), pool.config().min_capacity);
  EXPECT_EQ(pool.stats().acquires, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().reuses, 0u);
}

TEST(BufferPool, ReleasedBufferIsReusedWithCapacityIntact) {
  BufferPool pool;
  Bytes buf = pool.acquire(1000);
  buf.resize(1000);
  const auto* data = buf.data();
  pool.release(std::move(buf));
  EXPECT_EQ(pool.free_buffers(), 1u);

  const Bytes again = pool.acquire();
  EXPECT_TRUE(again.empty());          // recycled buffers come back cleared
  EXPECT_GE(again.capacity(), 1000u);  // ...but keep their storage
  EXPECT_EQ(again.data(), data);       // same allocation, not a new one
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST(BufferPool, AcquireHonorsCapacityHintOnReusedBuffer) {
  BufferPool pool;
  pool.release(pool.acquire(16));
  const Bytes buf = pool.acquire(4096);
  EXPECT_GE(buf.capacity(), 4096u);
  // Growing the recycled buffer allocated, so it is a miss, not a reuse.
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.stats().reuses, 0u);
}

TEST(BufferPool, UndersizedRecycledBufferGrowsOnceToTheFloor) {
  // An exact-size buffer from outside the pool (e.g. a 1-byte trigger
  // frame) is grown to min_capacity, not to the bare hint: growing it is
  // a miss, and the next acquire of the same size allocates nothing.
  BufferPool pool;
  Bytes tiny;
  tiny.push_back(0x47);
  pool.release(std::move(tiny));

  Bytes first = pool.acquire(115);
  EXPECT_GE(first.capacity(), pool.config().min_capacity);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().reuses, 0u);
  const auto* storage = first.data();
  pool.release(std::move(first));

  const Bytes second = pool.acquire(115);
  EXPECT_EQ(second.data(), storage);  // same allocation, not a new one
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().reuses, 1u);
}

TEST(BufferPool, CapacitylessReleaseIsDropped) {
  BufferPool pool;
  pool.release(Bytes{});  // e.g. a moved-from vector
  EXPECT_EQ(pool.free_buffers(), 0u);
  EXPECT_EQ(pool.stats().dropped, 1u);
  EXPECT_EQ(pool.stats().releases, 0u);
}

TEST(BufferPool, FreeListCapBoundsParkedBuffers) {
  BufferPool pool(BufferPool::Config{.max_buffers = 2, .min_capacity = 8});
  for (int i = 0; i < 5; ++i) {
    Bytes buf;
    buf.reserve(8);
    pool.release(std::move(buf));
  }
  EXPECT_EQ(pool.free_buffers(), 2u);
  EXPECT_EQ(pool.stats().releases, 2u);
  EXPECT_EQ(pool.stats().dropped, 3u);
  EXPECT_EQ(pool.stats().high_water, 2u);
}

TEST(BufferPool, SteadyStateCycleStopsAllocating) {
  BufferPool pool;
  pool.release(pool.acquire(64));
  for (int i = 0; i < 100; ++i) {
    Bytes buf = pool.acquire(64);
    buf.assign({1, 2, 3});
    pool.release(std::move(buf));
  }
  EXPECT_EQ(pool.stats().misses, 1u);  // only the very first acquire
  EXPECT_EQ(pool.stats().reuses, 100u);
  EXPECT_EQ(pool.stats().high_water, 1u);
}

TEST(PooledBytes, ReleasesOnScopeExit) {
  BufferPool pool;
  {
    PooledBytes handle(pool, 32);
    handle->assign({1, 2, 3});
    EXPECT_TRUE(handle.attached());
    EXPECT_EQ((*handle).size(), 3u);
  }
  EXPECT_EQ(pool.free_buffers(), 1u);
  EXPECT_EQ(pool.stats().releases, 1u);
}

TEST(PooledBytes, TakeDetachesOwnership) {
  BufferPool pool;
  Bytes taken;
  {
    PooledBytes handle(pool, 32);
    handle->assign({9, 9});
    taken = handle.take();
    EXPECT_FALSE(handle.attached());
  }
  EXPECT_EQ(taken, (Bytes{9, 9}));
  EXPECT_EQ(pool.free_buffers(), 0u);  // handle no longer released it
}

TEST(PooledBytes, MoveTransfersTheRelease) {
  BufferPool pool;
  {
    PooledBytes a(pool, 16);
    PooledBytes b(std::move(a));
    EXPECT_FALSE(a.attached());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.attached());
  }
  EXPECT_EQ(pool.free_buffers(), 1u);
  EXPECT_EQ(pool.stats().releases, 1u);  // released exactly once
}

}  // namespace
}  // namespace p4auth

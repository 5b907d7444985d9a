// Unit tests for PooledFifo / FifoPool (src/common/pooled_fifo.hpp): the
// per-owner node slab behind the coherence controllers' per-block queues.
// Covers FIFO order, growth past the first slab, moving the owning struct
// (what FlatMap rehash and backshift erase do), free-list reuse, element
// removal, and — counted by the operator-new hook below — that a steady
// state of push/pop/move allocates nothing at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/pooled_fifo.hpp"

namespace {
std::atomic<std::uint64_t> gAllocs{0};
}  // namespace

// Counting replacements of the global allocation functions, for this test
// binary only. They stay out of line: inlined, GCC pairs the malloc() or
// free() inside with the operator new/delete at the call site and warns
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dvmc {
namespace {

std::vector<int> drain(FifoPool<int>& pool, PooledFifo<int>& q) {
  std::vector<int> out;
  while (!q.empty()) out.push_back(pool.pop(q));
  return out;
}

TEST(PooledFifo, KeepsFifoOrder) {
  FifoPool<int> pool;
  PooledFifo<int> q;
  EXPECT_TRUE(q.empty());
  for (int i = 1; i <= 5; ++i) pool.push(q, i);
  EXPECT_EQ(q.front(), 1);
  EXPECT_EQ(q.back(), 5);
  EXPECT_EQ(pool.pop(q), 1);
  pool.push(q, 6);
  EXPECT_EQ(drain(pool, q), (std::vector<int>{2, 3, 4, 5, 6}));
  EXPECT_EQ(pool.liveCount(), 0u);
}

TEST(PooledFifo, InterleavedQueuesShareOnePool) {
  FifoPool<int> pool;
  PooledFifo<int> a;
  PooledFifo<int> b;
  for (int i = 0; i < 10; ++i) pool.push(i % 2 == 0 ? a : b, i);
  EXPECT_EQ(pool.liveCount(), 10u);
  EXPECT_EQ(drain(pool, a), (std::vector<int>{0, 2, 4, 6, 8}));
  EXPECT_EQ(drain(pool, b), (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(PooledFifo, GrowsPastTheFirstSlab) {
  FifoPool<int> pool;
  PooledFifo<int> q;
  pool.push(q, 0);
  const std::size_t slab = pool.capacity();
  ASSERT_GT(slab, 0u);
  const int n = static_cast<int>(3 * slab + 1);
  for (int i = 1; i < n; ++i) pool.push(q, i);
  EXPECT_GT(pool.capacity(), 3 * slab);
  EXPECT_EQ(pool.liveCount(), static_cast<std::size_t>(n));
  std::vector<int> expect(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) expect[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(drain(pool, q), expect);
}

struct Owner {
  int tag = 0;
  PooledFifo<int> q;
};

TEST(PooledFifo, MovingTheOwnerKeepsTheQueue) {
  FifoPool<int> pool;
  Owner a;
  a.tag = 7;
  for (int i = 0; i < 4; ++i) pool.push(a.q, i);
  Owner b = std::move(a);
  EXPECT_TRUE(a.q.empty());  // the source gave its nodes away
  Owner c;
  c = std::move(b);
  EXPECT_TRUE(b.q.empty());
  pool.push(c.q, 4);
  EXPECT_EQ(drain(pool, c.q), (std::vector<int>{0, 1, 2, 3, 4}));

  // The same through a FlatMap that rehashes and backshifts its values.
  FlatMap<std::uint64_t, Owner> map;
  for (std::uint64_t k = 0; k < 64; ++k) {
    pool.push(map[k].q, static_cast<int>(k));
    pool.push(map[k].q, static_cast<int>(k + 1000));
  }
  for (std::uint64_t k = 0; k < 64; k += 2) {
    Owner& o = map.at(k);
    pool.clear(o.q);
    map.erase(k);
  }
  for (std::uint64_t k = 1; k < 64; k += 2) {
    Owner& o = map.at(k);
    EXPECT_EQ(drain(pool, o.q), (std::vector<int>{static_cast<int>(k),
                                                  static_cast<int>(k + 1000)}));
  }
  EXPECT_EQ(pool.liveCount(), 0u);
}

TEST(PooledFifo, ReusesFreedNodes) {
  FifoPool<int> pool;
  PooledFifo<int> q;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 20; ++i) pool.push(q, i);
    pool.clear(q);
  }
  PooledFifo<int> other;
  pool.push(other, 1);
  const std::size_t cap = pool.capacity();
  for (int round = 0; round < 100; ++round) {
    pool.push(q, round);
    pool.pop(q);
  }
  EXPECT_EQ(pool.capacity(), cap);
  EXPECT_EQ(pool.liveCount(), 1u);
  pool.clear(other);
}

TEST(PooledFifo, RemoveFirstUnlinksAnyPosition) {
  FifoPool<int> pool;
  PooledFifo<int> q;
  for (int i = 0; i < 5; ++i) pool.push(q, i);
  const auto is = [](int v) { return [v](int x) { return x == v; }; };
  EXPECT_EQ(pool.removeFirst(q, is(2)), 2);  // middle
  EXPECT_EQ(pool.removeFirst(q, is(0)), 0);  // head
  EXPECT_EQ(pool.removeFirst(q, is(4)), 4);  // tail
  EXPECT_FALSE(pool.removeFirst(q, is(9)).has_value());
  EXPECT_EQ(q.back(), 3);
  pool.push(q, 5);  // the tail pointer followed the removal
  std::vector<int> seen(q.begin(), q.end());
  EXPECT_EQ(seen, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(drain(pool, q), (std::vector<int>{1, 3, 5}));
}

TEST(PooledFifo, SteadyStateAllocatesNothing) {
  FifoPool<int> pool;
  FlatMap<std::uint64_t, Owner> map;
  map.reserve(64);
  // Warm-up: reach the high-water mark of live nodes once.
  for (std::uint64_t k = 0; k < 16; ++k) {
    for (int i = 0; i < 8; ++i) pool.push(map[k].q, i);
  }
  for (auto& kv : map) pool.clear(kv.second.q);
  map.clear();

  const std::uint64_t before = gAllocs.load(std::memory_order_relaxed);
  std::uint64_t checksum = 0;
  for (int round = 0; round < 1000; ++round) {
    for (std::uint64_t k = 0; k < 16; ++k) {
      Owner& o = map[k];
      for (int i = 0; i < 8; ++i) pool.push(o.q, round + i);
    }
    Owner moved = std::move(map.at(3));
    map.erase(3);
    while (!moved.q.empty()) checksum += pool.pop(moved.q);
    for (auto& kv : map) {
      while (!kv.second.q.empty()) checksum += pool.pop(kv.second.q);
    }
    map.clear();
  }
  const std::uint64_t allocs =
      gAllocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(checksum, 0u);
}

}  // namespace
}  // namespace dvmc

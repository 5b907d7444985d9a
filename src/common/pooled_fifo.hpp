// Pooled FIFO queues: one node slab per owner, many {head, tail} queues.
//
// The coherence controllers keep small per-block queues — operations
// waiting behind an MSHR, snoops deferred behind an ordered transaction,
// requests waiting at a blocking home. They are usually empty, rarely
// deeper than a few entries, and live inside FlatMap values that are
// created, moved (rehash, backshift erase) and destroyed on every miss. A
// std::deque there costs two allocations to construct and two more every
// time the map moves it. Here the owner (a controller) holds one FifoPool;
// each queue is a PooledFifo, two pointers into that pool's nodes:
//
//   - creating, moving and destroying a PooledFifo allocates nothing (a
//     move copies two pointers and empties the source);
//   - push takes a node from the pool's free list, pop returns it, so a
//     steady state allocates nothing; the pool grows by whole slabs when
//     more entries are live at once than ever before, so depth stays
//     unbounded;
//   - order is FIFO, as with the deques this replaces.
//
// The pool, not the queue, owns the nodes: a non-empty PooledFifo that is
// dropped strands its nodes (off the free list) until the pool dies, so an
// owner discarding queues wholesale (BER recovery) clear()s each first.
// Node payloads are destroyed when the pool's slabs are freed.
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace dvmc {

template <class T>
class FifoPool;

template <class T>
struct FifoNode {
  T value{};
  FifoNode* next = nullptr;
};

/// A FIFO queue whose nodes live in a FifoPool<T>. Move-only; mutated
/// through the pool that owns its nodes.
template <class T>
class PooledFifo {
 public:
  using Node = FifoNode<T>;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using reference = const T&;
    using pointer = const T*;

    const_iterator() = default;
    explicit const_iterator(const Node* n) : n_(n) {}
    reference operator*() const { return n_->value; }
    pointer operator->() const { return &n_->value; }
    const_iterator& operator++() {
      n_ = n_->next;
      return *this;
    }
    friend bool operator==(const_iterator a, const_iterator b) {
      return a.n_ == b.n_;
    }
    friend bool operator!=(const_iterator a, const_iterator b) {
      return a.n_ != b.n_;
    }

   private:
    const Node* n_ = nullptr;
  };

  PooledFifo() = default;
  PooledFifo(PooledFifo&& o) noexcept
      : head_(std::exchange(o.head_, nullptr)),
        tail_(std::exchange(o.tail_, nullptr)) {}
  PooledFifo& operator=(PooledFifo&& o) noexcept {
    if (this != &o) {
      DVMC_ASSERT(empty(), "PooledFifo overwritten while holding nodes");
      head_ = std::exchange(o.head_, nullptr);
      tail_ = std::exchange(o.tail_, nullptr);
    }
    return *this;
  }
  PooledFifo(const PooledFifo&) = delete;
  PooledFifo& operator=(const PooledFifo&) = delete;

  bool empty() const { return head_ == nullptr; }
  const T& front() const { return head_->value; }
  const T& back() const { return tail_->value; }

  const_iterator begin() const { return const_iterator(head_); }
  const_iterator end() const { return const_iterator(nullptr); }

 private:
  friend class FifoPool<T>;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
};

/// Node slab plus free list backing any number of PooledFifo<T> queues.
/// T must be default-constructible and move-assignable.
template <class T>
class FifoPool {
 public:
  using Node = FifoNode<T>;

  FifoPool() = default;
  FifoPool(const FifoPool&) = delete;
  FifoPool& operator=(const FifoPool&) = delete;

  /// Appends `value` to the back of `q`.
  void push(PooledFifo<T>& q, T value) {
    Node* n = take();
    n->value = std::move(value);
    n->next = nullptr;
    if (q.tail_ == nullptr) {
      q.head_ = n;
    } else {
      q.tail_->next = n;
    }
    q.tail_ = n;
  }

  /// Removes and returns the front of `q` (which must not be empty).
  T pop(PooledFifo<T>& q) {
    DVMC_ASSERT(!q.empty(), "pop from an empty PooledFifo");
    Node* n = q.head_;
    q.head_ = n->next;
    if (q.head_ == nullptr) q.tail_ = nullptr;
    T value = std::move(n->value);
    release(n);
    return value;
  }

  /// Removes and returns the first element of `q` matching `pred`, or
  /// nullopt when none does.
  template <class Pred>
  std::optional<T> removeFirst(PooledFifo<T>& q, Pred&& pred) {
    Node* prev = nullptr;
    for (Node* n = q.head_; n != nullptr; prev = n, n = n->next) {
      if (!pred(static_cast<const T&>(n->value))) continue;
      (prev == nullptr ? q.head_ : prev->next) = n->next;
      if (q.tail_ == n) q.tail_ = prev;
      std::optional<T> value(std::move(n->value));
      release(n);
      return value;
    }
    return std::nullopt;
  }

  /// Empties `q`, returning its nodes to the free list.
  void clear(PooledFifo<T>& q) {
    while (!q.empty()) pop(q);
  }

  /// Nodes currently holding a queued element.
  std::size_t liveCount() const { return live_; }
  /// Nodes ever created: the high-water mark, rounded up to whole slabs.
  std::size_t capacity() const { return slabs_.size() * kSlabNodes; }

 private:
  static constexpr std::size_t kSlabNodes = 32;

  Node* take() {
    if (freeList_ == nullptr) grow();
    Node* n = freeList_;
    freeList_ = n->next;
    ++live_;
    return n;
  }

  void release(Node* n) {
    n->next = freeList_;
    freeList_ = n;
    --live_;
  }

  void grow() {
    slabs_.emplace_back(new Node[kSlabNodes]);
    Node* slab = slabs_.back().get();
    // Thread the slab so nodes come off the free list in address order.
    for (std::size_t i = kSlabNodes; i-- > 0;) {
      slab[i].next = freeList_;
      freeList_ = &slab[i];
    }
  }

  std::vector<std::unique_ptr<Node[]>> slabs_;
  Node* freeList_ = nullptr;
  std::size_t live_ = 0;
};

}  // namespace dvmc

#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>

namespace dvmc {

namespace {
constexpr Cycle kNoEvent = ~Cycle{0};
}  // namespace

Simulator::Event* Simulator::allocEvent(Cycle when, std::uint64_t order,
                                        Action fn) {
  if (freeList_ == nullptr) {
    slabs_.emplace_back(new Event[kSlabEvents]);
    Event* slab = slabs_.back().get();
    for (std::size_t i = 0; i < kSlabEvents; ++i) {
      slab[i].next = freeList_;
      freeList_ = &slab[i];
    }
  }
  Event* e = freeList_;
  freeList_ = e->next;
  e->when = when;
  e->order = order;
  e->fn = std::move(fn);
  e->next = nullptr;
  return e;
}

void Simulator::releaseEvent(Event* e) {
  e->fn.reset();
  e->next = freeList_;
  freeList_ = e;
}

void Simulator::pushBucket(Event* e) {
  const std::size_t idx = static_cast<std::size_t>(e->when % kNearWindow);
  // schedule() hands out monotonically increasing order numbers, so a plain
  // tail append keeps each bucket sorted by order.
  if (bucketHead_[idx] == nullptr) {
    bucketHead_[idx] = bucketTail_[idx] = e;
    bucketMask_ |= std::uint64_t{1} << idx;
  } else {
    bucketTail_[idx]->next = e;
    bucketTail_[idx] = e;
  }
}

void Simulator::insertBucketOrdered(Event* e) {
  const std::size_t idx = static_cast<std::size_t>(e->when % kNearWindow);
  Event* prev = nullptr;
  Event* next = bucketHead_[idx];
  while (next != nullptr && next->order < e->order) {
    prev = next;
    next = next->next;
  }
  e->next = next;
  (prev == nullptr ? bucketHead_[idx] : prev->next) = e;
  if (next == nullptr) bucketTail_[idx] = e;
  bucketMask_ |= std::uint64_t{1} << idx;
}

void Simulator::migrateHeapEvents(Cycle t) {
  // Far-future events migrating out of the heap may carry a smaller order
  // number than same-cycle events appended directly, so each is spliced
  // into the chain by order. popHeap() yields the cycle's batch in
  // ascending order, so every splice resumes from the node inserted just
  // before it: one merge pass, O(batch + chain). Restarting each splice
  // at the bucket head would make the migration quadratic in the batch,
  // and a batch can hold thousands of timers converging on one cycle (the
  // MET residence timers do).
  const std::size_t idx = static_cast<std::size_t>(t % kNearWindow);
  Event* prev = nullptr;  // the next splice goes after this; null = head
  while (!heap_.empty() && heap_.front()->when == t) {
    Event* e = popHeap();
    Event* next = prev == nullptr ? bucketHead_[idx] : prev->next;
    while (next != nullptr && next->order < e->order) {
      prev = next;
      next = next->next;
    }
    e->next = next;
    (prev == nullptr ? bucketHead_[idx] : prev->next) = e;
    if (next == nullptr) bucketTail_[idx] = e;
    prev = e;
  }
  bucketMask_ |= std::uint64_t{1} << idx;
}

void Simulator::pushHeap(Event* e) {
  const auto later = [](const Event* a, const Event* b) {
    if (a->when != b->when) return a->when > b->when;
    return a->order > b->order;
  };
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

Simulator::Event* Simulator::popHeap() {
  const auto later = [](const Event* a, const Event* b) {
    if (a->when != b->when) return a->when > b->when;
    return a->order > b->order;
  };
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Event* e = heap_.back();
  heap_.pop_back();
  e->next = nullptr;
  return e;
}

Cycle Simulator::nextBucketTime() const {
  if (bucketMask_ == 0) return kNoEvent;
  // Every bucketed event lies in [now_, now_ + kNearWindow), so rotating the
  // occupancy mask to start at now_'s bucket turns "earliest event cycle"
  // into a count-trailing-zeros.
  const int base = static_cast<int>(now_ % kNearWindow);
  const std::uint64_t rotated = std::rotr(bucketMask_, base);
  return now_ + static_cast<Cycle>(std::countr_zero(rotated));
}

Cycle Simulator::peekWhen() const {
  const Cycle bucketT = nextBucketTime();
  const Cycle heapT = heap_.empty() ? kNoEvent : heap_.front()->when;
  return bucketT < heapT ? bucketT : heapT;
}

void Simulator::scheduleAt(Cycle when, Action fn) {
  DVMC_ASSERT(when >= now_, "event scheduled in the past");
  Event* e = allocEvent(when, nextOrder_++, std::move(fn));
  if (when - now_ < kNearWindow) {
    pushBucket(e);
  } else {
    pushHeap(e);
  }
  ++size_;
}

void Simulator::scheduleAtReserved(Cycle when, std::uint64_t order,
                                   Action fn) {
  DVMC_ASSERT(when >= now_, "event scheduled in the past");
  DVMC_ASSERT(order < nextOrder_, "order number was never reserved");
  Event* e = allocEvent(when, order, std::move(fn));
  // The heap orders by (when, order) already; a bucket chain is kept
  // sorted by order, which a plain tail append no longer guarantees.
  if (when - now_ < kNearWindow) {
    insertBucketOrdered(e);
  } else {
    pushHeap(e);
  }
  ++size_;
}

bool Simulator::anyEventBefore(Cycle when, std::uint64_t order) const {
  const auto before = [when, order](const Event* e) {
    return e->when < when || (e->when == when && e->order < order);
  };
  if (!heap_.empty() && before(heap_.front())) return true;
  const Cycle t = nextBucketTime();
  if (t == kNoEvent) return false;
  // Each bucket holds a single cycle and is sorted by order, so its head
  // is that cycle's earliest bucketed event.
  return before(bucketHead_[static_cast<std::size_t>(t % kNearWindow)]);
}

void Simulator::dispatch(Cycle t) {
  now_ = t;
  // Heap events whose cycle has arrived join the calendar so that events
  // from both structures interleave in global scheduling order.
  if (!heap_.empty() && heap_.front()->when == t) migrateHeapEvents(t);
  const std::size_t idx = static_cast<std::size_t>(t % kNearWindow);
  Event* e = bucketHead_[idx];
  bucketHead_[idx] = e->next;
  if (bucketHead_[idx] == nullptr) {
    bucketTail_[idx] = nullptr;
    bucketMask_ &= ~(std::uint64_t{1} << idx);
  }
  --size_;
  ++executed_;
  // Move the action out and recycle the node first so reentrant schedules
  // (including ones that reuse this node) are safe.
  Action fn = std::move(e->fn);
  releaseEvent(e);
  fn();
}

bool Simulator::step() { return dispatchNext(kNoEvent); }

bool Simulator::dispatchNext(Cycle limit) {
  if (size_ == 0) return false;
  const Cycle t = peekWhen();
  if (t > limit) return false;
  dispatch(t);
  return true;
}

std::uint64_t Simulator::run(Cycle limit) {
  // The inner loop is the single hottest path in the whole system, so it
  // resolves the next event time exactly once per event. There is
  // deliberately no per-event tracer branch here either — the tracer hangs
  // off the kernel for *components* to consult at their instrumentation
  // sites; with no tracer attached the loop below is pop → dispatch →
  // repeat with nothing hoistable left.
  std::uint64_t n = 0;
  while (dispatchNext(limit)) ++n;
  if (now_ < limit && limit != kNoEvent) now_ = limit;
  return n;
}

void Simulator::clear() {
  for (std::size_t i = 0; i < kNearWindow; ++i) {
    for (Event* e = bucketHead_[i]; e != nullptr;) {
      Event* next = e->next;
      releaseEvent(e);
      e = next;
    }
    bucketHead_[i] = bucketTail_[i] = nullptr;
  }
  bucketMask_ = 0;
  for (Event* e : heap_) releaseEvent(e);
  heap_.clear();
  size_ = 0;
}

}  // namespace dvmc

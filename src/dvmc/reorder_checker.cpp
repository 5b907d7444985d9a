#include "dvmc/reorder_checker.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dvmc {

namespace {
// Dead slots tolerated beyond the live count before a compaction.
constexpr std::size_t kDeadSlack = 32;
}  // namespace

void ReorderChecker::OutstandingSet::insert(SeqNum seq) {
  if (slots_.empty() || seq > slots_.back().seq) {
    // The common case: commits arrive in program order.
    slots_.push_back(Slot{seq, true});
    if (++live_ == 1) head_ = slots_.size() - 1;
    return;
  }
  const auto it = std::lower_bound(
      slots_.begin(), slots_.end(), seq,
      [](const Slot& s, SeqNum v) { return s.seq < v; });
  const std::size_t pos = static_cast<std::size_t>(it - slots_.begin());
  if (it != slots_.end() && it->seq == seq) {
    if (it->live) return;  // already outstanding (a re-commit)
    it->live = true;
  } else {
    slots_.insert(it, Slot{seq, true});
  }
  ++live_;
  head_ = std::min(head_, pos);
}

void ReorderChecker::OutstandingSet::erase(SeqNum seq) {
  if (live_ == 0) return;
  const auto first = slots_.begin() + static_cast<std::ptrdiff_t>(head_);
  const auto it = std::lower_bound(
      first, slots_.end(), seq,
      [](const Slot& s, SeqNum v) { return s.seq < v; });
  if (it == slots_.end() || it->seq != seq || !it->live) return;
  it->live = false;
  if (--live_ == 0) {
    clear();
    return;
  }
  while (!slots_[head_].live) ++head_;
  if (slots_.size() - live_ > live_ + kDeadSlack) compact();
}

void ReorderChecker::OutstandingSet::clear() {
  slots_.clear();  // keeps the capacity
  head_ = 0;
  live_ = 0;
}

void ReorderChecker::OutstandingSet::compact() {
  slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                              [](const Slot& s) { return !s.live; }),
               slots_.end());
  head_ = 0;
}

void ReorderChecker::onCommit(OpType type, SeqNum seq) {
  if (isLoadLike(type)) outstandingLoads_.insert(seq);
  if (isStoreLike(type)) outstandingStores_.insert(seq);
}

void ReorderChecker::reportViolation(SeqNum seq, const char* what) {
  if (sink_ != nullptr) {
    sink_->report({CheckerKind::kAllowableReordering, sim_.now(), node_, seq,
                   what});
  }
  cViolations_.inc();
}

void ReorderChecker::checkAgainst(OpClass cls, std::uint8_t instMask,
                                  SeqNum seq, const OrderingTable& table,
                                  const char* opName) {
  // Constraint cls < Load?
  if (table.classOrder(cls, instMask, OpClass::kLoad, membar::kAll) &&
      seq <= maxLoad_ && maxLoad_ != 0) {
    reportViolation(seq, opName);
  }
  // Constraint cls < Store?
  if (table.classOrder(cls, instMask, OpClass::kStore, membar::kAll) &&
      seq <= maxStore_ && maxStore_ != 0) {
    reportViolation(seq, opName);
  }
  // Constraint cls < Membar(bit b)? One counter per membar mask bit.
  for (int bit = 0; bit < 4; ++bit) {
    const std::uint8_t bitMask = static_cast<std::uint8_t>(1u << bit);
    if (table.classOrder(cls, instMask, OpClass::kMembar, bitMask) &&
        seq <= maxMembarBit_[bit] && maxMembarBit_[bit] != 0) {
      reportViolation(seq, opName);
    }
  }
}

void ReorderChecker::updateCounters(OpType type, std::uint8_t mask,
                                    SeqNum seq) {
  if (isLoadLike(type) && seq > maxLoad_) maxLoad_ = seq;
  if (isStoreLike(type) && seq > maxStore_) maxStore_ = seq;
  if (type == OpType::kMembar) {
    for (int bit = 0; bit < 4; ++bit) {
      if ((mask & (1u << bit)) != 0 && seq > maxMembarBit_[bit]) {
        maxMembarBit_[bit] = seq;
      }
    }
  }
}

void ReorderChecker::removeOutstanding(OpType type, SeqNum seq) {
  if (isLoadLike(type)) outstandingLoads_.erase(seq);
  if (isStoreLike(type)) outstandingStores_.erase(seq);
}

void ReorderChecker::onPerform(OpType type, std::uint8_t mask, SeqNum seq,
                               const OrderingTable& table) {
  cPerforms_.inc();
  switch (type) {
    case OpType::kLoad:
      checkAgainst(OpClass::kLoad, membar::kAll, seq, table,
                   "load performed after a later constrained operation");
      break;
    case OpType::kStore:
      checkAgainst(OpClass::kStore, membar::kAll, seq, table,
                   "store performed after a later constrained operation");
      break;
    case OpType::kAtomic:
      checkAgainst(OpClass::kLoad, membar::kAll, seq, table,
                   "atomic performed after a later constrained operation");
      checkAgainst(OpClass::kStore, membar::kAll, seq, table,
                   "atomic performed after a later constrained operation");
      break;
    case OpType::kMembar:
      checkAgainst(OpClass::kMembar, mask, seq, table,
                   "membar performed after a later constrained operation");
      break;
  }
  updateCounters(type, mask, seq);
  removeOutstanding(type, seq);
}

void ReorderChecker::injectCheckpointMembar() {
  cInjectedMembars_.inc();
  const SeqNum oldestLoad = outstandingLoads_.oldest();
  const SeqNum oldestStore = outstandingStores_.oldest();

  if (snapshotValid_) {
    // An operation outstanding across a full injection period was lost
    // (e.g., a dropped coherence message stranded a write-buffer entry).
    if (snapshotLoad_ != 0 && oldestLoad == snapshotLoad_) {
      if (sink_ != nullptr) {
        sink_->report({CheckerKind::kLostOperation, sim_.now(), node_,
                       snapshotLoad_, "load never performed"});
      }
      cLostLoads_.inc();
    }
    if (snapshotStore_ != 0 && oldestStore == snapshotStore_) {
      if (sink_ != nullptr) {
        sink_->report({CheckerKind::kLostOperation, sim_.now(), node_,
                       snapshotStore_, "store never performed"});
      }
      cLostStores_.inc();
    }
  }
  snapshotLoad_ = oldestLoad;
  snapshotStore_ = oldestStore;
  snapshotValid_ = true;
}

void ReorderChecker::reset() {
  maxLoad_ = 0;
  maxStore_ = 0;
  for (auto& m : maxMembarBit_) m = 0;
  outstandingLoads_.clear();
  outstandingStores_.clear();
  snapshotValid_ = false;
}

void ReorderChecker::dumpForensics(Json& out) const {
  out.set("maxLoad", Json::num(maxLoad_)).set("maxStore", Json::num(maxStore_));
  Json membar = Json::array();
  for (SeqNum m : maxMembarBit_) membar.push(Json::num(m));
  out.set("maxMembarBit", std::move(membar))
      .set("outstandingLoads",
           Json::num(static_cast<std::uint64_t>(outstandingLoads_.size())))
      .set("outstandingStores",
           Json::num(static_cast<std::uint64_t>(outstandingStores_.size())));
  if (outstandingLoads_.size() != 0)
    out.set("oldestOutstandingLoad", Json::num(outstandingLoads_.oldest()));
  if (outstandingStores_.size() != 0)
    out.set("oldestOutstandingStore", Json::num(outstandingStores_.oldest()));
  out.set("snapshotValid", Json::boolean(snapshotValid_));
  if (snapshotValid_) {
    out.set("snapshotLoad", Json::num(snapshotLoad_))
        .set("snapshotStore", Json::num(snapshotStore_));
  }
}

}  // namespace dvmc

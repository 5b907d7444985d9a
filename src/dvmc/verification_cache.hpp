// Verification Cache (VC) for the Uniprocessor Ordering checker (§4.1).
//
// During the verification stage all memory operations are replayed in
// program order. Replayed stores must not touch architectural state, so
// they write into the VC; replayed loads read the VC first and fall back to
// the cache hierarchy on a miss. A VC entry for a word lives from the
// commit of a store until that store performs (leaves the write buffer and
// is written to the cache); at deallocation the value written to the cache
// is compared against the verification copy, extending the checker's
// coverage to the write buffer itself.
//
// Entries are tagged with the committing store's sequence number: a load
// that re-enters the verification stage after a flush must only replay
// against stores older than itself, even though younger stores may have
// committed meanwhile (the replay is logically positioned at the load's
// program-order slot).
//
// Under models that do not order loads (RMO), load values are also parked
// in the VC at execute time and consumed at replay, avoiding cache accesses
// during verification (the optimization at the end of §4.1).
#pragma once

#include <cstdint>
#include <optional>

#include "common/error_sink.hpp"
#include "common/flat_map.hpp"
#include "common/pooled_fifo.hpp"
#include "common/types.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace dvmc {

class VerificationCache {
 public:
  VerificationCache(NodeId node, std::size_t wordCapacity, ErrorSink* sink)
      : node_(node), capacity_(wordCapacity), sink_(sink) {
    // The VC is bounded by construction (storeCommit stalls at capacity),
    // so one up-front reserve means it never rehashes.
    words_.reserve(capacity_);
  }

  /// True if a store allocation would fit (otherwise the verification stage
  /// must stall until older stores perform).
  bool canAllocate(Addr addr, std::size_t size) const;

  /// Replayed store: appends the store to the word's pending chain.
  void storeCommit(Addr addr, std::size_t size, std::uint64_t value,
                   SeqNum seq = 0);

  /// The store performed (wrote the cache): releases the oldest pending
  /// store on the word and checks that `performedValue` (what reached the
  /// cache) matches the verification copy.
  void storePerformed(Addr addr, std::size_t size,
                      std::uint64_t performedValue, Cycle now);

  /// A write-buffer entry was coalesced away: the store with rank `seq`
  /// logically performs with the value the buffer carried for it, which is
  /// checked against its committed copy (write-buffer corruption of a
  /// superseded store is still caught).
  void storeSuperseded(Addr addr, std::size_t size, SeqNum seq,
                       std::uint64_t bufferedValue, Cycle now);

  /// Replay lookup for an operation with program-order rank `seq`: value of
  /// the youngest pending store older than `seq` (nullopt = replay reads
  /// the cache instead). Parked values never satisfy this lookup.
  std::optional<std::uint64_t> lookupStoreOlderThan(Addr addr,
                                                    std::size_t size,
                                                    SeqNum seq) const;

  /// Youngest pending store regardless of rank (tests, microbenches).
  std::optional<std::uint64_t> lookupStore(Addr addr, std::size_t size) const;

  /// Any entry's current image (tests).
  std::optional<std::uint64_t> lookup(Addr addr, std::size_t size) const;

  /// RMO optimization: park an executed load's value for replay.
  void parkLoadValue(Addr addr, std::size_t size, std::uint64_t value);

  /// Consume a parked load value (frees it unless a store chain lives on
  /// the same word).
  std::optional<std::uint64_t> consumeParked(Addr addr, std::size_t size);

  std::size_t entries() const { return words_.size(); }
  const MetricSet& stats() const { return stats_; }

  /// Forensics dump: occupancy plus the focus word's full pending-store
  /// chain (sequence numbers and verification copies) and parked-load
  /// state — the evidence behind a UO deallocation-mismatch detection.
  void dumpForensics(Json& out, Addr focus) const;
  void clear() {
    for (auto& kv : words_) storePool_.clear(kv.second.stores);
    words_.clear();
    gEntries_.set(0);
  }

 private:
  struct PendingStore {
    SeqNum seq = 0;
    std::uint64_t value = 0;
  };
  struct WordEntry {
    PooledFifo<PendingStore> stores;  // oldest first; nodes in storePool_
    std::uint64_t parkedValue = 0;
    bool parkedLoad = false;
  };

  static Addr wordAlign(Addr a) { return a & ~Addr{7}; }

  NodeId node_;
  std::size_t capacity_;
  ErrorSink* sink_;
  FifoPool<PendingStore> storePool_;
  FlatMap<Addr, WordEntry> words_;

  // Metric registry (stats_ must precede the handles).
  MetricSet stats_;
  Counter cStoreCommit_ = stats_.counter("vc.storeCommit");
  Counter cStorePerformed_ = stats_.counter("vc.storePerformed");
  Counter cStoreSuperseded_ = stats_.counter("vc.storeSuperseded");
  Counter cPerformWithoutEntry_ = stats_.counter("vc.performWithoutEntry");
  Counter cDeallocMismatch_ = stats_.counter("vc.deallocMismatch");
  Counter cParkLoad_ = stats_.counter("vc.parkLoad");
  Counter cConsumeParked_ = stats_.counter("vc.consumeParked");
  Gauge gEntries_ = stats_.gauge("vc.entries");
};

}  // namespace dvmc

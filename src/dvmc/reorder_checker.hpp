// Allowable Reordering checker (Section 4.2).
//
// Every instruction gets a sequence number at decode (its program-order
// rank). When an operation performs, the checker verifies that no
// operation it is constrained to precede has already performed:
//
//     for every class OPy with a constraint OPx < OPy:
//         seqX > max{OPy}        (else: error)
//     then max{OPx} = max(max{OPx}, seqX)
//
// Membars carry a 4-bit mask, so instead of one max{Membar} counter the
// checker keeps one counter per mask bit (the performed-membar rank is
// meaningful only for the orderings that membar actually enforced).
//
// Lost-operation detection: committed operations are tracked until they
// perform; a periodic artificial membar snapshots the oldest outstanding
// operation per class, and an operation still outstanding at the next
// injection (default 100k cycles, as in the paper) is reported lost.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error_sink.hpp"
#include "common/types.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "consistency/ordering_table.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

class ReorderChecker {
 public:
  ReorderChecker(Simulator& sim, NodeId node, ErrorSink* sink)
      : sim_(sim), node_(node), sink_(sink) {}

  /// An operation was committed (it must eventually perform). Membars are
  /// not tracked here — they perform at commit.
  void onCommit(OpType type, SeqNum seq);

  /// An operation performed. `table` is the ordering table of the model the
  /// instruction executes under (32-bit code runs TSO under PSO/RMO), and
  /// `mask` is the membar's 4-bit mask (ignored for other types).
  void onPerform(OpType type, std::uint8_t mask, SeqNum seq,
                 const OrderingTable& table);

  /// Artificial membar injection: call once per injection period. Compares
  /// the oldest outstanding operations against the previous snapshot and
  /// reports operations that failed to perform for a whole period.
  void injectCheckpointMembar();

  const MetricSet& stats() const { return stats_; }
  SeqNum maxLoad() const { return maxLoad_; }
  SeqNum maxStore() const { return maxStore_; }
  /// Oldest committed load / store that has not performed (0 = none).
  SeqNum oldestOutstandingLoad() const { return outstandingLoads_.oldest(); }
  SeqNum oldestOutstandingStore() const {
    return outstandingStores_.oldest();
  }
  void reset();

  /// Forensics dump: the per-class max{OP} sequence registers (including
  /// the four per-mask-bit membar counters), outstanding-operation
  /// watermarks, and the lost-op snapshot — the state an AR violation is
  /// judged against.
  void dumpForensics(Json& out) const;

 private:
  /// Committed-but-unperformed sequence numbers of one class, with the
  /// semantics of a std::set<SeqNum> but only the oldest entry readable.
  /// Commits arrive in increasing order, so the slots are a sorted buffer
  /// that grows at the back; erase marks a slot dead (a binary search
  /// away) and the front skips dead slots. Dead slots are compacted away
  /// once they outnumber live ones, so a lost operation pinning the front
  /// cannot grow the buffer without bound, and the steady state allocates
  /// nothing.
  class OutstandingSet {
   public:
    void insert(SeqNum seq);
    void erase(SeqNum seq);
    std::size_t size() const { return live_; }
    /// Smallest live sequence number, or 0 when empty.
    SeqNum oldest() const { return live_ == 0 ? 0 : slots_[head_].seq; }
    void clear();

   private:
    struct Slot {
      SeqNum seq = 0;
      bool live = false;
    };
    void compact();

    std::vector<Slot> slots_;  // strictly increasing seq
    std::size_t head_ = 0;     // first live slot while live_ > 0
    std::size_t live_ = 0;
  };

  void checkAgainst(OpClass cls, std::uint8_t instMask, SeqNum seq,
                    const OrderingTable& table, const char* opName);
  void updateCounters(OpType type, std::uint8_t mask, SeqNum seq);
  void removeOutstanding(OpType type, SeqNum seq);
  void reportViolation(SeqNum seq, const char* what);

  Simulator& sim_;
  NodeId node_;
  ErrorSink* sink_;

  SeqNum maxLoad_ = 0;
  SeqNum maxStore_ = 0;
  SeqNum maxMembarBit_[4] = {0, 0, 0, 0};

  OutstandingSet outstandingLoads_;
  OutstandingSet outstandingStores_;
  SeqNum snapshotLoad_ = 0;   // oldest outstanding load at last injection
  SeqNum snapshotStore_ = 0;  // oldest outstanding store at last injection
  bool snapshotValid_ = false;

  // Metric registry (stats_ must precede the handles).
  MetricSet stats_;
  Counter cPerforms_ = stats_.counter("ar.performs");
  Counter cViolations_ = stats_.counter("ar.violations");
  Counter cInjectedMembars_ = stats_.counter("ar.injectedMembars");
  Counter cLostLoads_ = stats_.counter("ar.lostLoads");
  Counter cLostStores_ = stats_.counter("ar.lostStores");
};

}  // namespace dvmc

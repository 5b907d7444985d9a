// Interfaces between the processor, the coherent cache hierarchy, and the
// DVMC checkers.
//
// The processor issues asynchronous CacheOps and receives completion
// callbacks carrying the value, hit/miss information, and the logical time
// at which the operation performed. The DVMC Cache Coherence checker plugs
// in as an EpochObserver: the protocol controllers report epoch begin/end
// transitions and perform-time accesses; the checker maintains the CET and
// emits Inform-Epoch messages. Keeping the observer abstract means the
// protocols have no compile-time dependency on the checkers — mirroring the
// paper's claim that any SWMR-verifying scheme can be swapped in.
#pragma once

#include <cstdint>
#include <functional>

#include "common/data_block.hpp"
#include "common/inline_function.hpp"
#include "common/types.hpp"
#include "coherence/logical_clock.hpp"

namespace dvmc {

struct CacheOp {
  enum class Kind : std::uint8_t {
    kLoad,        // demand load (execution)
    kStore,       // store perform (write-buffer drain)
    kAtomicSwap,  // atomic exchange; returns old value
    kAtomicCas,   // compare-and-swap: writes only if old == compare
    kPrefetchS,   // acquire read permission, no access
    kPrefetchM,   // acquire write permission, no access
    kReplayLoad,  // verification-stage replay load (bypasses write buffer)
  };

  Kind kind = Kind::kLoad;

  // True when this access is the operation's *perform* point, i.e. the CET
  // rule-1 check and the AR checker's perform event should fire. The CPU
  // sets this per the model: stores always; loads at replay for ordered-load
  // models, at execution for RMO. (Declared beside `kind` so the two flags
  // share one padding slot: CacheOp rides inside scheduled-event captures
  // that must fit Simulator::kActionCapacityBytes.)
  bool countsAsPerform = false;

  Addr addr = 0;
  std::size_t size = 8;
  std::uint64_t value = 0;    // store value / atomic new value
  std::uint64_t compare = 0;  // kAtomicCas: expected old value
};

struct CacheOpResult {
  std::uint64_t value = 0;        // load result / atomic old value
  bool l1Hit = false;             // for replay-miss statistics (Fig. 6)
  std::uint64_t performLogical = 0;  // logical time at perform
  Cycle completedAt = 0;
};

/// Completion of a CacheOp. The 24-byte capture budget is the core's
/// [this, seq, gen, restartGen] (8 + 8 + 4 + 4); the callback is moved —
/// never copied — from the core through the hierarchy into an L2
/// controller's scheduled action or MSHR queue, so it adds 32 bytes there
/// and allocates nothing.
using CacheOpCallback = InlineFunction<void(const CacheOpResult&), 24>;
static_assert(sizeof(CacheOpCallback) <= 32,
              "CacheOpCallback rides inside controller action captures "
              "(Simulator::kActionCapacityBytes)");

/// Hints from the cache to the processor for load-order speculation.
/// `remoteWrite` is true when the loss is another processor taking write
/// permission (its store may change speculatively loaded values — squash);
/// false for local evictions, where values cannot have changed and the
/// verification-stage replay covers any later remote write to the
/// no-longer-tracked block (squashing on evictions would livelock a
/// thrashing set).
class CpuNotifier {
 public:
  virtual ~CpuNotifier() = default;
  virtual void onReadPermissionLost(Addr blk, bool remoteWrite) = 0;

  /// The L2 completed `op` with result `r`; called just before the op's
  /// callback runs. The cache hierarchy keeps its write-through L1 in step
  /// here (store/atomic write-through, load refill).
  virtual void onOpCompleted(const CacheOp& op, const CacheOpResult& r) {
    (void)op;
    (void)r;
  }
};

/// DVMC Cache Coherence checker hook implemented by CacheEpochChecker.
class EpochObserver {
 public:
  virtual ~EpochObserver() = default;

  /// An epoch begins: the cache gained read (RO) or write (RW) permission.
  /// `ltime` is the wide logical time of the grant — the controller's clock
  /// for the directory protocol, the request's position in the broadcast
  /// order for snooping (deferred snoop actions must be stamped with the
  /// order point of the snoop, not the wall-clock processing time).
  virtual void onEpochBegin(Addr blk, bool readWrite, const DataBlock& data,
                            std::uint64_t ltime) = 0;

  /// The current epoch for `blk` ends (downgrade, invalidation, eviction);
  /// `data` is the block's content at the end of the epoch.
  virtual void onEpochEnd(Addr blk, const DataBlock& data,
                          std::uint64_t ltime) = 0;

  /// Rule-1 check: an operation performs against `blk` at the cache.
  virtual void onPerformAccess(Addr blk, bool isWrite) = 0;
};

/// Hook implemented by the DVMC MemoryEpochChecker at each home node.
class HomeObserver {
 public:
  virtual ~HomeObserver() = default;

  /// A coherence request reached the home for `blk`; `memData` is the
  /// block's current memory image (used to seed a fresh MET entry).
  virtual void onHomeRequest(Addr blk, const DataBlock& memData) = 0;

  /// The home observed that no cache holds `blk` anymore (writeback
  /// accepted with no remaining sharers): the MET entry can be evicted —
  /// the paper's MET "only contains entries for blocks that are present in
  /// at least one of the processor caches".
  virtual void onBlockUncached(Addr blk) = 0;

  /// The home granted read (RO) or write (RW) permission to `to`. When the
  /// data came from memory, `memHash` is the CRC-16 of the served image.
  /// Serialized in home-processing order. Default no-op: the epoch checker
  /// derives everything from epochs instead.
  virtual void onHomeGrant(Addr blk, NodeId to, bool readWrite,
                           bool fromMemory, std::uint16_t memHash) {
    (void)blk;
    (void)to;
    (void)readWrite;
    (void)fromMemory;
    (void)memHash;
  }

  /// The home processed a writeback from `from` (accepted, or rejected as
  /// stale). `hash` is the CRC-16 of the written-back data.
  virtual void onHomeWriteback(Addr blk, NodeId from, std::uint16_t hash,
                               bool accepted) {
    (void)blk;
    (void)from;
    (void)hash;
    (void)accepted;
  }
};

/// Interleaves blocks across home nodes.
struct MemoryMap {
  std::size_t numNodes = 1;
  NodeId homeOf(Addr a) const {
    return static_cast<NodeId>((blockAddr(a) / kBlockSizeBytes) % numNodes);
  }
};

/// Fixed structural latencies (Table 6/7-inspired defaults at a 2 GHz core).
struct CoherenceTimings {
  Cycle l1Latency = 2;
  Cycle l2Latency = 12;
  Cycle storeLatency = 3;  // store/atomic write-port path (hit in M)
  Cycle memLatency = 160;
  Cycle ctrlLatency = 2;
};

/// Retry interval for a fill that found every way in its set
/// mid-transaction (the MSHR holds the response until a way frees).
inline constexpr Cycle kFillRetryCycles = 8;

/// Protocol-independent face of an L2 cache + coherence controller.
class CoherentCache {
 public:
  virtual ~CoherentCache() = default;

  virtual void request(const CacheOp& op, CacheOpCallback cb) = 0;

  virtual void setCpuNotifier(CpuNotifier* n) = 0;
  virtual void setEpochObserver(EpochObserver* o) = 0;
  virtual EpochObserver* epochObserver() const = 0;
  virtual LogicalClock& clock() = 0;

  /// Observes every performed store/atomic (address, size, value). The
  /// system layer uses this to maintain the architectural memory shadow
  /// that SafetyNet checkpoints.
  using StorePerformHook =
      std::function<void(Addr, std::size_t, std::uint64_t)>;
  virtual void setStorePerformHook(StorePerformHook h) = 0;

  /// Direct block lookup used by the L1 refill path and by tests; returns
  /// nullptr when the block has no read permission at L2.
  virtual const DataBlock* peekReadable(Addr blk) = 0;

  /// True when the block is held with write permission (M): a store to it
  /// drains without a coherence transaction. Drives the relaxed write
  /// buffer's owned-blocks-first issue policy (Table 5).
  virtual bool peekWritable(Addr blk) = 0;
};

}  // namespace dvmc

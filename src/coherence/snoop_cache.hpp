// L2 cache + cache-side controller for the MOSI snooping protocol.
//
// Requests broadcast on the ordered address network; the position of a
// request in that total order is the point at which it logically happens.
// Snoops that target a block we have an ordered-but-incomplete transaction
// for are deferred and applied after our data arrives, stamped with the
// logical time of their own order point (not of their delayed processing),
// which keeps the epoch timestamps causal.
#pragma once

#include <cstdint>

#include "coherence/cache_array.hpp"
#include "coherence/interfaces.hpp"
#include "coherence/logical_clock.hpp"
#include "common/error_sink.hpp"
#include "common/flat_map.hpp"
#include "common/pooled_fifo.hpp"
#include "obs/metrics.hpp"
#include "net/broadcast_tree.hpp"
#include "net/torus.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

class SnoopCacheController final : public CoherentCache {
 public:
  SnoopCacheController(Simulator& sim, BroadcastTree& addrNet,
                       TorusNetwork& dataNet, NodeId node, MemoryMap map,
                       CacheGeometry l2Geom, CoherenceTimings timings,
                       ErrorSink* sink);

  // --- CoherentCache ---
  void request(const CacheOp& op, CacheOpCallback cb) override;
  void setCpuNotifier(CpuNotifier* n) override { cpu_ = n; }
  void setEpochObserver(EpochObserver* o) override { epochs_ = o; }
  EpochObserver* epochObserver() const override { return epochs_; }
  void setStorePerformHook(StorePerformHook h) override {
    storeHook_ = std::move(h);
  }
  LogicalClock& clock() override { return clock_; }
  const DataBlock* peekReadable(Addr blk) override;
  bool peekWritable(Addr blk) override;

  /// Address-network entry: every broadcast, in total order.
  void onSnoop(const Message& msg);

  /// Data-network entry: kSnpData responses.
  void onMessage(const Message& msg);

  const MetricSet& stats() const { return stats_; }
  CacheArray& array() { return array_; }
  NodeId node() const { return node_; }
  void invalidateAll();
  bool idle() const { return mshrs_.empty() && wbBuffer_.empty(); }

 private:
  struct PendingOp {
    CacheOp op;
    CacheOpCallback cb;
  };

  struct WbEntry {
    DataBlock data;
    bool stillOwner = true;
  };

  struct Mshr {
    bool wantM = false;
    bool ordered = false;
    std::uint64_t orderTime = 0;  // clock value at our request's snoop
    bool dataReceived = false;
    DataBlock data;
    bool selfSupply = false;  // O -> M upgrade: our line has the data
    PooledFifo<Message> deferredSnoops;  // nodes in snoopPool_
    PooledFifo<PendingOp> ops;  // nodes in opPool_
  };

  void processOp(const CacheOp& op, CacheOpCallback cb);
  void completeOp(const CacheOp& op, CacheOpCallback& cb,
                  std::uint64_t value, bool performed);
  void startTransaction(Addr blk, bool wantM, PendingOp pending);
  void maybeComplete(Addr blk);
  void applySnoop(const Message& msg, std::uint64_t ltime);
  void installWithEviction(Addr blk, MosiState st, const DataBlock& d,
                           std::uint64_t ltime);
  void evictLine(CacheLine& line);
  void supplyData(NodeId dest, const Addr blk, const DataBlock& d);
  void notifyCpuLost(Addr blk, bool remoteWrite);

  Simulator& sim_;
  BroadcastTree& addrNet_;
  TorusNetwork& dataNet_;
  NodeId node_;
  MemoryMap map_;
  CoherenceTimings timings_;
  ErrorSink* sink_;
  CountingClock clock_;
  CacheArray array_;
  CpuNotifier* cpu_ = nullptr;
  EpochObserver* epochs_ = nullptr;
  StorePerformHook storeHook_;
  FifoPool<PendingOp> opPool_;  // ops queued behind an MSHR
  FifoPool<Message> snoopPool_;  // snoops deferred behind an MSHR
  FlatMap<Addr, Mshr> mshrs_;
  FlatMap<Addr, WbEntry> wbBuffer_;
  std::uint32_t gen_ = 0;  // bumped by invalidateAll (BER recovery)
  // Metric registry (stats_ must precede the handles).
  MetricSet stats_;
  Counter cHit_ = stats_.counter("l2.hit");
  Counter cMiss_ = stats_.counter("l2.miss");
  Counter cGetS_ = stats_.counter("l2.getS");
  Counter cGetM_ = stats_.counter("l2.getM");
  Counter cFillStall_ = stats_.counter("l2.fillStall");
  Counter cEvictClean_ = stats_.counter("l2.evictClean");
  Counter cEvictDirty_ = stats_.counter("l2.evictDirty");
  Counter cDataSupplied_ = stats_.counter("l2.dataSupplied");
  Counter cWbData_ = stats_.counter("l2.wbData");
  Counter cDeferredSnoop_ = stats_.counter("l2.deferredSnoop");
  Counter cStraySelfSnoop_ = stats_.counter("l2.straySelfSnoop");
  Counter cUnexpectedData_ = stats_.counter("l2.unexpectedData");
  Counter cStrayData_ = stats_.counter("l2.strayData");
};

}  // namespace dvmc

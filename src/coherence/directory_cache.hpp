// L2 cache + cache-side controller for the MOSI directory protocol.
//
// The controller keeps one MSHR per block; CPU operations arriving while a
// transaction is outstanding queue inside the MSHR and re-dispatch on
// completion. Evicted dirty (M/O) blocks move to a writeback buffer that
// keeps answering forwarded requests until the home acknowledges or NACKs
// the PutM; a new request for a block whose writeback is still in flight
// stalls until that acknowledgment (avoiding owner-re-request races at the
// blocking home).
//
// The controller drives the DVMC Cache Coherence checker through the
// EpochObserver interface: Read-Only epochs span S/O permission, Read-Write
// epochs span M permission, and every perform-time access is submitted for
// the CET rule-1 check.
#pragma once

#include <cstdint>
#include <memory>

#include "coherence/cache_array.hpp"
#include "coherence/interfaces.hpp"
#include "common/error_sink.hpp"
#include "common/flat_map.hpp"
#include "common/pooled_fifo.hpp"
#include "obs/metrics.hpp"
#include "net/torus.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

class DirectoryCacheController final : public CoherentCache {
 public:
  DirectoryCacheController(Simulator& sim, TorusNetwork& net, NodeId node,
                           MemoryMap map, CacheGeometry l2Geom,
                           CoherenceTimings timings, ErrorSink* sink,
                           std::unique_ptr<LogicalClock> clock);

  // --- CoherentCache ---
  void request(const CacheOp& op, CacheOpCallback cb) override;
  void setCpuNotifier(CpuNotifier* n) override { cpu_ = n; }
  void setEpochObserver(EpochObserver* o) override { epochs_ = o; }
  EpochObserver* epochObserver() const override { return epochs_; }
  void setStorePerformHook(StorePerformHook h) override {
    storeHook_ = std::move(h);
  }
  LogicalClock& clock() override { return *clock_; }
  const DataBlock* peekReadable(Addr blk) override;
  bool peekWritable(Addr blk) override;

  /// Network entry point (router dispatches cache-bound messages here).
  void onMessage(const Message& msg);

  const MetricSet& stats() const { return stats_; }
  CacheArray& array() { return array_; }
  NodeId node() const { return node_; }

  /// BER support: invalidate everything (epochs are closed; no informs are
  /// sent because the checker is reset around a recovery).
  void invalidateAll();

  /// True when no transactions or writebacks are in flight (quiesced).
  bool idle() const { return mshrs_.empty() && wbBuffer_.empty(); }

 private:
  struct PendingOp {
    CacheOp op;
    CacheOpCallback cb;
  };

  struct Mshr {
    bool wantM = false;
    bool requestSent = false;  // false while stalled behind a writeback
    bool dataReceived = false;
    bool dataCarried = false;  // Data message carried a payload
    DataBlock data;
    bool invStashed = false;  // an Inv raced this transaction; stash below
    DataBlock invStash;       // our line's data at that Inv
    int acksExpected = -1;  // unknown until the Data message arrives
    int acksReceived = 0;
    PooledFifo<PendingOp> ops;  // nodes in opPool_
  };

  void processOp(const CacheOp& op, CacheOpCallback cb);
  void completeOp(const CacheOp& op, CacheOpCallback& cb,
                  std::uint64_t value, bool performed);
  void startTransaction(Addr blk, bool wantM, PendingOp pending);
  void sendRequest(Addr blk, const Mshr& mshr);
  void maybeFinalize(Addr blk);
  void finalizeTransaction(Addr blk);
  void installWithEviction(Addr blk, MosiState st, const DataBlock& d);
  void evictLine(CacheLine& line);
  void handleFwdGetS(const Message& msg);
  void handleFwdGetM(const Message& msg);
  void handleInv(const Message& msg);
  void sendData(NodeId dest, Addr blk, const DataBlock& d, int ackCount);
  void send(Message m) { net_.send(std::move(m)); }
  void notifyCpuLost(Addr blk, bool remoteWrite);

  Simulator& sim_;
  TorusNetwork& net_;
  NodeId node_;
  MemoryMap map_;
  CoherenceTimings timings_;
  ErrorSink* sink_;
  std::unique_ptr<LogicalClock> clock_;
  CacheArray array_;
  CpuNotifier* cpu_ = nullptr;
  EpochObserver* epochs_ = nullptr;
  StorePerformHook storeHook_;
  FifoPool<PendingOp> opPool_;  // ops queued behind an MSHR
  FlatMap<Addr, Mshr> mshrs_;
  FlatMap<Addr, DataBlock> wbBuffer_;
  std::uint32_t gen_ = 0;  // bumped by invalidateAll (BER recovery)
  // Metric registry (stats_ must precede the handles).
  MetricSet stats_;
  Counter cHit_ = stats_.counter("l2.hit");
  Counter cMiss_ = stats_.counter("l2.miss");
  Counter cGetS_ = stats_.counter("l2.getS");
  Counter cGetM_ = stats_.counter("l2.getM");
  Counter cWbStall_ = stats_.counter("l2.wbStall");
  Counter cFillStall_ = stats_.counter("l2.fillStall");
  Counter cEvictClean_ = stats_.counter("l2.evictClean");
  Counter cEvictDirty_ = stats_.counter("l2.evictDirty");
  Counter cDataSupplied_ = stats_.counter("l2.dataSupplied");
  Counter cStrayData_ = stats_.counter("l2.strayData");
  Counter cStrayInvAck_ = stats_.counter("l2.strayInvAck");
  Counter cUpgradeNoData_ = stats_.counter("protocol.upgradeNoData");
  Counter cUnexpectedFwdGetS_ = stats_.counter("protocol.unexpectedFwdGetS");
  Counter cUnexpectedFwdGetM_ = stats_.counter("protocol.unexpectedFwdGetM");
};

}  // namespace dvmc

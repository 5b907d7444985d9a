// Memory controller for the MOSI snooping protocol.
//
// Every controller observes the totally ordered broadcast stream; this one
// tracks, per home block, whether memory or a cache is the current owner
// (updated purely from the snoop order, so all controllers agree), supplies
// data when memory owns the block, and holds requests that are ordered
// between a PutM and the arrival of its writeback data.
//
// The controller's CountingClock (requests processed so far) is the
// snooping logical time base used to seed MET entries.
#pragma once

#include <cstdint>

#include "coherence/interfaces.hpp"
#include "coherence/logical_clock.hpp"
#include "coherence/memory_storage.hpp"
#include "common/error_sink.hpp"
#include "common/flat_map.hpp"
#include "common/pooled_fifo.hpp"
#include "obs/metrics.hpp"
#include "net/torus.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

class SnoopMemoryController {
 public:
  SnoopMemoryController(Simulator& sim, TorusNetwork& dataNet, NodeId node,
                        MemoryMap map, CoherenceTimings timings,
                        ErrorSink* sink);

  /// Address-network entry: every broadcast request, in total order.
  void onSnoop(const Message& msg);

  /// Data-network entry: writeback data (kSnpWbData).
  void onMessage(const Message& msg);

  void setHomeObserver(HomeObserver* o) { homeObserver_ = o; }

  MemoryStorage& memory() { return memory_; }
  CountingClock& clock() { return clock_; }
  const MetricSet& stats() const { return stats_; }

  NodeId cacheOwnerOf(Addr blk) const;

  /// BER recovery: memory owns every block again.
  void resetState() {
    for (auto& kv : state_) waitPool_.clear(kv.second.waiting);
    state_.clear();
    ++gen_;
  }

 private:
  struct HomeState {
    NodeId ownerCache = kInvalidNode;  // kInvalidNode => memory owns
    bool awaitingWb = false;
    NodeId wbFrom = kInvalidNode;  // evictor whose WbData is in flight
    PooledFifo<Message> waiting;  // requests memory must answer after
                                  // WbData; nodes in waitPool_
  };

  void supplyData(Addr blk, NodeId dest);

  Simulator& sim_;
  TorusNetwork& dataNet_;
  MessagePool pool_;  // parks memory-latency data replies in flight
  NodeId node_;
  MemoryMap map_;
  CoherenceTimings timings_;
  ErrorSink* sink_;
  HomeObserver* homeObserver_ = nullptr;
  MemoryStorage memory_;
  CountingClock clock_;
  FifoPool<Message> waitPool_;
  FlatMap<Addr, HomeState> state_;
  std::uint32_t gen_ = 0;
  // Metric registry (stats_ must precede the handles).
  MetricSet stats_;
  Counter cDataSupplied_ = stats_.counter("mem.dataSupplied");
  Counter cPutM_ = stats_.counter("mem.putM");
  Counter cStalePutM_ = stats_.counter("mem.stalePutM");
  Counter cHeldForWb_ = stats_.counter("mem.heldForWb");
  Counter cUnexpectedData_ = stats_.counter("mem.unexpectedData");
  Counter cMisrouted_ = stats_.counter("mem.misrouted");
};

}  // namespace dvmc

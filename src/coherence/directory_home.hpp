// Home memory controller for the MOSI directory protocol.
//
// A blocking directory: while a GetS/GetM transaction is in flight for a
// block, later requests for that block queue at the home and are released
// by the requester's Unblock message. The home forwards requests to the
// current owner (FwdGetS / FwdGetM), sends invalidations to sharers, and
// supplies data from memory when it is the owner. PutM writebacks are
// accepted from the registered owner and NACKed when they race with an
// ownership transfer (the evictor serves forwards from its writeback
// buffer in the meantime).
#pragma once

#include <cstdint>
#include <vector>

#include "coherence/interfaces.hpp"
#include "coherence/memory_storage.hpp"
#include "common/assert.hpp"
#include "common/error_sink.hpp"
#include "common/flat_map.hpp"
#include "common/pooled_fifo.hpp"
#include "obs/metrics.hpp"
#include "net/torus.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

class DirectoryHome {
 public:
  DirectoryHome(Simulator& sim, TorusNetwork& net, NodeId node,
                MemoryMap map, CoherenceTimings timings, ErrorSink* sink);

  /// Network entry point (router dispatches home-bound messages here).
  void onMessage(const Message& msg);

  void setHomeObserver(HomeObserver* o) { homeObserver_ = o; }

  MemoryStorage& memory() { return memory_; }
  const MetricSet& stats() const { return stats_; }

  /// Directory introspection for tests.
  NodeId ownerOf(Addr blk) const;
  /// Registered sharers, in ascending node order.
  std::vector<NodeId> sharersOf(Addr blk) const;
  bool isBusy(Addr blk) const;

  /// Number of blocks with a directory entry (MET sizing, Section 6.3).
  std::size_t directoryEntries() const { return dir_.size(); }

  /// BER recovery: caches were invalidated and memory restored; memory owns
  /// every block again and pending transactions are squashed.
  void resetDirectory() {
    for (auto& kv : dir_) pendingPool_.clear(kv.second.pending);
    dir_.clear();
    ++gen_;  // squash scheduled home events from the rolled-back past
  }

 private:
  /// Sharer bitset: bit n set while node n is registered as a sharer.
  /// Iterated lowest bit first, so Invs go out in ascending node order.
  using NodeSet = std::uint64_t;
  static constexpr std::size_t kMaxNodes = 64;

  struct DirEntry {
    NodeId owner = kInvalidNode;
    NodeSet sharers = 0;
    bool busy = false;
    PooledFifo<Message> pending;  // nodes in pendingPool_
  };

  static NodeSet nodeBit(NodeId n) {
    DVMC_ASSERT(n < kMaxNodes, "node id outside the sharer bitset");
    return NodeSet{1} << n;
  }

  void process(const Message& msg, DirEntry& e);
  void handleGetS(const Message& msg, DirEntry& e);
  void handleGetM(const Message& msg, DirEntry& e);
  void handlePutM(const Message& msg, DirEntry& e);
  void serviceQueue(Addr blk);
  void sendDataFromMemory(Addr blk, NodeId dest, int ackCount);
  void send(Message m) { net_.send(std::move(m)); }

  Simulator& sim_;
  TorusNetwork& net_;
  MessagePool pool_;  // parks memory-latency data replies in flight
  NodeId node_;
  MemoryMap map_;
  CoherenceTimings timings_;
  ErrorSink* sink_;
  HomeObserver* homeObserver_ = nullptr;
  MemoryStorage memory_;
  FifoPool<Message> pendingPool_;  // requests queued at a busy block
  FlatMap<Addr, DirEntry> dir_;
  std::uint32_t gen_ = 0;
  // Metric registry (stats_ must precede the handles).
  MetricSet stats_;
  Counter cServiced_ = stats_.counter("home.serviced");
  Counter cGetS_ = stats_.counter("home.getS");
  Counter cGetM_ = stats_.counter("home.getM");
  Counter cFwdGetS_ = stats_.counter("home.fwdGetS");
  Counter cFwdGetM_ = stats_.counter("home.fwdGetM");
  Counter cUpgradeAck_ = stats_.counter("home.upgradeAck");
  Counter cInv_ = stats_.counter("home.inv");
  Counter cPutM_ = stats_.counter("home.putM");
  Counter cNackPutM_ = stats_.counter("home.nackPutM");
  Counter cMemData_ = stats_.counter("home.memData");
  Counter cOwnerReRequest_ = stats_.counter("home.ownerReRequest");
  Counter cStrayUnblock_ = stats_.counter("home.strayUnblock");
  Counter cMisrouted_ = stats_.counter("home.misrouted");
};

}  // namespace dvmc

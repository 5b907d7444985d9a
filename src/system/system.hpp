// Full-system assembly: N nodes, each with a core, an L1+L2 hierarchy, a
// protocol controller (directory or snooping), a slice of memory, and —
// when enabled — the three DVMC checkers and SafetyNet BER. This is the
// simulated machine every experiment in the paper runs on.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ber/safety_net.hpp"
#include "coherence/directory_cache.hpp"
#include "coherence/directory_home.hpp"
#include "coherence/hierarchy.hpp"
#include "coherence/snoop_cache.hpp"
#include "coherence/snoop_memory.hpp"
#include "common/error_sink.hpp"
#include "common/flat_map.hpp"
#include "cpu/core.hpp"
#include "dvmc/cache_epoch_checker.hpp"
#include "dvmc/memory_epoch_checker.hpp"
#include "dvmc/reorder_checker.hpp"
#include "dvmc/shadow_checker.hpp"
#include "dvmc/verification_cache.hpp"
#include "net/broadcast_tree.hpp"
#include "net/torus.hpp"
#include "sim/simulator.hpp"
#include "system/config.hpp"
#include "verify/trace.hpp"
#include "workload/synthetic.hpp"

namespace dvmc {

class System {
 public:
  explicit System(SystemConfig cfg);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Runs until the transaction target is reached (barnes: all cores
  /// finish) or maxCycles elapse; fills and returns the result.
  RunResult run();

  /// Runs until `extraPred` becomes true as well (fault experiments).
  /// A template, like Simulator::runUntil, so the whole per-event stop
  /// check — the caller's predicate, the all-done test and the running
  /// transaction total — inlines into the dispatch loop.
  template <class Pred>
  RunResult runUntil(Pred&& extraPred) {
    const bool barrierWorkload = startRun();
    const Cycle startCycle = sim_.now();
    const bool reached = sim_.runUntil(
        [&] {
          if (extraPred()) return true;
          if (allCoresDone()) return true;  // finite programs completed
          if (barrierWorkload) return false;
          return txTotal_ >= cfg_.targetTransactions;
        },
        startCycle + cfg_.maxCycles);
    return collectResult(reached, sim_.now() - startCycle);
  }

  /// Closes the commit-trace capture: flushes the unsettled chunk tail to
  /// any attached trace sink and ends the stream. run() calls this;
  /// callers driving runUntil/collectResult by hand call it once the run
  /// is really over. Idempotent; a no-op when capture is off.
  void finishTraceCapture();

  /// End-of-run checker sweep: flushes every open epoch out of the CETs,
  /// lets the informs propagate, then drains the MET queues so epochs
  /// still open when the program ended get their data-propagation checks.
  /// Terminal: the CET bookkeeping is gone afterwards, so the system must
  /// not keep running — call only once, right before the final
  /// collectResult().
  void drainCheckers();

  // --- measurement control ---
  void resetNetStats();
  /// Completed transactions summed over every core; O(1), a running
  /// total each core keeps current (Core::setTransactionTotal).
  std::uint64_t totalTransactions() const { return txTotal_; }
  bool allCoresDone() const;

  // --- component access (tests, fault injection, benches) ---
  Simulator& sim() { return sim_; }
  ErrorSink& sink() { return sink_; }
  const SystemConfig& config() const { return cfg_; }
  TorusNetwork& dataNet() { return *torus_; }
  BroadcastTree* addrNet() { return tree_.get(); }
  Core& core(NodeId n) { return *nodes_[n].core; }
  CacheHierarchy& hierarchy(NodeId n) { return *nodes_[n].hierarchy; }
  CoherentCache& l2(NodeId n) { return *nodes_[n].l2; }
  DirectoryHome* home(NodeId n) { return nodes_[n].home.get(); }
  SnoopMemoryController* snoopMem(NodeId n) { return nodes_[n].snoopMem.get(); }
  MemoryEpochChecker* met(NodeId n) { return nodes_[n].met.get(); }
  CacheEpochChecker* cet(NodeId n) { return nodes_[n].cet.get(); }
  ShadowCacheChecker* shadowCache(NodeId n) {
    return nodes_[n].shadowCache.get();
  }
  ShadowHomeChecker* shadowHome(NodeId n) {
    return nodes_[n].shadowHome.get();
  }
  SafetyNet* ber() { return ber_.get(); }
  std::size_t numNodes() const { return cfg_.numNodes; }

  /// Test/tooling hook observing every performed store (runs in addition
  /// to the internal architectural-shadow bookkeeping).
  using StoreAuditHook =
      std::function<void(NodeId, Addr, std::size_t, std::uint64_t)>;
  void setStoreAuditHook(StoreAuditHook h) { auditHook_ = std::move(h); }

  /// SafetyNet plumbing (public for tests). captureSnapshot() seals the
  /// live undo segment into the returned checkpoint (O(blocks dirtied
  /// since the previous capture)); restoreSnapshot() rolls the shadow
  /// image back by replaying the live segment plus every newer
  /// checkpoint's segment, newest first.
  SafetyNet::Snapshot captureSnapshot();
  void restoreSnapshot(
      const SafetyNet::Snapshot& target,
      const std::vector<const SafetyNet::Snapshot*>& newerNewestFirst = {});

  /// The architectural memory image (performed-store shadow). Tests
  /// compare recovered state against independently reconstructed images.
  const FlatMap<Addr, DataBlock>& memoryImage() const { return shadow_; }

  /// Triggers BER recovery to the newest checkpoint before `errorCycle`.
  bool recover(Cycle errorCycle);

  /// Collects a RunResult from the current counters (run() calls this).
  RunResult collectResult(bool completed, Cycle cycles) const;

  /// Snapshot of every component's metric registry. Aggregated across
  /// nodes by default; with `perNode` each node's metrics additionally
  /// appear under a "nodeN/" prefix.
  MetricSnapshot metricsSnapshot(bool perNode = false) const;

 private:
  struct Node {
    // Directory flavor.
    std::unique_ptr<DirectoryHome> home;
    DirectoryCacheController* dirCache = nullptr;
    // Snooping flavor.
    std::unique_ptr<SnoopMemoryController> snoopMem;
    SnoopCacheController* snpCache = nullptr;

    std::unique_ptr<CoherentCache> l2;
    std::unique_ptr<CacheHierarchy> hierarchy;
    std::unique_ptr<CacheEpochChecker> cet;
    std::unique_ptr<MemoryEpochChecker> met;
    std::unique_ptr<ShadowCacheChecker> shadowCache;
    std::unique_ptr<ShadowHomeChecker> shadowHome;
    std::unique_ptr<PhysicalLogicalClock> metClock;  // directory time base
    std::unique_ptr<VerificationCache> vc;
    std::unique_ptr<ReorderChecker> ar;
    std::unique_ptr<Core> core;
    std::unique_ptr<NetworkEndpoint> dataRouter;
    std::unique_ptr<NetworkEndpoint> addrRouter;
  };

  void buildNode(NodeId n);
  std::unique_ptr<ThreadProgram> makeProgram(NodeId n) const;
  void sendCheckpointTraffic();
  Json buildForensicsBundle(const Detection& d);

  // Interval sampler (--sample-every). Column names are resolved to raw
  // metric-slot pointers once at run start; each tick then sums a handful
  // of pointers instead of snapshotting every registry (net.* columns read
  // the torus accumulators directly).
  struct SampleColumn {
    enum class Net { kNone, kTotal, kCoherence, kInform, kCkpt };
    Net net = Net::kNone;
    std::vector<const std::uint64_t*> slots;
  };
  void buildSamplePlan();
  void scheduleSampleTick();
  /// Starts the machine on the first call (cores, BER, interval
  /// sampling). Returns whether the workload is barrier-driven: such a
  /// run stops only when every core is done, not at a transaction target.
  bool startRun();

  SystemConfig cfg_;
  Simulator sim_;
  ErrorSink sink_;
  // Checkpoint messages are absorbed at the endpoint and only counted.
  // Per-system (not global): parallel runSeeds runs Systems concurrently.
  MetricSet ckptMsgStats_;
  Counter cCkptMsgsReceived_ = ckptMsgStats_.counter("ber.msgsReceived");
  MemoryMap map_;
  // Private tracer backing the forensics last-K window when the run has no
  // --trace tracer of its own (sized to the recorder's window).
  std::unique_ptr<EventTracer> ownedTracer_;
  // Interval sampler output (null unless cfg_.sampleEvery > 0).
  std::shared_ptr<TimeSeries> series_;
  // Commit-point recorder (null unless cfg_.trace.capture).
  std::unique_ptr<verify::TraceRecorder> traceRecorder_;
  std::vector<SampleColumn> samplePlan_;
  std::unique_ptr<TorusNetwork> torus_;
  std::unique_ptr<BroadcastTree> tree_;
  std::vector<Node> nodes_;
  std::unique_ptr<SafetyNet> ber_;

  // Architectural memory shadow: updated at every performed store; the
  // basis for SafetyNet checkpoints.
  void armAutoRecovery();

  FlatMap<Addr, DataBlock> shadow_;
  // Undo log for the open (live) checkpoint interval: the first store to a
  // block since the last checkpoint records the block's prior state here
  // (maintained only when BER is enabled).
  std::vector<SafetyNet::UndoRecord> liveUndo_;
  FlatMap<Addr, bool> dirtySinceCkpt_;
  StoreAuditHook auditHook_;
  std::uint64_t storesSinceCkpt_ = 0;
  std::size_t handledDetections_ = 0;
  std::uint64_t unrecoverable_ = 0;
  bool recoveryPending_ = false;  // a burst-consuming check is scheduled
  bool started_ = false;
  std::uint64_t txTotal_ = 0;  // see totalTransactions()
};

}  // namespace dvmc

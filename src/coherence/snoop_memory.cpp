#include "coherence/snoop_memory.hpp"

#include "common/assert.hpp"
#include "common/crc16.hpp"

namespace dvmc {

SnoopMemoryController::SnoopMemoryController(Simulator& sim,
                                             TorusNetwork& dataNet,
                                             NodeId node, MemoryMap map,
                                             CoherenceTimings timings,
                                             ErrorSink* sink)
    : sim_(sim),
      dataNet_(dataNet),
      node_(node),
      map_(map),
      timings_(timings),
      sink_(sink),
      memory_(/*eccProtected=*/true) {}

NodeId SnoopMemoryController::cacheOwnerOf(Addr blk) const {
  auto it = state_.find(blk);
  return it == state_.end() ? kInvalidNode : it->second.ownerCache;
}

void SnoopMemoryController::onSnoop(const Message& msg) {
  // Logical time: one tick per coherence request processed, for every
  // controller, so all controllers' counts agree at each order point.
  clock_.tick();

  const Addr blk = blockAddr(msg.addr);
  if (map_.homeOf(blk) != node_) return;  // not our slice

  HomeState& h = state_[blk];
  if (homeObserver_ != nullptr &&
      (msg.type == MsgType::kSnpGetS || msg.type == MsgType::kSnpGetM)) {
    homeObserver_->onHomeRequest(blk,
                                 memory_.read(blk, sink_, node_, sim_.now()));
  }

  switch (msg.type) {
    case MsgType::kSnpGetS: {
      const bool fromMemory =
          h.ownerCache == kInvalidNode && !h.awaitingWb;
      bool deferredGrant = false;
      if (h.ownerCache == kInvalidNode) {
        if (h.awaitingWb) {
          // Grant notification deferred to writeback-data arrival so the
          // shadow checker sees writeback-then-grant in logical order.
          waitPool_.push(h.waiting, msg);
          deferredGrant = true;
          cHeldForWb_.inc();
        } else {
          supplyData(blk, msg.src);
        }
      }
      // A cache owner (possibly mid-writeback) supplies otherwise.
      if (!deferredGrant && homeObserver_ != nullptr) {
        homeObserver_->onHomeGrant(
            blk, msg.src, /*readWrite=*/false, fromMemory,
            fromMemory
                ? hashBlock(memory_.read(blk, sink_, node_, sim_.now()))
                : static_cast<std::uint16_t>(0));
      }
      break;
    }
    case MsgType::kSnpGetM: {
      const bool fromMemory =
          h.ownerCache == kInvalidNode && !h.awaitingWb;
      bool deferredGrant = false;
      if (h.ownerCache == kInvalidNode) {
        if (h.awaitingWb) {
          waitPool_.push(h.waiting, msg);
          deferredGrant = true;
          cHeldForWb_.inc();
        } else if (msg.src != kInvalidNode) {
          supplyData(blk, msg.src);
        }
      }
      if (!deferredGrant && homeObserver_ != nullptr) {
        homeObserver_->onHomeGrant(
            blk, msg.src, /*readWrite=*/true, fromMemory,
            fromMemory
                ? hashBlock(memory_.read(blk, sink_, node_, sim_.now()))
                : static_cast<std::uint16_t>(0));
      }
      // Ownership transfers to the requester at this order point.
      h.ownerCache = msg.src;
      break;
    }
    case MsgType::kSnpPutM:
      if (h.ownerCache == msg.src) {
        h.ownerCache = kInvalidNode;
        h.awaitingWb = true;
        h.wbFrom = msg.src;
        cPutM_.inc();
      } else {
        cStalePutM_.inc();  // ownership raced away; data discarded
        if (homeObserver_ != nullptr) {
          homeObserver_->onHomeWriteback(blk, msg.src, 0,
                                         /*accepted=*/false);
        }
      }
      break;
    default:
      break;  // non-coherence broadcasts are ignored
  }
}

void SnoopMemoryController::onMessage(const Message& msg) {
  if (msg.type != MsgType::kSnpWbData) {
    cUnexpectedData_.inc();
    return;
  }
  const Addr blk = blockAddr(msg.addr);
  if (map_.homeOf(blk) != node_) {
    cMisrouted_.inc();
    return;
  }
  DVMC_ASSERT(msg.hasData, "WbData without payload");
  memory_.write(blk, msg.data);
  HomeState& h = state_[blk];
  if (homeObserver_ != nullptr) {
    homeObserver_->onHomeWriteback(blk, h.wbFrom, hashBlock(msg.data),
                                   /*accepted=*/true);
  }
  h.awaitingWb = false;
  PooledFifo<Message> waiting = std::move(h.waiting);
  while (!waiting.empty()) {
    const Message w = waitPool_.pop(waiting);
    supplyData(blk, w.src);
    if (homeObserver_ != nullptr) {
      homeObserver_->onHomeGrant(
          blk, w.src, /*readWrite=*/w.type == MsgType::kSnpGetM,
          /*fromMemory=*/true,
          hashBlock(memory_.read(blk, sink_, node_, sim_.now())));
    }
  }
  // Note: snooping homes do NOT raise onBlockUncached — they cannot see
  // read-only sharers, and evicting the MET entry while RO epochs are
  // still open poisons the re-seeded entry's last-RW time (a false
  // positive when the open epoch's inform finally arrives). MET entry
  // eviction is a directory-protocol feature here, matching the paper's
  // directory-centric MET sizing discussion.
}

void SnoopMemoryController::supplyData(Addr blk, NodeId dest) {
  // Built at the read point, parked in the pool for the memory latency:
  // the scheduled event carries a 16-byte handle, not a DataBlock capture.
  Message m;
  m.type = MsgType::kSnpData;
  m.src = node_;
  m.dest = dest;
  m.addr = blk;
  m.hasData = true;
  m.data = memory_.read(blk, sink_, node_, sim_.now());
  m.fromMemory = true;
  sim_.schedule(timings_.memLatency,
                [this, pm = pool_.acquire(std::move(m)), g = gen_]() mutable {
                  if (g != gen_) return;  // squashed by BER recovery
                  dataNet_.send(std::move(*pm));
                });
  cDataSupplied_.inc();
}

}  // namespace dvmc

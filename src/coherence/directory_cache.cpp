#include "coherence/directory_cache.hpp"

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace dvmc {

DirectoryCacheController::DirectoryCacheController(
    Simulator& sim, TorusNetwork& net, NodeId node, MemoryMap map,
    CacheGeometry l2Geom, CoherenceTimings timings, ErrorSink* sink,
    std::unique_ptr<LogicalClock> clock)
    : sim_(sim),
      net_(net),
      node_(node),
      map_(map),
      timings_(timings),
      sink_(sink),
      clock_(std::move(clock)),
      array_(l2Geom, /*eccProtected=*/true) {}

const DataBlock* DirectoryCacheController::peekReadable(Addr blk) {
  CacheLine* line = array_.find(blk);
  if (line != nullptr && mosiCanRead(line->state)) return &line->data;
  return nullptr;
}

bool DirectoryCacheController::peekWritable(Addr blk) {
  CacheLine* line = array_.find(blk);
  return line != nullptr && mosiCanWrite(line->state);
}

void DirectoryCacheController::request(const CacheOp& op, CacheOpCallback cb) {
  // Loads pay the full L2 array access; stores and atomics drain through
  // the dedicated write port (writes to an already-owned line are cheap —
  // they would hit an L1-class writeback structure in a real hierarchy).
  const bool writePath = op.kind == CacheOp::Kind::kStore ||
                         op.kind == CacheOp::Kind::kAtomicSwap ||
                         op.kind == CacheOp::Kind::kAtomicCas;
  const Cycle lat = writePath ? timings_.storeLatency : timings_.l2Latency;
  sim_.schedule(lat, [this, op, cb = std::move(cb), g = gen_]() mutable {
    if (g != gen_) return;  // squashed by BER recovery
    processOp(op, std::move(cb));
  });
}

void DirectoryCacheController::processOp(const CacheOp& op,
                                         CacheOpCallback cb) {
  const Addr blk = blockAddr(op.addr);

  // A transaction is already in flight: queue behind it.
  auto mit = mshrs_.find(blk);
  if (mit != mshrs_.end()) {
    opPool_.push(mit->second.ops, PendingOp{op, std::move(cb)});
    return;
  }

  CacheLine* line = array_.find(blk);
  const bool needsWrite = op.kind == CacheOp::Kind::kStore ||
                          op.kind == CacheOp::Kind::kAtomicSwap ||
                          op.kind == CacheOp::Kind::kAtomicCas ||
                          op.kind == CacheOp::Kind::kPrefetchM;

  if (line != nullptr && mosiCanRead(line->state) &&
      (!needsWrite || mosiCanWrite(line->state))) {
    array_.touch(*line, sink_, node_, sim_.now());
    cHit_.inc();
    const std::size_t off = blockOffset(op.addr);
    switch (op.kind) {
      case CacheOp::Kind::kLoad:
      case CacheOp::Kind::kReplayLoad:
        completeOp(op, cb, line->data.read(off, op.size), op.countsAsPerform);
        return;
      case CacheOp::Kind::kStore:
        line->data.write(off, op.size, op.value);
        if (storeHook_) storeHook_(op.addr, op.size, op.value);
        completeOp(op, cb, 0, true);
        return;
      case CacheOp::Kind::kAtomicSwap: {
        const std::uint64_t old = line->data.read(off, op.size);
        line->data.write(off, op.size, op.value);
        if (storeHook_) storeHook_(op.addr, op.size, op.value);
        completeOp(op, cb, old, true);
        return;
      }
      case CacheOp::Kind::kAtomicCas: {
        const std::uint64_t old = line->data.read(off, op.size);
        if (old == op.compare) {
          line->data.write(off, op.size, op.value);
          if (storeHook_) storeHook_(op.addr, op.size, op.value);
        }
        completeOp(op, cb, old, true);
        return;
      }
      case CacheOp::Kind::kPrefetchS:
      case CacheOp::Kind::kPrefetchM:
        completeOp(op, cb, 0, false);
        return;
    }
  }

  cMiss_.inc();
  if (auto* t = sim_.tracer()) {
    t->instant(sim_.now(), TraceKind::kCoherence,
               needsWrite ? "l2.missM" : "l2.missS", node_, blk, 0);
  }
  startTransaction(blk, needsWrite, PendingOp{op, std::move(cb)});
}

void DirectoryCacheController::completeOp(const CacheOp& op,
                                          CacheOpCallback& cb,
                                          std::uint64_t value,
                                          bool performed) {
  if (performed && epochs_ != nullptr) {
    const bool isWrite = op.kind == CacheOp::Kind::kStore ||
                         op.kind == CacheOp::Kind::kAtomicSwap ||
                         op.kind == CacheOp::Kind::kAtomicCas;
    epochs_->onPerformAccess(blockAddr(op.addr), isWrite);
  }
  CacheOpResult r;
  r.value = value;
  r.performLogical = clock_->now();
  r.completedAt = sim_.now();
  if (cpu_ != nullptr) cpu_->onOpCompleted(op, r);
  if (cb) cb(r);
}

void DirectoryCacheController::startTransaction(Addr blk, bool wantM,
                                                PendingOp pending) {
  Mshr& m = mshrs_[blk];
  m.wantM = wantM;
  opPool_.push(m.ops, std::move(pending));
  if (wbBuffer_.count(blk) != 0) {
    // Our own writeback for this block is still in flight; wait for the
    // PutAck/Nack before re-requesting, so the home never sees the current
    // owner re-request its own block.
    m.requestSent = false;
    cWbStall_.inc();
    return;
  }
  sendRequest(blk, m);
  mshrs_[blk].requestSent = true;
}

void DirectoryCacheController::sendRequest(Addr blk, const Mshr& mshr) {
  Message req;
  req.type = mshr.wantM ? MsgType::kGetM : MsgType::kGetS;
  req.src = node_;
  req.dest = map_.homeOf(blk);
  req.addr = blk;
  send(req);
  (mshr.wantM ? cGetM_ : cGetS_).inc();
}

void DirectoryCacheController::onMessage(const Message& msg) {
  const Addr blk = blockAddr(msg.addr);
  switch (msg.type) {
    case MsgType::kData: {
      auto it = mshrs_.find(blk);
      if (it == mshrs_.end()) {
        // Possible only under injected faults (duplicated or misrouted
        // message); drop it and let the checkers flag any consequence.
        cStrayData_.inc();
        return;
      }
      Mshr& m = it->second;
      m.dataReceived = true;
      m.acksExpected = msg.ackCount;
      if (msg.hasData) {
        m.dataCarried = true;
        m.data = msg.data;
      }
      maybeFinalize(blk);
      return;
    }
    case MsgType::kInvAck: {
      auto it = mshrs_.find(blk);
      if (it == mshrs_.end()) {
        // Possible only under injected faults (e.g., duplicated message).
        cStrayInvAck_.inc();
        return;
      }
      ++it->second.acksReceived;
      maybeFinalize(blk);
      return;
    }
    case MsgType::kFwdGetS:
      handleFwdGetS(msg);
      return;
    case MsgType::kFwdGetM:
      handleFwdGetM(msg);
      return;
    case MsgType::kInv:
      handleInv(msg);
      return;
    case MsgType::kPutAck:
    case MsgType::kNackPutM: {
      wbBuffer_.erase(blk);
      auto it = mshrs_.find(blk);
      if (it != mshrs_.end() && !it->second.requestSent) {
        sendRequest(blk, it->second);
        it->second.requestSent = true;
      }
      return;
    }
    default:
      DVMC_FATAL("unexpected message type at cache controller");
  }
}

void DirectoryCacheController::maybeFinalize(Addr blk) {
  auto it = mshrs_.find(blk);
  DVMC_ASSERT(it != mshrs_.end(), "finalize without MSHR");
  Mshr& m = it->second;
  if (!m.dataReceived) return;
  if (m.acksExpected >= 0 && m.acksReceived < m.acksExpected) return;
  finalizeTransaction(blk);
}

void DirectoryCacheController::finalizeTransaction(Addr blk) {
  // A fill needs a way. When every line in the set is itself
  // mid-transaction (upgrade MSHR, writeback awaiting its PutAck), hardware
  // holds the response in the MSHR until a way frees; model that as a
  // bounded-latency retry. The blocked transactions never depend on this
  // block's unblock, so one of them always completes.
  if (CacheLine* l = array_.find(blk); l == nullptr || !mosiCanRead(l->state)) {
    if (array_.victim(blk, [this](const CacheLine& c) {
          return mshrs_.count(c.tag) == 0 && wbBuffer_.count(c.tag) == 0;
        }) == nullptr) {
      cFillStall_.inc();
      sim_.schedule(kFillRetryCycles, [this, blk, g = gen_] {
        if (g != gen_) return;  // squashed by BER recovery
        if (mshrs_.count(blk) != 0) finalizeTransaction(blk);
      });
      return;
    }
  }

  Mshr m = std::move(mshrs_.at(blk));
  mshrs_.erase(blk);

  CacheLine* line = array_.find(blk);
  if (line != nullptr && mosiCanRead(line->state)) {
    // Upgrade path (S -> M or O -> M): close the Read-Only epoch, adopt the
    // freshest data, open the Read-Write epoch.
    DVMC_ASSERT(m.wantM, "GetS completion with a valid line");
    if (epochs_ != nullptr) epochs_->onEpochEnd(blk, line->data, clock_->now());
    if (m.dataCarried) line->data = m.data;
    line->state = MosiState::kM;
    array_.touch(*line, sink_, node_, sim_.now());
    if (epochs_ != nullptr) epochs_->onEpochBegin(blk, true, line->data, clock_->now());
  } else if (m.dataCarried) {
    installWithEviction(blk, m.wantM ? MosiState::kM : MosiState::kS, m.data);
  } else if (m.invStashed) {
    // Ack-count-only upgrade whose line vanished mid-flight to a stale Inv
    // (ordered before the grant that produced our copy — the home still
    // listing us proves no writer intervened since), so the stashed copy
    // is the current data.
    installWithEviction(blk, m.wantM ? MosiState::kM : MosiState::kS,
                        m.invStash);
  } else {
    // Ack-count-only upgrade with no local copy at all: the home believes
    // we are the owner, but our line left without a writeback — possible
    // only under injected faults (a state flip demoting M so the eviction
    // went out silently as clean, or a duplicated writeback resurrecting
    // stale ownership). An ownership grant without data for a block we do
    // not hold is a protocol invariant violation the controller can see
    // locally, so report it — a permission-only coherence checker has no
    // data hashes to catch the consequence otherwise. Install a zeroed
    // block to keep the machine running until recovery reacts.
    cUpgradeNoData_.inc();
    if (sink_ != nullptr) {
      sink_->report({CheckerKind::kCacheCoherence, sim_.now(), node_, blk,
                     "ownership grant without data for an absent block"});
    }
    installWithEviction(blk, m.wantM ? MosiState::kM : MosiState::kS,
                        DataBlock{});
  }

  Message unblock;
  unblock.type = MsgType::kUnblock;
  unblock.src = node_;
  unblock.dest = map_.homeOf(blk);
  unblock.addr = blk;
  send(unblock);

  // Re-dispatch queued operations; each either hits now or (e.g., a store
  // queued behind a GetS) starts its own follow-up transaction.
  while (!m.ops.empty()) {
    PendingOp p = opPool_.pop(m.ops);
    processOp(p.op, std::move(p.cb));
  }
}

void DirectoryCacheController::installWithEviction(Addr blk, MosiState st,
                                                   const DataBlock& d) {
  CacheLine* victim = array_.victim(blk, [this](const CacheLine& l) {
    return mshrs_.count(l.tag) == 0 && wbBuffer_.count(l.tag) == 0;
  });
  DVMC_ASSERT(victim != nullptr, "no evictable way in set");
  if (victim->valid) evictLine(*victim);
  array_.install(*victim, blk, st, d);
  if (epochs_ != nullptr) {
    epochs_->onEpochBegin(blk, st == MosiState::kM, d, clock_->now());
  }
}

void DirectoryCacheController::evictLine(CacheLine& line) {
  const Addr blk = line.tag;
  if (epochs_ != nullptr) epochs_->onEpochEnd(blk, line.data, clock_->now());
  if (mosiIsOwner(line.state)) {
    wbBuffer_[blk] = line.data;
    Message putm;
    putm.type = MsgType::kPutM;
    putm.src = node_;
    putm.dest = map_.homeOf(blk);
    putm.addr = blk;
    putm.hasData = true;
    putm.data = line.data;
    send(putm);
    cEvictDirty_.inc();
  } else {
    cEvictClean_.inc();
  }
  line.valid = false;
  line.state = MosiState::kI;
  notifyCpuLost(blk, /*remoteWrite=*/false);  // local eviction
}

void DirectoryCacheController::handleFwdGetS(const Message& msg) {
  const Addr blk = blockAddr(msg.addr);
  CacheLine* line = array_.find(blk);
  if (line != nullptr && mosiIsOwner(line->state)) {
    array_.touch(*line, sink_, node_, sim_.now());
    sendData(msg.requester, blk, line->data, 0);
    if (line->state == MosiState::kM) {
      // M -> O: the Read-Write epoch ends, a Read-Only epoch begins.
      if (epochs_ != nullptr) {
        epochs_->onEpochEnd(blk, line->data, clock_->now());
        epochs_->onEpochBegin(blk, false, line->data, clock_->now());
      }
      line->state = MosiState::kO;
    }
    return;
  }
  auto wb = wbBuffer_.find(blk);
  if (wb != wbBuffer_.end()) {
    sendData(msg.requester, blk, wb->second, 0);
    return;
  }
  // Unreachable in a fault-free run: the home forwarded to us but we are
  // not the owner — a locally visible protocol invariant violation. Report
  // it (a permission-only coherence checker has no data hashes to catch
  // the fabricated payload downstream) and keep the system limping.
  cUnexpectedFwdGetS_.inc();
  if (sink_ != nullptr) {
    sink_->report({CheckerKind::kCacheCoherence, sim_.now(), node_, blk,
                   "FwdGetS received for a block this node does not own"});
  }
  sendData(msg.requester, blk, line != nullptr ? line->data : DataBlock{}, 0);
}

void DirectoryCacheController::handleFwdGetM(const Message& msg) {
  const Addr blk = blockAddr(msg.addr);
  CacheLine* line = array_.find(blk);
  if (line != nullptr && mosiCanRead(line->state)) {
    array_.touch(*line, sink_, node_, sim_.now());
    sendData(msg.requester, blk, line->data, msg.ackCount);
    if (epochs_ != nullptr) epochs_->onEpochEnd(blk, line->data, clock_->now());
    line->valid = false;
    line->state = MosiState::kI;
    notifyCpuLost(blk, /*remoteWrite=*/true);  // a remote GetM took it
    return;
  }
  auto wb = wbBuffer_.find(blk);
  if (wb != wbBuffer_.end()) {
    sendData(msg.requester, blk, wb->second, msg.ackCount);
    return;
  }
  // Same invariant violation as the FwdGetS case above, but for an
  // ownership transfer: the requester would install and dirty a fabricated
  // block, which only a data-hashing checker could catch later.
  cUnexpectedFwdGetM_.inc();
  if (sink_ != nullptr) {
    sink_->report({CheckerKind::kCacheCoherence, sim_.now(), node_, blk,
                   "FwdGetM received for a block this node does not own"});
  }
  sendData(msg.requester, blk, DataBlock{}, msg.ackCount);
}

void DirectoryCacheController::handleInv(const Message& msg) {
  const Addr blk = blockAddr(msg.addr);
  CacheLine* line = array_.find(blk);
  if (line != nullptr && mosiCanRead(line->state)) {
    if (auto it = mshrs_.find(blk); it != mshrs_.end()) {
      // The Inv raced our own outstanding transaction. If it was ordered
      // before the grant that gave us this copy (stale Inv from a slow
      // network), an ack-count-only upgrade response still expects us to
      // hold the data — keep a copy so finalize can install it.
      it->second.invStash = line->data;
      it->second.invStashed = true;
    }
    if (epochs_ != nullptr) epochs_->onEpochEnd(blk, line->data, clock_->now());
    line->valid = false;
    line->state = MosiState::kI;
  }
  // An Inv after a silent S-eviction finds no line, but the CPU may still
  // hold speculatively performed loads on the block — the squash hint must
  // fire regardless of line presence.
  notifyCpuLost(blk, /*remoteWrite=*/true);
  Message ack;
  ack.type = MsgType::kInvAck;
  ack.src = node_;
  ack.dest = msg.requester;
  ack.addr = blk;
  send(ack);
}

void DirectoryCacheController::sendData(NodeId dest, Addr blk,
                                        const DataBlock& d, int ackCount) {
  Message m;
  m.type = MsgType::kData;
  m.src = node_;
  m.dest = dest;
  m.addr = blk;
  m.hasData = true;
  m.data = d;
  m.ackCount = ackCount;
  send(m);
  cDataSupplied_.inc();
}

void DirectoryCacheController::notifyCpuLost(Addr blk, bool remoteWrite) {
  if (cpu_ != nullptr) cpu_->onReadPermissionLost(blk, remoteWrite);
}

void DirectoryCacheController::invalidateAll() {
  array_.forEachValid([](CacheLine& line) {
    line.valid = false;
    line.state = MosiState::kI;
  });
  for (auto& kv : mshrs_) opPool_.clear(kv.second.ops);
  mshrs_.clear();
  wbBuffer_.clear();
  ++gen_;  // squash scheduled controller events from the rolled-back past
}

}  // namespace dvmc

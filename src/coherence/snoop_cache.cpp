#include "coherence/snoop_cache.hpp"

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace dvmc {

SnoopCacheController::SnoopCacheController(Simulator& sim,
                                           BroadcastTree& addrNet,
                                           TorusNetwork& dataNet, NodeId node,
                                           MemoryMap map, CacheGeometry l2Geom,
                                           CoherenceTimings timings,
                                           ErrorSink* sink)
    : sim_(sim),
      addrNet_(addrNet),
      dataNet_(dataNet),
      node_(node),
      map_(map),
      timings_(timings),
      sink_(sink),
      array_(l2Geom, /*eccProtected=*/true) {}

const DataBlock* SnoopCacheController::peekReadable(Addr blk) {
  CacheLine* line = array_.find(blk);
  if (line != nullptr && mosiCanRead(line->state)) return &line->data;
  return nullptr;
}

bool SnoopCacheController::peekWritable(Addr blk) {
  CacheLine* line = array_.find(blk);
  return line != nullptr && mosiCanWrite(line->state);
}

void SnoopCacheController::request(const CacheOp& op, CacheOpCallback cb) {
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

void SnoopCacheController::processOp(const CacheOp& op, CacheOpCallback cb) {
  const Addr blk = blockAddr(op.addr);

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

void SnoopCacheController::completeOp(const CacheOp& op,
                                      CacheOpCallback& cb,
                                      std::uint64_t value, bool performed) {
  if (performed && epochs_ != nullptr) {
    const bool isWrite = op.kind == CacheOp::Kind::kStore ||
                         op.kind == CacheOp::Kind::kAtomicSwap ||
                         op.kind == CacheOp::Kind::kAtomicCas;
    epochs_->onPerformAccess(blockAddr(op.addr), isWrite);
  }
  CacheOpResult r;
  r.value = value;
  r.performLogical = clock_.now();
  r.completedAt = sim_.now();
  if (cpu_ != nullptr) cpu_->onOpCompleted(op, r);
  if (cb) cb(r);
}

void SnoopCacheController::startTransaction(Addr blk, bool wantM,
                                            PendingOp pending) {
  Mshr& m = mshrs_[blk];
  m.wantM = wantM;
  opPool_.push(m.ops, std::move(pending));

  Message req;
  req.type = wantM ? MsgType::kSnpGetM : MsgType::kSnpGetS;
  req.src = node_;
  req.addr = blk;
  addrNet_.broadcast(req);
  (wantM ? cGetM_ : cGetS_).inc();
}

void SnoopCacheController::onSnoop(const Message& msg) {
  clock_.tick();
  const std::uint64_t ltime = clock_.now();
  const Addr blk = blockAddr(msg.addr);

  if (msg.src == node_) {
    // Our own request reached its order point.
    if (msg.type == MsgType::kSnpGetS || msg.type == MsgType::kSnpGetM) {
      auto it = mshrs_.find(blk);
      if (it == mshrs_.end()) {
        cStraySelfSnoop_.inc();  // duplicated broadcast fault
        return;
      }
      Mshr& m = it->second;
      m.ordered = true;
      m.orderTime = ltime;
      if (m.wantM) {
        CacheLine* line = array_.find(blk);
        if (line != nullptr && line->state == MosiState::kO) {
          // O -> M upgrade: we are the owner; nobody else supplies data.
          m.selfSupply = true;
        }
      }
      maybeComplete(blk);
    } else if (msg.type == MsgType::kSnpPutM) {
      auto wb = wbBuffer_.find(blk);
      if (wb != wbBuffer_.end()) {
        if (wb->second.stillOwner) {
          // Ownership returns to memory at this order point; ship the data.
          Message d;
          d.type = MsgType::kSnpWbData;
          d.src = node_;
          d.dest = map_.homeOf(blk);
          d.addr = blk;
          d.hasData = true;
          d.data = wb->second.data;
          dataNet_.send(d);
          cWbData_.inc();
        }
        wbBuffer_.erase(wb);
      }
    }
    return;
  }

  // Somebody else's request. If we have an ordered-but-incomplete
  // transaction on this block, the snoop logically follows our transaction
  // and must wait for our data.
  auto it = mshrs_.find(blk);
  if (it != mshrs_.end() && it->second.ordered) {
    snoopPool_.push(it->second.deferredSnoops, msg);
    cDeferredSnoop_.inc();
    return;
  }
  applySnoop(msg, ltime);
}

void SnoopCacheController::applySnoop(const Message& msg,
                                      std::uint64_t ltime) {
  const Addr blk = blockAddr(msg.addr);
  CacheLine* line = array_.find(blk);

  switch (msg.type) {
    case MsgType::kSnpGetS:
      if (line != nullptr && mosiIsOwner(line->state)) {
        array_.touch(*line, sink_, node_, sim_.now());
        supplyData(msg.src, blk, line->data);
        if (line->state == MosiState::kM) {
          if (epochs_ != nullptr) {
            epochs_->onEpochEnd(blk, line->data, ltime);
            epochs_->onEpochBegin(blk, false, line->data, ltime);
          }
          line->state = MosiState::kO;
        }
      } else if (auto wb = wbBuffer_.find(blk);
                 wb != wbBuffer_.end() && wb->second.stillOwner) {
        supplyData(msg.src, blk, wb->second.data);
      }
      return;
    case MsgType::kSnpGetM:
      if (line != nullptr && mosiCanRead(line->state)) {
        if (mosiIsOwner(line->state)) {
          supplyData(msg.src, blk, line->data);
        }
        if (epochs_ != nullptr) epochs_->onEpochEnd(blk, line->data, ltime);
        line->valid = false;
        line->state = MosiState::kI;
      } else if (auto wb = wbBuffer_.find(blk);
                 wb != wbBuffer_.end() && wb->second.stillOwner) {
        supplyData(msg.src, blk, wb->second.data);
        wb->second.stillOwner = false;
      }
      // A remote writer is taking the block. Even with no line present
      // (silent eviction) the CPU may hold speculatively performed loads on
      // it, so the squash hint fires regardless of line presence.
      notifyCpuLost(blk, /*remoteWrite=*/true);
      return;
    case MsgType::kSnpPutM:
      return;  // memory handles writebacks
    default:
      return;
  }
}

void SnoopCacheController::onMessage(const Message& msg) {
  if (msg.type != MsgType::kSnpData) {
    cUnexpectedData_.inc();
    return;
  }
  const Addr blk = blockAddr(msg.addr);
  auto it = mshrs_.find(blk);
  if (it == mshrs_.end()) {
    cStrayData_.inc();
    return;
  }
  it->second.dataReceived = true;
  it->second.data = msg.data;
  maybeComplete(blk);
}

void SnoopCacheController::maybeComplete(Addr blk) {
  auto it = mshrs_.find(blk);
  DVMC_ASSERT(it != mshrs_.end(), "complete without MSHR");
  Mshr& m = it->second;
  if (!m.ordered) return;
  if (!m.dataReceived && !m.selfSupply) return;

  // A fill needs a way. When every line in the set is itself
  // mid-transaction (upgrade MSHR, writeback awaiting its data turn),
  // hardware holds the response in the MSHR until a way frees; model that
  // as a bounded-latency retry. Snoops for this block keep deferring
  // meanwhile, and the blocked transactions never depend on this fill.
  if (CacheLine* l = array_.find(blk); l == nullptr || !mosiCanRead(l->state)) {
    if (array_.victim(blk, [this](const CacheLine& c) {
          return mshrs_.count(c.tag) == 0 && wbBuffer_.count(c.tag) == 0;
        }) == nullptr) {
      cFillStall_.inc();
      sim_.schedule(kFillRetryCycles, [this, blk, g = gen_] {
        if (g != gen_) return;  // squashed by BER recovery
        if (mshrs_.count(blk) != 0) maybeComplete(blk);
      });
      return;
    }
  }

  // Move the MSHR out before installing: eviction and op re-dispatch below
  // may create new transactions for other blocks.
  Mshr done = std::move(m);
  mshrs_.erase(it);

  CacheLine* line = array_.find(blk);
  if (line != nullptr && mosiCanRead(line->state)) {
    DVMC_ASSERT(done.wantM, "GetS completion with a valid line");
    if (epochs_ != nullptr) {
      epochs_->onEpochEnd(blk, line->data, done.orderTime);
    }
    if (done.dataReceived) line->data = done.data;
    line->state = MosiState::kM;
    array_.touch(*line, sink_, node_, sim_.now());
    if (epochs_ != nullptr) {
      epochs_->onEpochBegin(blk, true, line->data, done.orderTime);
    }
  } else {
    DVMC_ASSERT(done.dataReceived, "install without data payload");
    installWithEviction(blk, done.wantM ? MosiState::kM : MosiState::kS,
                        done.data, done.orderTime);
  }

  // Perform the queued CPU operations inside our epoch, then honor the
  // snoops that were ordered after our request.
  while (!done.ops.empty()) {
    PendingOp p = opPool_.pop(done.ops);
    processOp(p.op, std::move(p.cb));
  }
  while (!done.deferredSnoops.empty()) {
    const Message snoop = snoopPool_.pop(done.deferredSnoops);
    applySnoop(snoop, snoop.snoopOrder + 1);
  }
}

void SnoopCacheController::installWithEviction(Addr blk, MosiState st,
                                               const DataBlock& d,
                                               std::uint64_t ltime) {
  CacheLine* victim = array_.victim(blk, [this](const CacheLine& l) {
    return mshrs_.count(l.tag) == 0 && wbBuffer_.count(l.tag) == 0;
  });
  DVMC_ASSERT(victim != nullptr, "no evictable way in set");
  if (victim->valid) evictLine(*victim);
  array_.install(*victim, blk, st, d);
  if (epochs_ != nullptr) {
    epochs_->onEpochBegin(blk, st == MosiState::kM, d, ltime);
  }
}

void SnoopCacheController::evictLine(CacheLine& line) {
  const Addr blk = line.tag;
  if (epochs_ != nullptr) epochs_->onEpochEnd(blk, line.data, clock_.now());
  if (mosiIsOwner(line.state)) {
    wbBuffer_[blk] = WbEntry{line.data, true};
    Message putm;
    putm.type = MsgType::kSnpPutM;
    putm.src = node_;
    putm.addr = blk;
    addrNet_.broadcast(putm);
    cEvictDirty_.inc();
  } else {
    cEvictClean_.inc();
  }
  line.valid = false;
  line.state = MosiState::kI;
  notifyCpuLost(blk, /*remoteWrite=*/false);  // local eviction
}

void SnoopCacheController::supplyData(NodeId dest, const Addr blk,
                                      const DataBlock& d) {
  Message m;
  m.type = MsgType::kSnpData;
  m.src = node_;
  m.dest = dest;
  m.addr = blk;
  m.hasData = true;
  m.data = d;
  dataNet_.send(m);
  cDataSupplied_.inc();
}

void SnoopCacheController::notifyCpuLost(Addr blk, bool remoteWrite) {
  if (cpu_ != nullptr) cpu_->onReadPermissionLost(blk, remoteWrite);
}

void SnoopCacheController::invalidateAll() {
  array_.forEachValid([](CacheLine& line) {
    line.valid = false;
    line.state = MosiState::kI;
  });
  for (auto& kv : mshrs_) {
    opPool_.clear(kv.second.ops);
    snoopPool_.clear(kv.second.deferredSnoops);
  }
  mshrs_.clear();
  wbBuffer_.clear();
  ++gen_;  // squash scheduled controller events from the rolled-back past
}

}  // namespace dvmc

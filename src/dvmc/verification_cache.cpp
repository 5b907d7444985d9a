#include "dvmc/verification_cache.hpp"

#include "common/assert.hpp"

namespace dvmc {

// The simulated ISA issues naturally aligned 8-byte memory operations
// (Appendix A's proofs likewise assume word-granularity access), which
// keeps VC entries exact word images.

bool VerificationCache::canAllocate(Addr addr, std::size_t size) const {
  DVMC_ASSERT(size == 8, "VC is word (8-byte) granular");
  const Addr w = wordAlign(addr);
  if (words_.count(w) != 0) return true;  // merges into the existing entry
  return words_.size() < capacity_;
}

void VerificationCache::storeCommit(Addr addr, std::size_t size,
                                    std::uint64_t value, SeqNum seq) {
  DVMC_ASSERT(size == 8, "VC is word (8-byte) granular");
  WordEntry& e = words_[wordAlign(addr)];
  storePool_.push(e.stores, PendingStore{seq, value});
  cStoreCommit_.inc();
  gEntries_.set(words_.size());
}

void VerificationCache::storePerformed(Addr addr, std::size_t size,
                                       std::uint64_t performedValue,
                                       Cycle now) {
  DVMC_ASSERT(size == 8, "VC is word (8-byte) granular");
  const Addr w = wordAlign(addr);
  auto it = words_.find(w);
  if (it == words_.end() || it->second.stores.empty()) {
    // The write buffer performed a store the VC never saw committed —
    // a fabricated or duplicated store (fault).
    if (sink_ != nullptr) {
      sink_->report({CheckerKind::kUniprocessorOrdering, now, node_, addr,
                     "store performed without VC entry"});
    }
    cPerformWithoutEntry_.inc();
    return;
  }
  WordEntry& e = it->second;
  // Same-word stores drain in commit order, so the performing store is the
  // oldest pending one. Deallocation check (Appendix A.1.1): the value
  // that reached the cache must equal the committed value.
  if (performedValue != e.stores.front().value) {
    if (sink_ != nullptr) {
      sink_->report({CheckerKind::kUniprocessorOrdering, now, node_, addr,
                     "write-buffer value mismatch at VC deallocation"});
    }
    cDeallocMismatch_.inc();
  }
  storePool_.pop(e.stores);
  if (e.stores.empty() && !e.parkedLoad) words_.erase(it);
  gEntries_.set(words_.size());
  cStorePerformed_.inc();
}

void VerificationCache::storeSuperseded(Addr addr, std::size_t size,
                                        SeqNum seq,
                                        std::uint64_t bufferedValue,
                                        Cycle now) {
  DVMC_ASSERT(size == 8, "VC is word (8-byte) granular");
  const Addr w = wordAlign(addr);
  auto it = words_.find(w);
  if (it == words_.end()) {
    cPerformWithoutEntry_.inc();
    return;
  }
  WordEntry& e = it->second;
  const std::optional<PendingStore> removed = storePool_.removeFirst(
      e.stores, [seq](const PendingStore& p) { return p.seq == seq; });
  if (!removed) {
    cPerformWithoutEntry_.inc();
    return;
  }
  if (removed->value != bufferedValue) {
    if (sink_ != nullptr) {
      sink_->report({CheckerKind::kUniprocessorOrdering, now, node_, addr,
                     "write-buffer value mismatch at coalesce"});
    }
    cDeallocMismatch_.inc();
  }
  if (e.stores.empty() && !e.parkedLoad) words_.erase(it);
  gEntries_.set(words_.size());
  cStoreSuperseded_.inc();
}

std::optional<std::uint64_t> VerificationCache::lookupStoreOlderThan(
    Addr addr, std::size_t size, SeqNum seq) const {
  DVMC_ASSERT(size == 8, "VC is word (8-byte) granular");
  auto it = words_.find(wordAlign(addr));
  if (it == words_.end()) return std::nullopt;
  // The youngest (last, in commit order) pending store older than `seq`.
  std::optional<std::uint64_t> value;
  for (const PendingStore& s : it->second.stores) {
    if (s.seq < seq) value = s.value;
  }
  return value;
}

std::optional<std::uint64_t> VerificationCache::lookupStore(
    Addr addr, std::size_t size) const {
  DVMC_ASSERT(size == 8, "VC is word (8-byte) granular");
  auto it = words_.find(wordAlign(addr));
  if (it == words_.end() || it->second.stores.empty()) return std::nullopt;
  return it->second.stores.back().value;
}

std::optional<std::uint64_t> VerificationCache::lookup(
    Addr addr, std::size_t size) const {
  DVMC_ASSERT(size == 8, "VC is word (8-byte) granular");
  auto it = words_.find(wordAlign(addr));
  if (it == words_.end()) return std::nullopt;
  if (!it->second.stores.empty()) return it->second.stores.back().value;
  if (it->second.parkedLoad) return it->second.parkedValue;
  return std::nullopt;
}

void VerificationCache::parkLoadValue(Addr addr, std::size_t size,
                                      std::uint64_t value) {
  DVMC_ASSERT(size == 8, "VC is word (8-byte) granular");
  WordEntry& e = words_[wordAlign(addr)];
  e.parkedValue = value;
  e.parkedLoad = true;
  cParkLoad_.inc();
  gEntries_.set(words_.size());
}

std::optional<std::uint64_t> VerificationCache::consumeParked(
    Addr addr, std::size_t size) {
  DVMC_ASSERT(size == 8, "VC is word (8-byte) granular");
  const Addr w = wordAlign(addr);
  auto it = words_.find(w);
  if (it == words_.end() || !it->second.parkedLoad) return std::nullopt;
  const std::uint64_t v = it->second.parkedValue;
  it->second.parkedLoad = false;
  if (it->second.stores.empty()) words_.erase(it);
  gEntries_.set(words_.size());
  cConsumeParked_.inc();
  return v;
}

void VerificationCache::dumpForensics(Json& out, Addr focus) const {
  out.set("entries", Json::num(static_cast<std::uint64_t>(words_.size())))
      .set("capacityWords", Json::num(static_cast<std::uint64_t>(capacity_)));
  const Addr w = wordAlign(focus);
  out.set("focusWord", Json::num(w));
  auto it = words_.find(w);
  out.set("focusResident", Json::boolean(it != words_.end()));
  if (it == words_.end()) return;
  const WordEntry& e = it->second;
  Json chain = Json::array();
  for (const PendingStore& s : e.stores) {
    Json rec = Json::object();
    rec.set("seq", Json::num(s.seq)).set("value", Json::num(s.value));
    chain.push(std::move(rec));
  }
  out.set("pendingStores", std::move(chain))
      .set("parkedLoad", Json::boolean(e.parkedLoad));
  if (e.parkedLoad) out.set("parkedValue", Json::num(e.parkedValue));
}

}  // namespace dvmc

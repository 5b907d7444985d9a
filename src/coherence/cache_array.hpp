// Set-associative cache data/tag array with MOSI state and an ECC model.
//
// One CacheArray backs each L1 and each L2. Lines carry real data; the ECC
// model tracks injected bit flips per line: a single pending flip is
// corrected on the next access (single-error-correcting code, as the paper
// requires on all cache lines for SafetyNet), while multi-bit flips are
// detected-but-uncorrectable and reported to the ErrorSink.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/data_block.hpp"
#include "common/error_sink.hpp"
#include "common/types.hpp"
#include "obs/json.hpp"

namespace dvmc {

enum class MosiState : std::uint8_t { kI, kS, kO, kM };
const char* mosiName(MosiState s);

inline bool mosiCanRead(MosiState s) { return s != MosiState::kI; }
inline bool mosiCanWrite(MosiState s) { return s == MosiState::kM; }
inline bool mosiIsOwner(MosiState s) {
  return s == MosiState::kM || s == MosiState::kO;
}

struct CacheLine {
  bool valid = false;
  Addr tag = 0;  // full block address for simplicity
  MosiState state = MosiState::kI;
  DataBlock data;
  std::uint64_t lastUse = 0;

  // ECC ledger: bit indices of injected-but-unrepaired flips.
  std::vector<std::size_t> pendingFlips;
};

struct CacheGeometry {
  std::size_t sets = 128;
  std::size_t ways = 4;
  std::size_t capacityBytes() const { return sets * ways * kBlockSizeBytes; }
};

class CacheArray {
 public:
  CacheArray(CacheGeometry geom, bool eccProtected);

  /// Finds the line holding `blk` (block-aligned address) or nullptr.
  CacheLine* find(Addr blk);
  const CacheLine* find(Addr blk) const;

  /// Chooses a victim way in blk's set: an invalid line if any, else the
  /// LRU line among those for which `evictable` returns true (lines with
  /// in-flight transactions must be skipped). Returns nullptr if every way
  /// is pinned. The returned line may hold a valid block that the caller
  /// must evict first.
  template <class Evictable>
  CacheLine* victim(Addr blk, Evictable&& evictable) {
    const std::size_t base = setIndex(blk) * geom_.ways;
    CacheLine* best = nullptr;
    for (std::size_t w = 0; w < geom_.ways; ++w) {
      CacheLine& line = lines_[base + w];
      if (!line.valid) return &line;
      if (!evictable(static_cast<const CacheLine&>(line))) continue;
      if (best == nullptr || line.lastUse < best->lastUse) best = &line;
    }
    return best;
  }

  /// Installs `blk` into the given line (caller handled any eviction).
  void install(CacheLine& line, Addr blk, MosiState st, const DataBlock& d);

  /// Marks a line recently used and runs the ECC access check.
  /// Reports uncorrectable errors to `sink` (may be null).
  void touch(CacheLine& line, ErrorSink* sink, NodeId node, Cycle now);

  /// Fault-injection entry point: flip one bit of a random resident line.
  /// Returns the affected block address, or nullopt if the cache is empty.
  std::optional<Addr> injectBitFlip(std::uint64_t rand, ErrorSink* sink,
                                    NodeId node, Cycle now);

  /// Flips a MOSI state bit on a random resident line (escapes ECC, which
  /// covers data only). Returns affected block and new state.
  std::optional<std::pair<Addr, MosiState>> injectStateFlip(
      std::uint64_t rand);

  /// Iterates over all valid lines (checkpointing, invalidation sweeps).
  template <class Fn>
  void forEachValid(Fn&& fn) {
    for (auto& line : lines_) {
      if (line.valid) fn(line);
    }
  }

  std::size_t numSets() const { return geom_.sets; }
  std::size_t numWays() const { return geom_.ways; }
  std::size_t capacityBytes() const { return geom_.capacityBytes(); }
  std::uint64_t eccCorrections() const { return eccCorrections_; }

  /// Forensics dump: valid-line occupancy and, when the focus block is
  /// resident, its MOSI state, data CRC-16, LRU stamp, and pending ECC
  /// flips — the cache-side evidence behind a coherence detection.
  void dumpForensics(Json& out, Addr focus) const;

 private:
  std::size_t setIndex(Addr blk) const {
    return static_cast<std::size_t>((blk / kBlockSizeBytes) % geom_.sets);
  }

  CacheGeometry geom_;
  bool ecc_;
  std::vector<CacheLine> lines_;  // sets * ways, row-major by set
  std::uint64_t useCounter_ = 0;
  std::uint64_t eccCorrections_ = 0;
};

}  // namespace dvmc

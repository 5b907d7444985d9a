// Abstract instruction stream.
//
// The simulated ISA carries exactly the information the memory system and
// the DVMC checkers observe: loads, stores, atomic swaps, membars with a
// SPARC-style 4-bit mask, and COMPUTE bundles that model non-memory work as
// a latency. Every memory operation is a naturally aligned 8-byte word
// access. Instructions may be tagged 32-bit (SPARC v8 compatibility code),
// which forces TSO semantics under PSO/RMO (Table 8).
//
// Programs are pull-based: the core requests the next instruction at
// dispatch. Value-dependent control flow (spin locks, barriers) is modeled
// with feedback tokens: an instruction with token != 0 reports its final
// value back via onResult(), and the program may return std::nullopt from
// next() until that feedback arrives (a fetch stall, as a mispredictable
// branch would cause).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/types.hpp"
#include "consistency/op.hpp"

namespace dvmc {

struct Instr {
  enum class Kind : std::uint8_t {
    kLoad,
    kStore,
    kSwap,     // atomic exchange: returns old value, writes `value`
    kCas,      // compare-and-swap: writes `value` iff old == `compare`
    kMembar,   // mask in membarMask; Stbar == mask kStoreStore
    kCompute,  // non-memory work: occupies the pipeline for `latency` cycles
  };

  Kind kind = Kind::kCompute;
  Addr addr = 0;
  std::uint64_t value = 0;
  std::uint64_t compare = 0;  // kCas expected value
  std::uint8_t membarMask = 0;
  std::uint16_t latency = 1;   // kCompute execution latency
  bool is32Bit = false;        // v8 code: runs TSO under PSO/RMO
  std::uint64_t token = 0;     // != 0: report the final value to the program

  static Instr load(Addr a, std::uint64_t token = 0) {
    Instr i;
    i.kind = Kind::kLoad;
    i.addr = a;
    i.token = token;
    return i;
  }
  static Instr store(Addr a, std::uint64_t v) {
    Instr i;
    i.kind = Kind::kStore;
    i.addr = a;
    i.value = v;
    return i;
  }
  static Instr swap(Addr a, std::uint64_t v, std::uint64_t token = 0) {
    Instr i;
    i.kind = Kind::kSwap;
    i.addr = a;
    i.value = v;
    i.token = token;
    return i;
  }
  static Instr cas(Addr a, std::uint64_t expect, std::uint64_t v,
                   std::uint64_t token = 0) {
    Instr i;
    i.kind = Kind::kCas;
    i.addr = a;
    i.compare = expect;
    i.value = v;
    i.token = token;
    return i;
  }
  static Instr membar(std::uint8_t mask) {
    Instr i;
    i.kind = Kind::kMembar;
    i.membarMask = mask;
    return i;
  }
  static Instr stbar() { return membar(membar::kStbar); }
  static Instr compute(std::uint16_t cycles) {
    Instr i;
    i.kind = Kind::kCompute;
    i.latency = cycles;
    return i;
  }

  OpType opType() const {
    switch (kind) {
      case Kind::kLoad: return OpType::kLoad;
      case Kind::kStore: return OpType::kStore;
      case Kind::kSwap: return OpType::kAtomic;
      case Kind::kCas: return OpType::kAtomic;
      case Kind::kMembar: return OpType::kMembar;
      case Kind::kCompute: return OpType::kLoad;  // unused
    }
    return OpType::kLoad;
  }

  bool isMemOp() const {
    return kind == Kind::kLoad || kind == Kind::kStore ||
           kind == Kind::kSwap || kind == Kind::kCas;
  }
};

/// A deterministic, cloneable instruction source for one hardware thread.
class ThreadProgram {
 public:
  virtual ~ThreadProgram() = default;

  /// Next instruction, or nullopt when finished or awaiting feedback.
  /// Once it returns nullopt, the core may stop calling it until it
  /// delivers a result through onResult() (or replaces the program on
  /// recovery): until then, next() must keep returning nullopt and have no
  /// further side effect.
  virtual std::optional<Instr> next() = 0;

  /// Final (verified) value of an instruction that carried a token.
  virtual void onResult(std::uint64_t token, std::uint64_t value) = 0;

  /// No more instructions will ever be produced.
  virtual bool finished() const = 0;

  /// Completed work units (the paper runs benchmarks for a fixed number of
  /// transactions).
  virtual std::uint64_t transactionsCompleted() const = 0;

  /// Deep copy of the full program state (SafetyNet checkpointing).
  virtual std::unique_ptr<ThreadProgram> clone() const = 0;
};

}  // namespace dvmc

// Shared fuzz-sweep configuration generator.
//
// The fuzz sweep (tests/fuzz_test.cpp), the single-config runner
// (tools/dvmc_run.cpp --fuzz-param), and the campaign driver
// (tools/dvmc_campaign.cpp) must all derive the *same* randomized
// configuration from a parameter index — a repro that regenerates the RNG
// sequence by hand drifts the moment anyone edits the sweep. This is the
// single source of truth: one param index maps to one deterministic
// (workload, system) configuration.
//
// Header-only so callers only need their existing dvmc_system link.
#pragma once

#include "common/rng.hpp"
#include "system/config.hpp"
#include "workload/params.hpp"

namespace dvmc {

/// Deterministically maps a fuzz parameter index to a full randomized
/// system configuration (DVMC checkers + BER on, random protocol, model,
/// cache geometry, CPU shape, and kMicroMix workload parameterization).
/// cfg.maxCycles is a generous completion bound; callers diagnosing hangs
/// may tighten it after the call (the RNG sequence is already consumed).
inline SystemConfig makeFuzzConfig(int param) {
  Rng rng(0xF022 + param);

  WorkloadParams p;
  p.kind = WorkloadKind::kMicroMix;
  p.privateBlocks = 16 + rng.below(512);
  p.sharedBlocks = 8 + rng.below(256);
  p.hotBlocks = 1 + rng.below(16);
  p.hotFraction = rng.uniform();
  p.numLocks = 1 + rng.below(32);
  p.txOps = 4 + rng.below(64);
  p.sharedFraction = rng.uniform();
  p.writeFraction = rng.uniform() * 0.6;
  p.lockFraction = rng.uniform();
  p.csOps = 1 + rng.below(12);
  p.computeMin = 1;
  p.computeMax = static_cast<std::uint16_t>(1 + rng.below(12));
  p.frac32Bit = rng.uniform() * 0.4;
  p.barrierEveryTx = rng.chance(0.25) ? 1 + rng.below(3) : 0;

  SystemConfig cfg = SystemConfig::withDvmc(
      rng.chance(0.5) ? Protocol::kDirectory : Protocol::kSnooping,
      static_cast<ConsistencyModel>(rng.below(4)));
  cfg.numNodes = 2 + rng.below(7);  // 2..8
  cfg.workloadOverride = p;
  cfg.targetTransactions = p.barrierEveryTx != 0 ? 2 + rng.below(3)
                                                 : 40 + rng.below(80);
  cfg.l1 = {std::size_t(1) << rng.below(6), 1 + rng.below(3)};
  cfg.l2 = {std::size_t(4) << rng.below(6), 2 + rng.below(6)};
  cfg.cpu.robSize = 8 << rng.below(4);
  cfg.cpu.wbCapacity = 4 << rng.below(5);
  cfg.cpu.wbConcurrency = 1 + rng.below(7);
  cfg.cpu.storePrefetch = rng.chance(0.8);
  cfg.cpu.wbCoalescing = rng.chance(0.8);
  cfg.coherenceChecker =
      rng.chance(0.3) ? SystemConfig::CoherenceCheckerKind::kShadow
                      : SystemConfig::CoherenceCheckerKind::kEpoch;
  cfg.seed = 1000 + static_cast<std::uint64_t>(param);
  cfg.maxCycles = 80'000'000;
  return cfg;
}

}  // namespace dvmc

// Processor pipeline tests: write-buffer semantics per model, membar
// stalls, SC store serialization, load speculation + squash, verification
// stage behavior, model switching, and ROB bookkeeping — all driven by
// scripted programs through a real memory system.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "system/system.hpp"
#include "workload/scripted.hpp"

namespace dvmc {
namespace {

constexpr Addr kA = 0x400000;
constexpr Addr kB = 0x480000;  // different home/block

SystemConfig config(ConsistencyModel m, bool dvmcOn = true) {
  SystemConfig cfg = dvmcOn
                         ? SystemConfig::withDvmc(Protocol::kDirectory, m)
                         : SystemConfig::unprotected(Protocol::kDirectory, m);
  cfg.numNodes = 2;
  cfg.berEnabled = false;
  cfg.maxCycles = 3'000'000;
  return cfg;
}

RunResult runScript(SystemConfig cfg, std::vector<Instr> prog,
                    System** sysOut = nullptr) {
  static std::unique_ptr<System> keeper;
  cfg.programFactory = [prog](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) return std::make_unique<ScriptedProgram>(prog);
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{});
  };
  keeper = std::make_unique<System>(cfg);
  RunResult r = keeper->run();
  if (sysOut != nullptr) *sysOut = keeper.get();
  return r;
}

TEST(CpuPipeline, RetiresEveryInstruction) {
  std::vector<Instr> prog;
  for (int i = 0; i < 50; ++i) prog.push_back(Instr::compute(2));
  System* sys = nullptr;
  RunResult r = runScript(config(ConsistencyModel::kTSO), prog, &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sys->core(0).retired(), 50u);
}

TEST(CpuPipeline, StoreThenLoadForwardsInPipeline) {
  System* sys = nullptr;
  RunResult r = runScript(config(ConsistencyModel::kTSO),
                          {Instr::store(kA, 321), Instr::load(kA, 1)}, &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  ASSERT_EQ(p.results().size(), 1u);
  EXPECT_EQ(p.results()[0].second, 321u);
}

TEST(CpuPipeline, LoadAfterStoreDifferentWordReadsMemory) {
  System* sys = nullptr;
  RunResult r = runScript(config(ConsistencyModel::kTSO),
                          {Instr::store(kA, 1), Instr::load(kA + 8, 2)},
                          &sys);
  ASSERT_TRUE(r.completed);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  EXPECT_EQ(p.results()[0].second,
            MemoryStorage::initialPattern(kA).read(8, 8));
}

TEST(CpuPipeline, TsoWriteBufferHidesStoreLatency) {
  // Store-heavy program: TSO (buffered) must be significantly faster than
  // SC (stall per store) — the paper's Figure 3 "Base" effect.
  std::vector<Instr> prog;
  for (int i = 0; i < 40; ++i) {
    prog.push_back(Instr::store(kA + (i % 16) * kBlockSizeBytes * 4, i));
    prog.push_back(Instr::compute(1));
  }
  RunResult tso = runScript(config(ConsistencyModel::kTSO, false), prog);
  RunResult sc = runScript(config(ConsistencyModel::kSC, false), prog);
  ASSERT_TRUE(tso.completed);
  ASSERT_TRUE(sc.completed);
  EXPECT_LT(tso.cycles, sc.cycles);
}

TEST(CpuPipeline, ScStoresStillProduceCorrectValues) {
  System* sys = nullptr;
  std::vector<Instr> prog;
  for (int i = 0; i < 8; ++i) prog.push_back(Instr::store(kA + i * 8, i));
  prog.push_back(Instr::load(kA + 7 * 8, 1));
  RunResult r = runScript(config(ConsistencyModel::kSC), prog, &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  EXPECT_EQ(p.results()[0].second, 7u);
}

TEST(CpuPipeline, MembarStoreLoadDrainsWriteBuffer) {
  // TSO + Membar #StoreLoad: the membar cannot pass until the store
  // performed (a full GetM round-trip with prefetching disabled), so the
  // load is serialized behind the store instead of overlapping it.
  SystemConfig cfg = config(ConsistencyModel::kTSO);
  cfg.cpu.storePrefetch = false;
  const Addr remote = 0x400040;  // homed at node 1: slow store perform
  std::vector<Instr> tail;
  for (int i = 0; i < 600; ++i) tail.push_back(Instr::compute(4));
  std::vector<Instr> with = {Instr::store(remote, 1),
                             Instr::membar(membar::kStoreLoad)};
  with.insert(with.end(), tail.begin(), tail.end());
  std::vector<Instr> without = {Instr::store(remote, 1)};
  without.insert(without.end(), tail.begin(), tail.end());
  System* sys = nullptr;
  RunResult rw = runScript(cfg, with, &sys);
  const std::uint64_t stalls = sys->core(0).stats().get("cpu.membarStalls");
  RunResult ro = runScript(cfg, without);
  ASSERT_TRUE(rw.completed);
  ASSERT_TRUE(ro.completed);
  EXPECT_EQ(rw.detections, 0u);
  EXPECT_GT(stalls, 0u) << "the membar never waited for the store";
  // Without the membar the compute tail overlaps the store's round trip;
  // with it, the tail starts only after the store performs.
  EXPECT_GT(rw.cycles, ro.cycles + 100) << "membar failed to serialize";
}

TEST(CpuPipeline, PsoStbarOrdersStores) {
  System* sys = nullptr;
  RunResult r = runScript(
      config(ConsistencyModel::kPSO),
      {Instr::store(kA, 1), Instr::stbar(), Instr::store(kB, 2),
       Instr::load(kA, 1), Instr::load(kB, 2)},
      &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u) << "stbar path must satisfy the AR checker";
}

TEST(CpuPipeline, RmoMembarsEnforceAcquireRelease) {
  RunResult r = runScript(
      config(ConsistencyModel::kRMO),
      {Instr::load(kA, 1), Instr::membar(membar::kLoadLoad | membar::kLoadStore),
       Instr::store(kB, 1),
       Instr::membar(membar::kLoadStore | membar::kStoreStore),
       Instr::store(kA, 2)});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
}

TEST(CpuPipeline, RmoRunsWithoutMembars) {
  std::vector<Instr> prog;
  for (int i = 0; i < 30; ++i) {
    prog.push_back(Instr::load(kA + (i % 8) * kBlockSizeBytes));
    prog.push_back(Instr::store(kB + (i % 8) * kBlockSizeBytes, i));
  }
  RunResult r = runScript(config(ConsistencyModel::kRMO), prog);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
}

TEST(CpuPipeline, ModeSwitch32BitRunsCleanUnderRmo) {
  // Alternating 64-bit RMO and 32-bit (TSO) regions must drain cleanly and
  // satisfy the per-instruction AR tables.
  std::vector<Instr> prog;
  for (int region = 0; region < 4; ++region) {
    const bool is32 = region % 2 == 1;
    for (int i = 0; i < 6; ++i) {
      Instr s = Instr::store(kA + i * 8, region * 10 + i);
      s.is32Bit = is32;
      prog.push_back(s);
      Instr l = Instr::load(kA + i * 8);
      l.is32Bit = is32;
      prog.push_back(l);
    }
  }
  RunResult r = runScript(config(ConsistencyModel::kRMO), prog);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
}

TEST(CpuPipeline, AtomicSwapIsSerializing) {
  System* sys = nullptr;
  RunResult r = runScript(
      config(ConsistencyModel::kTSO),
      {Instr::store(kA, 5), Instr::swap(kA, 9, 1), Instr::load(kA, 2)},
      &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  ASSERT_EQ(p.results().size(), 2u);
  EXPECT_EQ(p.results()[0].second, 5u);  // swap saw the buffered store
  EXPECT_EQ(p.results()[1].second, 9u);  // load saw the swap
}

TEST(CpuPipeline, SpeculativeLoadSquashedByRemoteWrite) {
  // Node 1 loads a block (token-gated loop keeps it unverified briefly)
  // while node 0 overwrites it; the run must stay detection-free, proving
  // the squash-and-replay path reconciles the values.
  SystemConfig cfg = config(ConsistencyModel::kTSO);
  cfg.numNodes = 2;
  cfg.programFactory = [](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) {
      std::vector<Instr> p;
      for (int i = 0; i < 20; ++i) {
        p.push_back(Instr::store(kA, 100 + i));
        p.push_back(Instr::compute(30));
      }
      return std::make_unique<ScriptedProgram>(p);
    }
    std::vector<Instr> p;
    for (int i = 0; i < 60; ++i) {
      p.push_back(Instr::load(kA));
      p.push_back(Instr::compute(5));
    }
    return std::make_unique<ScriptedProgram>(p);
  };
  System sys(cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
}

TEST(CpuPipeline, VerificationStageCostsTime) {
  // The same program with DVUO on is slower (or equal) but never faster.
  std::vector<Instr> prog;
  for (int i = 0; i < 60; ++i) {
    prog.push_back(Instr::load(kA + (i % 32) * kBlockSizeBytes));
    prog.push_back(Instr::compute(2));
  }
  RunResult base = runScript(config(ConsistencyModel::kTSO, false), prog);
  RunResult dvmc = runScript(config(ConsistencyModel::kTSO, true), prog);
  ASSERT_TRUE(base.completed);
  ASSERT_TRUE(dvmc.completed);
  EXPECT_GE(dvmc.cycles, base.cycles);
}

TEST(CpuPipeline, TokensDeliverFinalValues) {
  System* sys = nullptr;
  std::vector<Instr> prog = {Instr::store(kA, 1), Instr::load(kA, 10),
                             Instr::store(kA, 2), Instr::load(kA, 11)};
  RunResult r = runScript(config(ConsistencyModel::kTSO), prog, &sys);
  ASSERT_TRUE(r.completed);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  ASSERT_EQ(p.results().size(), 2u);
  EXPECT_EQ(p.results()[0], (std::pair<std::uint64_t, std::uint64_t>{10, 1}));
  EXPECT_EQ(p.results()[1], (std::pair<std::uint64_t, std::uint64_t>{11, 2}));
}

TEST(CpuPipeline, WriteBufferCapacityStallsRetireNotCorrectness) {
  SystemConfig cfg = config(ConsistencyModel::kPSO);
  cfg.cpu.wbCapacity = 2;  // tiny write buffer
  std::vector<Instr> prog;
  for (int i = 0; i < 30; ++i) {
    prog.push_back(Instr::store(kA + i * kBlockSizeBytes, i));
  }
  prog.push_back(Instr::load(kA + 29 * kBlockSizeBytes, 1));
  System* sys = nullptr;
  RunResult r = runScript(cfg, prog, &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  EXPECT_EQ(p.results()[0].second, 29u);
}

TEST(CpuPipeline, TinyRobStillCorrect) {
  SystemConfig cfg = config(ConsistencyModel::kTSO);
  cfg.cpu.robSize = 4;
  std::vector<Instr> prog;
  for (int i = 0; i < 40; ++i) {
    prog.push_back(Instr::store(kA + (i % 4) * 8, i));
    prog.push_back(Instr::load(kA + (i % 4) * 8));
  }
  RunResult r = runScript(cfg, prog);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
}

TEST(CpuPipeline, HangWatchdogFiresOnStuckPipeline) {
  // A program whose load can never complete (we drop every message) should
  // be flagged by the lost-operation machinery within ~2 injection periods.
  SystemConfig cfg = config(ConsistencyModel::kTSO);
  cfg.dvmc.membarInjectionPeriod = 10'000;
  cfg.maxCycles = 500'000;
  cfg.programFactory = [](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) {
      return std::make_unique<ScriptedProgram>(
          std::vector<Instr>{Instr::load(kA, 1)});
    }
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{});
  };
  System sys(cfg);
  sys.dataNet().setFaultFilter(
      [](Message&) { return NetFaultAction::kDrop; });
  RunResult r = sys.runUntil([&sys] { return sys.sink().any(); });
  ASSERT_TRUE(sys.sink().any());
  EXPECT_EQ(sys.sink().first().kind, CheckerKind::kLostOperation);
  EXPECT_LE(sys.sink().first().cycle, 50'000u);
  (void)r;
}

// ---------------------------------------------------------------------------
// Quiet ticks: a tick that changes nothing is repeated in O(1)
// ---------------------------------------------------------------------------

/// A load miss to a remote block followed by enough computes to fill the
/// ROB: the computes execute and wait at the in-order gate behind the
/// load, and dispatch stalls on the full ROB every cycle.
std::vector<Instr> robFullBehindMiss() {
  std::vector<Instr> prog = {Instr::load(0x400040)};  // homed at node 1
  for (int i = 0; i < 200; ++i) prog.push_back(Instr::compute(1));
  return prog;
}

TEST(CpuQuiet, StallCountsMatchEveryCycleTicks) {
  // The stall counters are per-cycle figures: quiet ticks must bump them
  // exactly as full ticks did (values measured with every tick running
  // all pipeline phases).
  System* sys = nullptr;
  SystemConfig cfg = config(ConsistencyModel::kTSO);
  cfg.cpu.storePrefetch = false;
  RunResult r = runScript(cfg, robFullBehindMiss(), &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sys->core(0).stats().get("cpu.robFullStalls"), 237u);

  // The MembarStoreLoadDrainsWriteBuffer configuration.
  const Addr remote = 0x400040;
  std::vector<Instr> with = {Instr::store(remote, 1),
                             Instr::membar(membar::kStoreLoad)};
  for (int i = 0; i < 600; ++i) with.push_back(Instr::compute(4));
  r = runScript(cfg, with, &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sys->core(0).stats().get("cpu.membarStalls"), 240u);
}

TEST(CpuQuiet, CoreStalledOnMissGoesQuietAndKeepsCounting) {
  SystemConfig cfg = config(ConsistencyModel::kTSO);
  cfg.programFactory = [](NodeId n) -> std::unique_ptr<ThreadProgram> {
    return std::make_unique<ScriptedProgram>(
        n == 0 ? robFullBehindMiss() : std::vector<Instr>{});
  };
  System sys(cfg);
  Core& core = sys.core(0);
  sys.runUntil([&] { return core.quiet(); });
  ASSERT_TRUE(core.quiet());
  const Cycle t0 = sys.sim().now();
  const std::uint64_t s0 = core.stats().get("cpu.robFullStalls");
  sys.runUntil([&] { return sys.sim().now() >= t0 + 20 || !core.quiet(); });
  ASSERT_TRUE(core.quiet()) << "the miss returned within 20 cycles";
  // One stall per quiet tick; the stop check may land before this
  // cycle's tick.
  const Cycle elapsed = sys.sim().now() - t0;
  const std::uint64_t stalls = core.stats().get("cpu.robFullStalls") - s0;
  EXPECT_GE(stalls + 1, elapsed);
  EXPECT_LE(stalls, elapsed);
  const RunResult r = sys.runUntil([] { return false; });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(core.retired(), 201u);
}

TEST(CpuQuiet, OutsideSignalsWakeAQuietCore) {
  // Two remote stores ahead of a Membar #StoreLoad: the gate stalls on
  // the membar for two store misses, with both stores in the write buffer.
  SystemConfig cfg = config(ConsistencyModel::kTSO);
  cfg.cpu.storePrefetch = false;
  std::vector<Instr> prog = {Instr::store(0x400040, 1),
                             Instr::store(0x480040, 2),
                             Instr::membar(membar::kStoreLoad)};
  for (int i = 0; i < 40; ++i) prog.push_back(Instr::compute(1));
  cfg.programFactory = [prog](NodeId n) -> std::unique_ptr<ThreadProgram> {
    return std::make_unique<ScriptedProgram>(
        n == 0 ? prog : std::vector<Instr>{});
  };
  System sys(cfg);
  Core& core = sys.core(0);
  const std::vector<std::pair<const char*, std::function<void()>>> signals = {
      {"armLoadValueFault", [&] { core.armLoadValueFault(); }},
      {"armWbReorderFault", [&] { ASSERT_TRUE(core.armWbReorderFault()); }},
      {"injectWbValueFault",
       [&] { ASSERT_TRUE(core.injectWbValueFault(5)); }},
      {"remote-write squash",
       [&] { core.onReadPermissionLost(0x500000, /*remoteWrite=*/true); }},
      {"restoreState", [&] { core.restoreState(core.snapshotState()); }},
  };
  for (const auto& [name, signal] : signals) {
    SCOPED_TRACE(name);
    sys.runUntil([&] { return core.quiet(); });
    ASSERT_TRUE(core.quiet());
    // Only the two stores have retired, into the write buffer.
    ASSERT_LE(core.retired(), 2u) << "the membar passed";
    const Cycle t = sys.sim().now();
    signal();
    EXPECT_FALSE(core.quiet());
    // The next cycle's tick runs in full: it finds nothing to do and goes
    // quiet again (a restore leaves work to dispatch instead).
    sys.runUntil([&] { return sys.sim().now() > t + 1; });
    if (std::string(name) != "restoreState") {
      EXPECT_TRUE(core.quiet());
    }
  }
}

}  // namespace
}  // namespace dvmc

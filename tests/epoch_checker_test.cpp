// Unit tests for the Cache Coherence checker: CET rule-1 checks, the
// Inform-Epoch pipeline into the MET, the three epoch rules (appropriate
// epochs, no illegal overlap, correct data propagation), open-epoch
// wraparound scrubbing, and 16-bit timestamp wrap behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "common/crc16.hpp"
#include "common/rng.hpp"
#include "dvmc/cache_epoch_checker.hpp"
#include "dvmc/memory_epoch_checker.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace dvmc {
namespace {

/// A fixed logical clock for driving the MET directly.
class FixedClock final : public LogicalClock {
 public:
  std::uint64_t now() override { return value; }
  std::uint64_t value = 0;
};

struct CheckerFixture : ::testing::Test {
  CheckerFixture()
      : cet(sim, /*node=*/0, cfg, &sink,
            [this](Message m) { sent.push_back(std::move(m)); }),
        met(sim, /*node=*/1, cfg, &sink, clock) {}

  /// Runs the inform pipe by hand: CET messages -> MET.
  void pump() {
    for (Message& m : sent) met.onInform(m);
    sent.clear();
    met.drain();
  }

  DataBlock block(std::uint64_t v) {
    DataBlock d;
    d.write(0, 8, v);
    return d;
  }

  Simulator sim;
  DvmcConfig cfg;
  ErrorSink sink;
  FixedClock clock;
  std::vector<Message> sent;
  CacheEpochChecker cet;
  MemoryEpochChecker met;
};

// ---------------------------------------------------------------------------
// CET rule 1: accesses only in appropriate epochs
// ---------------------------------------------------------------------------

TEST_F(CheckerFixture, AccessInsideEpochIsClean) {
  cet.onEpochBegin(0x1000, /*rw=*/true, block(1), 10);
  cet.onPerformAccess(0x1000, /*isWrite=*/true);
  cet.onPerformAccess(0x1000, /*isWrite=*/false);
  EXPECT_FALSE(sink.any());
}

TEST_F(CheckerFixture, LoadOutsideEpochDetected) {
  cet.onPerformAccess(0x1000, false);
  ASSERT_TRUE(sink.any());
  EXPECT_EQ(sink.first().kind, CheckerKind::kCacheCoherence);
}

TEST_F(CheckerFixture, StoreInReadOnlyEpochDetected) {
  cet.onEpochBegin(0x1000, /*rw=*/false, block(1), 10);
  cet.onPerformAccess(0x1000, /*isWrite=*/true);
  ASSERT_TRUE(sink.any());
  EXPECT_EQ(sink.first().kind, CheckerKind::kCacheCoherence);
}

TEST_F(CheckerFixture, ReadInReadOnlyEpochIsClean) {
  cet.onEpochBegin(0x1000, false, block(1), 10);
  cet.onPerformAccess(0x1000, false);
  EXPECT_FALSE(sink.any());
}

TEST_F(CheckerFixture, EpochEndWithoutBeginDetected) {
  cet.onEpochEnd(0x1000, block(1), 20);
  EXPECT_TRUE(sink.any());
}

TEST_F(CheckerFixture, DoubleBeginDetected) {
  cet.onEpochBegin(0x1000, true, block(1), 10);
  cet.onEpochBegin(0x1000, false, block(1), 11);
  EXPECT_TRUE(sink.any());
}

// ---------------------------------------------------------------------------
// Inform-Epoch wire format
// ---------------------------------------------------------------------------

TEST_F(CheckerFixture, InformCarriesTimesAndHashes) {
  const DataBlock d0 = block(7);
  const DataBlock d1 = block(8);
  cet.onEpochBegin(0x1000, true, d0, 100);
  cet.onEpochEnd(0x1000, d1, 140);
  ASSERT_EQ(sent.size(), 1u);
  const Message& m = sent[0];
  EXPECT_EQ(m.type, MsgType::kInformEpoch);
  EXPECT_TRUE(m.epoch.readWrite);
  EXPECT_EQ(m.epoch.begin, 100);
  EXPECT_EQ(m.epoch.end, 140);
  EXPECT_EQ(m.epoch.beginHash, hashBlock(d0));
  EXPECT_EQ(m.epoch.endHash, hashBlock(d1));
}

TEST_F(CheckerFixture, ReadOnlyInformReplicatesBeginHash) {
  const DataBlock d = block(7);
  cet.onEpochBegin(0x1000, false, d, 100);
  cet.onEpochEnd(0x1000, d, 120);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].epoch.endHash, sent[0].epoch.beginHash);
}

// ---------------------------------------------------------------------------
// MET rules (a): overlap, (b): data propagation
// ---------------------------------------------------------------------------

TEST_F(CheckerFixture, CleanHandoffSequence) {
  // Memory seeds the entry, then RW -> RO -> RW handoffs with matching
  // hashes and non-overlapping times.
  clock.value = 5;
  const DataBlock init = block(0);
  met.onHomeRequest(0x1000, init);

  const DataBlock v1 = block(11);
  cet.onEpochBegin(0x1000, true, init, 10);
  cet.onEpochEnd(0x1000, v1, 20);  // RW [10,20], wrote v1
  cet.onEpochBegin(0x1000, false, v1, 21);
  cet.onEpochEnd(0x1000, v1, 30);  // RO [21,30]
  cet.onEpochBegin(0x1000, true, v1, 30);
  cet.onEpochEnd(0x1000, block(12), 35);  // RW [30,35]
  pump();
  EXPECT_FALSE(sink.any()) << sink.first().what;
  EXPECT_EQ(met.stats().get("met.informsProcessed"), 3u);
}

TEST_F(CheckerFixture, RwOverlapDetected) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  cet.onEpochBegin(0x1000, true, block(0), 10);
  cet.onEpochEnd(0x1000, block(1), 30);  // RW [10,30]
  pump();
  // A second RW epoch beginning at 25 overlaps [10,30].
  Message m;
  m.type = MsgType::kInformEpoch;
  m.src = 2;
  m.addr = 0x1000;
  m.epoch.readWrite = true;
  m.epoch.begin = 25;
  m.epoch.end = 40;
  m.epoch.beginHash = hashBlock(block(1));
  m.epoch.endHash = hashBlock(block(2));
  met.onInform(m);
  met.drain();
  ASSERT_TRUE(sink.any());
  EXPECT_NE(sink.first().what.find("overlap"), std::string::npos);
}

TEST_F(CheckerFixture, RoMayOverlapRo) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  const auto h = hashBlock(block(0));
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.type = MsgType::kInformEpoch;
    m.src = static_cast<NodeId>(i);
    m.addr = 0x1000;
    m.epoch.readWrite = false;
    m.epoch.begin = 10;
    m.epoch.end = static_cast<LTime16>(30 + i);
    m.epoch.beginHash = h;
    m.epoch.endHash = h;
    met.onInform(m);
  }
  met.drain();
  EXPECT_FALSE(sink.any());
}

TEST_F(CheckerFixture, RoOverlappingRwDetected) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  cet.onEpochBegin(0x1000, true, block(0), 10);
  cet.onEpochEnd(0x1000, block(1), 30);
  pump();
  Message m;
  m.type = MsgType::kInformEpoch;
  m.src = 2;
  m.addr = 0x1000;
  m.epoch.readWrite = false;
  m.epoch.begin = 20;  // inside [10,30]
  m.epoch.end = 40;
  m.epoch.beginHash = hashBlock(block(1));
  m.epoch.endHash = m.epoch.beginHash;
  met.onInform(m);
  met.drain();
  EXPECT_TRUE(sink.any());
}

TEST_F(CheckerFixture, DataPropagationMismatchDetected) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  cet.onEpochBegin(0x1000, true, block(0), 10);
  cet.onEpochEnd(0x1000, block(1), 20);  // ended with v1
  pump();
  EXPECT_FALSE(sink.any());
  // Next epoch begins with corrupted data (v2 instead of v1).
  cet.onEpochBegin(0x1000, false, block(2), 25);
  cet.onEpochEnd(0x1000, block(2), 30);
  pump();
  ASSERT_TRUE(sink.any());
  EXPECT_NE(sink.first().what.find("hash"), std::string::npos);
}

TEST_F(CheckerFixture, SeedHashComesFromMemoryImage) {
  clock.value = 3;
  const DataBlock mem = block(123);
  met.onHomeRequest(0x1000, mem);
  // First epoch begins with data matching memory: clean.
  cet.onEpochBegin(0x1000, false, mem, 5);
  cet.onEpochEnd(0x1000, mem, 9);
  pump();
  EXPECT_FALSE(sink.any());
  // A fresh block whose first epoch shows different data: flagged.
  met.onHomeRequest(0x2000, mem);
  cet.onEpochBegin(0x2000, false, block(99), 5);
  cet.onEpochEnd(0x2000, block(99), 9);
  pump();
  EXPECT_TRUE(sink.any());
}

TEST_F(CheckerFixture, SortingQueueReordersInforms) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  const auto h = hashBlock(block(0));
  // Two RO informs arrive end-first; the priority queue processes them in
  // begin order so lastROEnd grows monotonically without false alarms.
  Message late;
  late.type = MsgType::kInformEpoch;
  late.src = 2;
  late.addr = 0x1000;
  late.epoch.readWrite = false;
  late.epoch.begin = 30;
  late.epoch.end = 50;
  late.epoch.beginHash = h;
  late.epoch.endHash = h;
  Message early = late;
  early.src = 3;
  early.epoch.begin = 10;
  early.epoch.end = 20;
  met.onInform(late);
  met.onInform(early);
  met.drain();
  EXPECT_FALSE(sink.any());
}

// ---------------------------------------------------------------------------
// 16-bit wraparound
// ---------------------------------------------------------------------------

TEST_F(CheckerFixture, EpochsAcrossWrapBoundaryAreClean) {
  clock.value = 0xFFF0;
  met.onHomeRequest(0x1000, block(0));
  // RW [0xFFF8, 0x0008] wraps; the following RO [0x0009, ...] must not be
  // flagged as overlapping.
  cet.onEpochBegin(0x1000, true, block(0), 0xFFF8);
  cet.onEpochEnd(0x1000, block(1), 0x10008);  // wide time wraps to 8
  cet.onEpochBegin(0x1000, false, block(1), 0x10009);
  cet.onEpochEnd(0x1000, block(1), 0x10010);
  pump();
  EXPECT_FALSE(sink.any()) << sink.first().what;
}

TEST_F(CheckerFixture, WrapOverlapStillDetected) {
  clock.value = 0xFFF0;
  met.onHomeRequest(0x1000, block(0));
  cet.onEpochBegin(0x1000, true, block(0), 0xFFF8);
  cet.onEpochEnd(0x1000, block(1), 0x10008);  // RW [FFF8, 0008]
  pump();
  Message m;
  m.type = MsgType::kInformEpoch;
  m.src = 2;
  m.addr = 0x1000;
  m.epoch.readWrite = true;
  m.epoch.begin = 0xFFFC;  // inside the wrapped RW epoch
  m.epoch.end = 0x0002;
  m.epoch.beginHash = hashBlock(block(1));
  m.epoch.endHash = hashBlock(block(1));
  met.onInform(m);
  met.drain();
  EXPECT_TRUE(sink.any());
}

// ---------------------------------------------------------------------------
// Open-epoch scrubbing
// ---------------------------------------------------------------------------

TEST_F(CheckerFixture, LongEpochAnnouncedOpenAndClosed) {
  cfg.scrubAgeTicks = 16;  // tiny for the test
  CacheEpochChecker smallCet(sim, 0, cfg, &sink,
                             [this](Message m) { sent.push_back(m); });
  smallCet.onEpochBegin(0x1000, true, block(1), 100);
  // Age the checker: later epochs advance lastLtime past the threshold.
  smallCet.onEpochBegin(0x2000, false, block(2), 200);
  sim.run(100'000);  // let the scrub sweep run
  ASSERT_FALSE(sent.empty());
  EXPECT_EQ(sent[0].type, MsgType::kInformOpenEpoch);
  EXPECT_TRUE(sent[0].epoch.readWrite);
  EXPECT_EQ(sent[0].epoch.begin, 100);
  sent.clear();
  // The eventual end now produces a short Inform-Closed-Epoch.
  smallCet.onEpochEnd(0x1000, block(1), 250);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, MsgType::kInformClosedEpoch);
  EXPECT_EQ(sent[0].epoch.end, 250);
}

TEST_F(CheckerFixture, OpenRwEpochBlocksOtherEpochs) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  Message open;
  open.type = MsgType::kInformOpenEpoch;
  open.src = 3;
  open.addr = 0x1000;
  open.epoch.readWrite = true;
  open.epoch.begin = 10;
  open.epoch.beginHash = hashBlock(block(0));
  met.onInform(open);
  met.drain();
  EXPECT_FALSE(sink.any());
  // An RO epoch while the RW epoch is open: violation.
  Message ro;
  ro.type = MsgType::kInformEpoch;
  ro.src = 2;
  ro.addr = 0x1000;
  ro.epoch.readWrite = false;
  ro.epoch.begin = 20;
  ro.epoch.end = 25;
  ro.epoch.beginHash = hashBlock(block(0));
  ro.epoch.endHash = ro.epoch.beginHash;
  met.onInform(ro);
  met.drain();
  EXPECT_TRUE(sink.any());
}

TEST_F(CheckerFixture, ClosedEpochReleasesOpenState) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  Message open;
  open.type = MsgType::kInformOpenEpoch;
  open.src = 3;
  open.addr = 0x1000;
  open.epoch.readWrite = true;
  open.epoch.begin = 10;
  open.epoch.beginHash = hashBlock(block(0));
  met.onInform(open);
  met.drain();
  Message closed;
  closed.type = MsgType::kInformClosedEpoch;
  closed.src = 3;
  closed.addr = 0x1000;
  closed.epoch.readWrite = true;
  closed.epoch.end = 30;
  met.onInform(closed);
  // After the close, a new RW epoch beginning at 31 is clean — and the
  // data check is skipped (the closed-inform carries no end hash).
  Message rw;
  rw.type = MsgType::kInformEpoch;
  rw.src = 2;
  rw.addr = 0x1000;
  rw.epoch.readWrite = true;
  rw.epoch.begin = 31;
  rw.epoch.end = 40;
  rw.epoch.beginHash = 0xDEAD;  // would mismatch if checked
  rw.epoch.endHash = 0xBEEF;
  met.onInform(rw);
  met.drain();
  EXPECT_FALSE(sink.any());
}

TEST_F(CheckerFixture, MetResetClearsState) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  EXPECT_EQ(met.metEntries(), 1u);
  met.reset();
  EXPECT_EQ(met.metEntries(), 0u);
}

// ---------------------------------------------------------------------------
// Residence timer runs against one kernel event per inform
// ---------------------------------------------------------------------------

/// The MET's sorting residence with one kernel event per queued inform: a
/// firing timer processes the earliest-begin inform once it has rested
/// informSortDelay, re-arms onto that inform's deadline if it has not, and
/// lapses on an empty queue. Processing is delegated to a real MET with a
/// zero-capacity queue, which checks every inform the moment it arrives.
class ReferenceMet {
 public:
  ReferenceMet(Simulator& sim, const DvmcConfig& cfg,
               MemoryEpochChecker& checker)
      : sim_(sim), cfg_(cfg), checker_(checker) {}

  void onInform(const Message& m) {
    queue_.push_back({m, arrivals_++, sim_.now()});
    std::push_heap(queue_.begin(), queue_.end(), beginsLater);
    while (queue_.size() > cfg_.informQueueCapacity) processOldest();
    sim_.schedule(cfg_.informSortDelay, [this] { timer(); });
  }
  /// Like MemoryEpochChecker::reset(): pending timers survive.
  void reset() {
    queue_.clear();
    checker_.reset();
  }
  const LatencyHistogram& residence() const { return residence_; }

 private:
  struct Queued {
    Message msg;
    std::uint64_t arrival;
    Cycle at;
  };
  static bool beginsLater(const Queued& a, const Queued& b) {
    if (a.msg.epoch.begin != b.msg.epoch.begin) {
      return ltimeBefore(b.msg.epoch.begin, a.msg.epoch.begin);
    }
    return a.arrival > b.arrival;
  }
  void timer() {
    if (queue_.empty()) return;
    const Cycle rested = sim_.now() - queue_.front().at;
    if (rested < cfg_.informSortDelay) {
      sim_.schedule(cfg_.informSortDelay - rested, [this] { timer(); });
      return;
    }
    processOldest();
  }
  void processOldest() {
    std::pop_heap(queue_.begin(), queue_.end(), beginsLater);
    residence_.add(sim_.now() - queue_.back().at);
    const Message m = queue_.back().msg;
    queue_.pop_back();
    checker_.onInform(m);
  }

  Simulator& sim_;
  DvmcConfig cfg_;
  MemoryEpochChecker& checker_;
  std::vector<Queued> queue_;
  std::uint64_t arrivals_ = 0;
  LatencyHistogram residence_;
};

/// One simulated world of the differential test. Both worlds run the same
/// driver: bursts of informs (some overflowing the queue), marker events
/// that land on and around the residence deadlines, zero-delay markers,
/// and the odd reset. The MET's processing and the markers both record
/// into the world's tracer, so its event list is the processing cycle
/// and the marker position of every inform.
struct World {
  static constexpr Cycle kDelay = 40;
  static constexpr std::size_t kCapacity = 6;

  World() {
    cfg.informSortDelay = kDelay;
    cfg.informQueueCapacity = kCapacity;
    sim.setTracer(&tracer);
  }

  /// Schedules the driver; `deliver` hands one inform to the checker
  /// under test and `reset` resets it.
  void drive(std::uint64_t seed, std::function<void(const Message&)> deliver,
             std::function<void()> reset) {
    Rng rng(seed);
    std::uint32_t nextId = 1;
    std::uint64_t nextMarker = 0;
    std::function<void()> marker = [&, this] {
      tracer.instant(sim.now(), TraceKind::kPhase, "marker", 0, 0,
                     nextMarker++);
      if (rng.chance(0.3)) sim.schedule(0, marker);
      if (rng.chance(0.25)) sim.schedule(rng.below(2 * kDelay), marker);
    };
    auto arrival = [&, this] {
      const std::uint64_t n = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        Message m;
        m.type = MsgType::kInformEpoch;
        m.src = nextId++;  // unique: the tracer records it as the arg
        m.addr = 0x1000 + 64 * rng.below(4);
        m.epoch.readWrite = rng.chance(0.4);
        m.epoch.begin = static_cast<LTime16>(sim.now() / 4 + rng.below(40));
        m.epoch.end = static_cast<LTime16>(m.epoch.begin + 1 + rng.below(20));
        m.epoch.beginHash = static_cast<std::uint16_t>(rng.below(3));
        m.epoch.endHash = static_cast<std::uint16_t>(rng.below(3));
        deliver(m);
        switch (rng.below(4)) {
          case 0:  // on the deadline this inform's timer was armed for
            sim.schedule(kDelay, marker);
            break;
          case 1:  // around it
            sim.schedule(kDelay - 2 + rng.below(5), marker);
            break;
          case 2:
            sim.schedule(0, marker);
            break;
          default:
            break;
        }
      }
      if (rng.chance(0.01)) reset();
    };
    for (int i = 0; i < 400; ++i) sim.scheduleAt(rng.below(4'000), arrival);
    sim.run();
  }

  Simulator sim;
  EventTracer tracer;
  DvmcConfig cfg;
  ErrorSink sink;
  FixedClock clock;
};

TEST(MetResidenceRuns, MatchOneKernelEventPerInform) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    World a;
    MemoryEpochChecker met(a.sim, /*node=*/1, a.cfg, &a.sink, a.clock);
    World r;
    DvmcConfig checkOnArrival = r.cfg;
    checkOnArrival.informQueueCapacity = 0;
    MemoryEpochChecker checker(r.sim, /*node=*/1, checkOnArrival, &r.sink,
                               r.clock);
    ReferenceMet ref(r.sim, r.cfg, checker);
    for (Addr blk = 0x1000; blk < 0x1100; blk += 64) {
      met.onHomeRequest(blk, DataBlock{});
      checker.onHomeRequest(blk, DataBlock{});
    }
    std::map<std::uint64_t, Cycle> arrivedAt;  // by inform id
    a.drive(seed,
            [&](const Message& m) {
              arrivedAt[m.src] = a.sim.now();
              met.onInform(m);
            },
            [&] { met.reset(); });
    r.drive(seed, [&](const Message& m) { ref.onInform(m); },
            [&] { ref.reset(); });

    // Every inform processed at the same cycle and between the same
    // markers, in the same order.
    ASSERT_EQ(a.tracer.dropped(), 0u);
    ASSERT_EQ(a.tracer.size(), r.tracer.size());
    std::size_t processed = 0;
    std::size_t early = 0;  // processed before their residence was up
    for (std::size_t i = 0; i < a.tracer.size(); ++i) {
      const TraceEvent& x = a.tracer.at(i);
      const TraceEvent& y = r.tracer.at(i);
      ASSERT_EQ(x.ts, y.ts) << "trace position " << i;
      ASSERT_STREQ(x.name, y.name) << "trace position " << i;
      ASSERT_EQ(x.addr, y.addr) << "trace position " << i;
      ASSERT_EQ(x.arg, y.arg) << "trace position " << i;
      if (x.kind != TraceKind::kInform) continue;
      ++processed;
      if (x.ts - arrivedAt.at(x.arg) < World::kDelay) ++early;
    }
    EXPECT_GT(processed, 500u);
    EXPECT_GT(early, 10u) << "the stream never overflowed the queue";

    const auto& da = a.sink.detections();
    const auto& dr = r.sink.detections();
    EXPECT_GT(da.size(), 10u);
    ASSERT_EQ(da.size(), dr.size());
    for (std::size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].cycle, dr[i].cycle) << "detection " << i;
      EXPECT_EQ(da[i].addr, dr[i].addr) << "detection " << i;
      EXPECT_EQ(da[i].what, dr[i].what) << "detection " << i;
    }

    MetricSnapshot snap;
    met.stats().snapshotInto(snap);
    const LatencyHistogram& ha = snap.histograms.at("met.informSortResidence");
    const LatencyHistogram& hr = ref.residence();
    EXPECT_EQ(ha.count(), hr.count());
    EXPECT_EQ(ha.sum(), hr.sum());
    EXPECT_EQ(ha.maxValue(), hr.maxValue());
    EXPECT_EQ(ha.buckets(), hr.buckets());
    // The runs took fewer kernel events than one timer per inform.
    EXPECT_LT(a.sim.eventsExecuted(), r.sim.eventsExecuted());
  }
}

}  // namespace
}  // namespace dvmc

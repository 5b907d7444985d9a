// Unit tests for the Allowable Reordering checker (§4.2): legal and
// illegal perform orders under each model, membar mask counters, and
// lost-operation detection via injected membars.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/error_sink.hpp"
#include "dvmc/reorder_checker.hpp"
#include "sim/simulator.hpp"

namespace dvmc {
namespace {

struct ArFixture : ::testing::Test {
  ArFixture() : checker(sim, 0, &sink) {}
  const OrderingTable& table(ConsistencyModel m) {
    tables[static_cast<int>(m)] = OrderingTable::forModel(m);
    return tables[static_cast<int>(m)];
  }
  Simulator sim;
  ErrorSink sink;
  ReorderChecker checker;
  OrderingTable tables[4];
};

TEST_F(ArFixture, InOrderPerformsAreClean) {
  const auto& t = table(ConsistencyModel::kSC);
  for (SeqNum s = 1; s <= 20; ++s) {
    checker.onPerform(s % 2 ? OpType::kLoad : OpType::kStore, 0, s, t);
  }
  EXPECT_FALSE(sink.any());
}

TEST_F(ArFixture, TsoAllowsStoreLoadReorder) {
  const auto& t = table(ConsistencyModel::kTSO);
  // ST(1) buffered; LD(2) performs first — legal under TSO.
  checker.onCommit(OpType::kStore, 1);
  checker.onPerform(OpType::kLoad, 0, 2, t);
  checker.onPerform(OpType::kStore, 0, 1, t);
  EXPECT_FALSE(sink.any());
}

TEST_F(ArFixture, ScForbidsStoreLoadReorder) {
  const auto& t = table(ConsistencyModel::kSC);
  checker.onPerform(OpType::kLoad, 0, 2, t);
  checker.onPerform(OpType::kStore, 0, 1, t);  // store after later load
  ASSERT_TRUE(sink.any());
  EXPECT_EQ(sink.first().kind, CheckerKind::kAllowableReordering);
}

TEST_F(ArFixture, TsoForbidsStoreStoreReorder) {
  const auto& t = table(ConsistencyModel::kTSO);
  checker.onPerform(OpType::kStore, 0, 2, t);
  checker.onPerform(OpType::kStore, 0, 1, t);
  EXPECT_TRUE(sink.any());
}

TEST_F(ArFixture, PsoAllowsStoreStoreReorder) {
  const auto& t = table(ConsistencyModel::kPSO);
  checker.onPerform(OpType::kStore, 0, 2, t);
  checker.onPerform(OpType::kStore, 0, 1, t);
  EXPECT_FALSE(sink.any());
}

TEST_F(ArFixture, TsoForbidsLoadLoadReorder) {
  const auto& t = table(ConsistencyModel::kTSO);
  checker.onPerform(OpType::kLoad, 0, 2, t);
  checker.onPerform(OpType::kLoad, 0, 1, t);
  EXPECT_TRUE(sink.any());
}

TEST_F(ArFixture, RmoAllowsArbitraryDataReorder) {
  const auto& t = table(ConsistencyModel::kRMO);
  checker.onPerform(OpType::kLoad, 0, 4, t);
  checker.onPerform(OpType::kStore, 0, 3, t);
  checker.onPerform(OpType::kLoad, 0, 2, t);
  checker.onPerform(OpType::kStore, 0, 1, t);
  EXPECT_FALSE(sink.any());
}

TEST_F(ArFixture, RmoMembarEnforcesSelectedOrdering) {
  const auto& t = table(ConsistencyModel::kRMO);
  // ST(1); MEMBAR #SS(2); ST(3): membar performs before ST(1) -> error
  // when ST(1) finally performs (it should have preceded the membar).
  checker.onCommit(OpType::kStore, 1);
  checker.onPerform(OpType::kMembar, membar::kStoreStore, 2, t);
  checker.onPerform(OpType::kStore, 0, 1, t);
  ASSERT_TRUE(sink.any());
}

TEST_F(ArFixture, RmoMembarWrongMaskBitIsNoConstraint) {
  const auto& t = table(ConsistencyModel::kRMO);
  // A #LoadLoad membar does not order stores at all.
  checker.onCommit(OpType::kStore, 1);
  checker.onPerform(OpType::kMembar, membar::kLoadLoad, 2, t);
  checker.onPerform(OpType::kStore, 0, 1, t);
  EXPECT_FALSE(sink.any());
}

TEST_F(ArFixture, MembarAfterLaterLoadPerformedIsViolation) {
  const auto& t = table(ConsistencyModel::kRMO);
  // LD(3) performs, then MEMBAR #LL (2) performs: the membar required all
  // later loads to perform after it.
  checker.onPerform(OpType::kLoad, 0, 3, t);
  checker.onPerform(OpType::kMembar, membar::kLoadLoad, 2, t);
  EXPECT_TRUE(sink.any());
}

TEST_F(ArFixture, AtomicChecksBothHalves) {
  const auto& t = table(ConsistencyModel::kTSO);
  // Atomic(1) performs after a later load performed: its load half is
  // ordered before later loads under TSO -> violation.
  checker.onPerform(OpType::kLoad, 0, 2, t);
  checker.onPerform(OpType::kAtomic, 0, 1, t);
  EXPECT_TRUE(sink.any());
}

TEST_F(ArFixture, AtomicUpdatesBothCounters) {
  const auto& t = table(ConsistencyModel::kTSO);
  checker.onPerform(OpType::kAtomic, 0, 5, t);
  EXPECT_EQ(checker.maxLoad(), 5u);
  EXPECT_EQ(checker.maxStore(), 5u);
}

TEST_F(ArFixture, MixedModelChecksUsePerOpTable) {
  // A PSO-mode store performing out of order is fine; a TSO-mode (32-bit)
  // store with the same history is flagged.
  checker.onPerform(OpType::kStore, 0, 2, table(ConsistencyModel::kPSO));
  EXPECT_FALSE(sink.any());
  checker.onPerform(OpType::kStore, 0, 1, table(ConsistencyModel::kTSO));
  EXPECT_TRUE(sink.any());
}

// ---------------------------------------------------------------------------
// Lost-operation detection
// ---------------------------------------------------------------------------

TEST_F(ArFixture, LostStoreDetectedAfterTwoInjections) {
  checker.onCommit(OpType::kStore, 7);  // never performs
  checker.injectCheckpointMembar();     // snapshot
  EXPECT_FALSE(sink.any());
  checker.injectCheckpointMembar();  // still outstanding -> lost
  ASSERT_TRUE(sink.any());
  EXPECT_EQ(sink.first().kind, CheckerKind::kLostOperation);
}

TEST_F(ArFixture, ProgressingStoreNotFlagged) {
  const auto& t = table(ConsistencyModel::kTSO);
  checker.onCommit(OpType::kStore, 7);
  checker.injectCheckpointMembar();
  checker.onPerform(OpType::kStore, 0, 7, t);  // performs before next check
  checker.injectCheckpointMembar();
  checker.injectCheckpointMembar();
  EXPECT_FALSE(sink.any());
}

TEST_F(ArFixture, NewOutstandingStoreEachPeriodNotFlagged) {
  const auto& t = table(ConsistencyModel::kTSO);
  // A pipeline that keeps retiring: the oldest outstanding store advances
  // between injections, so nothing is lost.
  SeqNum s = 1;
  for (int period = 0; period < 5; ++period) {
    checker.onCommit(OpType::kStore, s);
    checker.injectCheckpointMembar();
    checker.onPerform(OpType::kStore, 0, s, t);
    ++s;
  }
  EXPECT_FALSE(sink.any());
}

TEST_F(ArFixture, LostLoadDetected) {
  checker.onCommit(OpType::kLoad, 3);
  checker.injectCheckpointMembar();
  checker.injectCheckpointMembar();
  ASSERT_TRUE(sink.any());
  EXPECT_EQ(sink.first().kind, CheckerKind::kLostOperation);
}

TEST_F(ArFixture, ResetClearsState) {
  const auto& t = table(ConsistencyModel::kSC);
  checker.onPerform(OpType::kLoad, 0, 9, t);
  checker.reset();
  EXPECT_EQ(checker.maxLoad(), 0u);
  // After reset, small sequence numbers are clean again.
  checker.onPerform(OpType::kLoad, 0, 1, t);
  EXPECT_FALSE(sink.any());
}

// --- outstanding-set differential test -------------------------------------
//
// The checker keeps its committed-but-unperformed operations in a sorted
// buffer with lazy erase. This drives it and a plain std::set reference
// through the same random commit / perform / membar-injection / reset
// sequence — in-order commits with re-commits, out-of-order and duplicate
// commits, performs of committed and never-committed operations, a lost
// operation pinning the front while thousands complete behind it — and
// compares the oldest load and store after every step, and the forensics
// dump after every injection.

struct OutstandingReference {
  std::set<SeqNum> loads;
  std::set<SeqNum> stores;
  SeqNum snapshotLoad = 0;
  SeqNum snapshotStore = 0;
  bool snapshotValid = false;

  static SeqNum oldest(const std::set<SeqNum>& s) {
    return s.empty() ? 0 : *s.begin();
  }
  void commit(OpType t, SeqNum seq) {
    if (isLoadLike(t)) loads.insert(seq);
    if (isStoreLike(t)) stores.insert(seq);
  }
  void perform(OpType t, SeqNum seq) {
    if (isLoadLike(t)) loads.erase(seq);
    if (isStoreLike(t)) stores.erase(seq);
  }
  void inject() {
    snapshotLoad = oldest(loads);
    snapshotStore = oldest(stores);
    snapshotValid = true;
  }
  void reset() {
    loads.clear();
    stores.clear();
    snapshotValid = false;
  }
};

/// The outstanding-operation fields of ReorderChecker::dumpForensics, as
/// the reference would print them.
void expectForensicsMatch(const ReorderChecker& checker,
                          const OutstandingReference& ref,
                          const std::string& where) {
  Json dump = Json::object();
  checker.dumpForensics(dump);
  const auto num = [&](const char* key) -> std::optional<std::uint64_t> {
    const Json* v = dump.find(key);
    if (v == nullptr) return std::nullopt;
    return v->asUint();
  };
  const auto oldestOrNone = [](const std::set<SeqNum>& s)
      -> std::optional<std::uint64_t> {
    if (s.empty()) return std::nullopt;
    return *s.begin();
  };
  EXPECT_EQ(num("outstandingLoads"), ref.loads.size()) << where;
  EXPECT_EQ(num("outstandingStores"), ref.stores.size()) << where;
  EXPECT_EQ(num("oldestOutstandingLoad"), oldestOrNone(ref.loads)) << where;
  EXPECT_EQ(num("oldestOutstandingStore"), oldestOrNone(ref.stores))
      << where;
  if (ref.snapshotValid) {
    EXPECT_EQ(num("snapshotLoad"), ref.snapshotLoad) << where;
    EXPECT_EQ(num("snapshotStore"), ref.snapshotStore) << where;
  } else {
    EXPECT_FALSE(num("snapshotLoad").has_value()) << where;
  }
}

TEST(ReorderCheckerDifferential, MatchesStdSetReference) {
  Simulator sim;
  ErrorSink sink;
  ReorderChecker checker(sim, 0, &sink);
  const OrderingTable table = OrderingTable::forModel(ConsistencyModel::kRMO);
  OutstandingReference ref;
  std::mt19937_64 rng(20061);
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  const OpType kTypes[] = {OpType::kLoad, OpType::kStore, OpType::kAtomic,
                           OpType::kMembar};

  SeqNum next = 1;
  std::vector<std::pair<OpType, SeqNum>> committed;
  for (int step = 0; step < 200'000; ++step) {
    const std::string where = "step " + std::to_string(step);
    const std::uint64_t r = below(1000);
    if (r < 420) {
      // In-order commit (the core's common case).
      const OpType t = below(2) == 0 ? OpType::kLoad : OpType::kStore;
      next += 1 + below(3);
      checker.onCommit(t, next);
      ref.commit(t, next);
      committed.emplace_back(t, next);
    } else if (r < 440 && !committed.empty()) {
      // Re-commit of a still-outstanding operation (a squashed load
      // re-verifying): a no-op for the set.
      const auto& [t, seq] = committed[below(committed.size())];
      checker.onCommit(t, seq);
      ref.commit(t, seq);
    } else if (r < 450) {
      // Out-of-order commit of a sequence number never seen before.
      const OpType t = below(2) == 0 ? OpType::kLoad : OpType::kStore;
      const SeqNum seq = next > 1 ? 1 + below(next - 1) : 1;
      checker.onCommit(t, seq);
      ref.commit(t, seq);
    } else if (r < 900 && !committed.empty()) {
      // Perform a committed operation, usually one of the oldest, but the
      // first ~quarter of the run leaves one operation pinned (lost).
      const std::size_t window = std::min<std::size_t>(committed.size(), 8);
      std::size_t i = below(window);
      if (step < 50'000 && i == 0 && committed.size() > 1) i = 1;
      const auto [t, seq] = committed[i];
      committed.erase(committed.begin() + static_cast<std::ptrdiff_t>(i));
      checker.onPerform(t, 0, seq, table);
      ref.perform(t, seq);
    } else if (r < 980) {
      // Perform of something never committed: RMO loads, atomics and
      // membars perform without a commit.
      const OpType t = kTypes[below(4)];
      const SeqNum seq = 1 + below(next + 8);
      checker.onPerform(t, membar::kAll, seq, table);
      ref.perform(t, seq);
    } else if (r < 998) {
      checker.injectCheckpointMembar();
      ref.inject();
      expectForensicsMatch(checker, ref, where);
    } else {
      checker.reset();
      ref.reset();
      committed.clear();
      if (below(2) == 0) next = 1;  // recovery may restart numbering
    }
    ASSERT_EQ(checker.oldestOutstandingLoad(),
              OutstandingReference::oldest(ref.loads))
        << where;
    ASSERT_EQ(checker.oldestOutstandingStore(),
              OutstandingReference::oldest(ref.stores))
        << where;
  }
  expectForensicsMatch(checker, ref, "end");
}

}  // namespace
}  // namespace dvmc

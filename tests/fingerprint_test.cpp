// Behaviour fingerprint gate. A fixed-seed matrix of DVMC-protected runs
// ({dir, snoop} x {SC, TSO, PSO, RMO} x {oltp, barnes}, plus a MET with a
// four-entry inform queue and a faulted auto-recovering run) is hashed and
// compared against tests/golden/fingerprints.json. The hash covers the
// RunResult scalars, the merged MetricSnapshot and the detection list in
// order, so a refactor that moves one event within a cycle fails here.
//
// A change that alters behaviour on purpose regenerates the goldens with
//   fingerprint_test --update-golden
// and says in CHANGES.md why behaviour changed.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "obs/json.hpp"
#include "system/system.hpp"

namespace dvmc {
namespace {

bool gUpdate = false;
std::map<std::string, std::uint64_t> gComputed;  // filled by every case

class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void str(const std::string& s) {
    u64(s.size());
    for (unsigned char c : s) h_ = (h_ ^ c) * 0x100000001b3ULL;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint(const RunResult& r,
                          const std::vector<Detection>& detections) {
  Fnv1a h;
  for (std::uint64_t v :
       {std::uint64_t{r.completed}, r.cycles, r.transactions,
        r.retiredInstructions, r.memOps, r.memOps32, r.totalNetBytes,
        r.coherenceBytes, r.informBytes, r.ckptBytes, r.regularL1Misses,
        r.replayL1Misses, r.detections, r.recoveries, r.unrecoverable,
        r.squashes, r.uoFlushes}) {
    h.u64(v);
  }
  std::uint64_t peakBits = 0;
  std::memcpy(&peakBits, &r.peakLinkBytesPerCycle, sizeof peakBits);
  h.u64(peakBits);
  for (const auto& [name, v] : r.metrics.counters) {
    h.str(name);
    h.u64(v);
  }
  for (const auto& [name, hist] : r.metrics.histograms) {
    h.str(name);
    h.u64(hist.count());
    h.u64(hist.sum());
    h.u64(hist.maxValue());
    for (std::uint64_t b : hist.buckets()) h.u64(b);
  }
  for (const Detection& d : detections) {
    h.u64(static_cast<std::uint64_t>(d.kind));
    h.u64(d.cycle);
    h.u64(d.node);
    h.u64(d.addr);
    h.str(d.what);
  }
  return h.value();
}

struct Case {
  std::string name;
  Protocol protocol;
  ConsistencyModel model;
  WorkloadKind workload;
  enum class Kind { kPlain, kSmallMetQueue, kFaulted } kind = Kind::kPlain;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

std::vector<Case> cases() {
  std::vector<Case> out;
  for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
    for (auto m : {ConsistencyModel::kSC, ConsistencyModel::kTSO,
                   ConsistencyModel::kPSO, ConsistencyModel::kRMO}) {
      for (auto wl : {WorkloadKind::kOltp, WorkloadKind::kBarnes}) {
        out.push_back({std::string(p == Protocol::kDirectory ? "dir" : "snoop") +
                           "_" + modelName(m) + "_" + workloadName(wl),
                       p, m, wl});
      }
    }
  }
  out.push_back({"snoop_TSO_oltp_metqueue4", Protocol::kSnooping,
                 ConsistencyModel::kTSO, WorkloadKind::kOltp,
                 Case::Kind::kSmallMetQueue});
  out.push_back({"dir_TSO_oltp_faulted_autorecover", Protocol::kDirectory,
                 ConsistencyModel::kTSO, WorkloadKind::kOltp,
                 Case::Kind::kFaulted});
  return out;
}

std::uint64_t runCase(const Case& c) {
  SystemConfig cfg = SystemConfig::withDvmc(c.protocol, c.model);
  cfg.numNodes = 4;
  cfg.workload = c.workload;
  cfg.targetTransactions = c.workload == WorkloadKind::kBarnes ? 8 : 120;
  cfg.maxCycles = 20'000'000;
  cfg.seed = 3;
  if (c.kind == Case::Kind::kSmallMetQueue) {
    // Informs overflow the queue and are processed before their sorting
    // residence; the residence timers they armed outlive them.
    cfg.dvmc.informQueueCapacity = 4;
  }
  if (c.kind != Case::Kind::kFaulted) {
    System sys(cfg);
    const RunResult r = sys.run();
    sys.drainCheckers();
    return fingerprint(sys.collectResult(r.completed, r.cycles),
                       sys.sink().detections());
  }
  // Every core fault hook, then a detected data corruption whose rollback
  // resets the checkers (MemoryEpochChecker::reset among them).
  cfg.autoRecover = true;
  cfg.ber.interval = 10'000;
  cfg.dvmc.membarInjectionPeriod = 20'000;
  System sys(cfg);
  FaultInjector inj(sys, 11);
  Cycle at = 15'000;
  for (FaultType t : {FaultType::kWbReorder, FaultType::kLsqWrongForward,
                      FaultType::kWbValueCorrupt, FaultType::kMsgDataCorrupt}) {
    // Retry every 500 cycles until the fault finds a target.
    for (bool injected = false; !injected && !sys.allCoresDone();
         at += 500) {
      sys.runUntil([&] { return sys.sim().now() >= at; });
      injected = inj.inject(t);
    }
    at += 12'000;
  }
  const RunResult r = sys.runUntil([] { return false; });
  sys.drainCheckers();
  return fingerprint(sys.collectResult(r.completed, r.cycles),
                     sys.sink().detections());
}

std::string goldenText() {
  std::ifstream in(DVMC_GOLDEN_FILE);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

class Fingerprint : public ::testing::TestWithParam<Case> {};

TEST_P(Fingerprint, MatchesGolden) {
  const Case& c = GetParam();
  const std::uint64_t fp = runCase(c);
  gComputed[c.name] = fp;
  if (gUpdate) return;
  static const std::optional<Json> golden = Json::parse(goldenText());
  ASSERT_TRUE(golden.has_value())
      << "cannot read " << DVMC_GOLDEN_FILE
      << "; run fingerprint_test --update-golden to create it";
  const Json* want = golden->find(c.name);
  ASSERT_NE(want, nullptr) << "no golden for " << c.name
                           << "; run fingerprint_test --update-golden";
  EXPECT_EQ(want->asString(), hex(fp))
      << c.name << " behaves differently from its golden run. If the change "
      << "is intended, regenerate with fingerprint_test --update-golden and "
      << "record why in CHANGES.md.";
}

INSTANTIATE_TEST_SUITE_P(Matrix, Fingerprint, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<Case>& i) {
                           return i.param.name;
                         });

}  // namespace
}  // namespace dvmc

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-golden") == 0) {
      dvmc::gUpdate = true;
    } else {
      std::fprintf(stderr, "fingerprint_test: unknown argument '%s'\n",
                   argv[i]);
      return 2;
    }
  }
  const int rc = RUN_ALL_TESTS();
  if (!dvmc::gUpdate) return rc;
  if (rc != 0 || dvmc::gComputed.size() != dvmc::cases().size()) {
    std::fprintf(stderr, "fingerprint_test: not every case ran; goldens "
                         "left unchanged\n");
    return 1;
  }
  dvmc::Json out = dvmc::Json::object();
  for (const auto& [name, fp] : dvmc::gComputed) {
    out.set(name, dvmc::Json::str(dvmc::hex(fp)));
  }
  std::ofstream f(DVMC_GOLDEN_FILE);
  f << out.dump(2) << "\n";
  std::printf("wrote %zu fingerprints to %s\n", dvmc::gComputed.size(),
              DVMC_GOLDEN_FILE);
  return f.good() ? 0 : 1;
}

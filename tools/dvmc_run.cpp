// Single-config runner. Every form builds a DVMC-protected System, runs
// it, prints one result line and the first detections, and dumps every
// core when a run does not complete:
//
//   dvmc_run [dir|snoop] [sc|tso|pso|rmo] [workload]  the SmokeAll ctest's
//       config (4 nodes, 60 transactions, 3 barnes phases), so a failing
//       smoke case reproduces by name; defaults dir sc apache
//   dvmc_run --fuzz-param P   makeFuzzConfig(P), capped at 3M cycles
//   dvmc_run --matrix         {dir, snoop} x 4 models x 5 workloads x
//       seeds 1-2 on 8 nodes: a BAD line per bad run, then MATRIX CLEAN or
//       MATRIX BAD=n
//
// The single-run forms honour the observability flags; per-block
// debugging is `--trace t.json` plus `dvmc_inspect timeline --addr=A`.
// Exit codes: 0 = clean, 1 = a run did not complete or detected,
// 2 = usage.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "obs/run_report.hpp"
#include "system/runner.hpp"
#include "system/system.hpp"
#include "workload/fuzz_config.hpp"

using namespace dvmc;

namespace {

constexpr const char* kTool = "dvmc_run";

/// Lists the first detections of a run and, when it did not complete,
/// dumps every core (to stderr). True when the run completed clean.
bool judge(System& sys, const RunResult& r) {
  int i = 0;
  for (const auto& d : sys.sink().detections()) {
    std::printf("  [%d] %s @%llu node=%u addr=0x%llx : %s\n", i,
                checkerKindName(d.kind), (unsigned long long)d.cycle, d.node,
                (unsigned long long)d.addr, d.what.c_str());
    if (++i > 10) break;
  }
  if (!r.completed) {
    for (NodeId n = 0; n < sys.numNodes(); ++n) sys.core(n).debugDump();
  }
  return r.completed && r.detections == 0;
}

/// One run with the per-run observability (tracer, forensics, sampler,
/// commit-trace capture) wired the way quickstart does.
int runSingle(SystemConfig cfg) {
  cfg.tracer = obs::activeTracer();
  cfg.forensics = obs::activeForensics();
  cfg.sampleEvery = obs::options().sampleEvery;
  cfg.sampleCapacity = obs::options().sampleCapacity;
  armCaptureFromObs(cfg);
  System sys(cfg);
  const RunResult r = sys.run();
  writeCaptureFileOnce(r.trace);
  std::printf("completed=%d cycles=%llu txns=%llu detections=%llu\n",
              r.completed, (unsigned long long)r.cycles,
              (unsigned long long)r.transactions,
              (unsigned long long)r.detections);
  if (obs::reportingActive()) {
    Json run = Json::object();
    run.set("kind", Json::str(kTool));
    run.set("config", configJson(cfg));
    run.set("result", toJson(r));
    obs::addReportRun(std::move(run));
  }
  return judge(sys, r) ? 0 : 1;
}

int runMatrix() {
  int bad = 0;
  for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
    for (auto m : {ConsistencyModel::kSC, ConsistencyModel::kTSO,
                   ConsistencyModel::kPSO, ConsistencyModel::kRMO}) {
      for (auto wl : {WorkloadKind::kApache, WorkloadKind::kOltp,
                      WorkloadKind::kJbb, WorkloadKind::kSlash,
                      WorkloadKind::kBarnes}) {
        for (int seed = 1; seed <= 2; ++seed) {
          SystemConfig cfg = SystemConfig::withDvmc(p, m);
          cfg.numNodes = 8;
          cfg.workload = wl;
          cfg.targetTransactions = wl == WorkloadKind::kBarnes ? 4 : 300;
          cfg.seed = seed;
          System sys(cfg);
          const RunResult r = sys.run();
          if (r.completed && r.detections == 0) continue;
          std::printf("BAD %s %s %s seed=%d completed=%d det=%llu\n",
                      p == Protocol::kSnooping ? "snoop" : "dir",
                      modelName(m), workloadName(wl), seed, r.completed,
                      (unsigned long long)r.detections);
          judge(sys, r);
          ++bad;
        }
      }
    }
  }
  std::printf(bad ? "MATRIX BAD=%d\n" : "MATRIX CLEAN\n", bad);
  return bad != 0;
}

int usage(const char* why) {
  std::fprintf(stderr, "%s: %s (see --help)\n", kTool, why);
  return 2;
}

int dispatch(int argc, char** argv, std::optional<int> fuzzParam,
             bool matrix) {
  if (matrix && fuzzParam) {
    return usage("--matrix and --fuzz-param conflict");
  }
  if ((matrix || fuzzParam) && argc > 1) {
    return usage("config names go with neither --matrix nor --fuzz-param");
  }
  if (argc > 4) return usage("too many config names");
  if (matrix) return runMatrix();
  if (fuzzParam) {
    SystemConfig cfg = makeFuzzConfig(*fuzzParam);
    cfg.maxCycles = 3'000'000;  // shorter for diagnosis
    std::printf("param=%d config=%s\n", *fuzzParam,
                configJson(cfg).dump().c_str());
    return runSingle(cfg);
  }
  Protocol proto = Protocol::kDirectory;
  ConsistencyModel model = ConsistencyModel::kSC;
  WorkloadKind wl = WorkloadKind::kApache;
  if ((argc > 1 && !parseConfigName(kTool, argv[1], &proto)) ||
      (argc > 2 && !parseConfigName(kTool, argv[2], &model)) ||
      (argc > 3 && !parseConfigName(kTool, argv[3], &wl))) {
    return 2;
  }
  SystemConfig cfg = SystemConfig::withDvmc(proto, model);
  cfg.numNodes = 4;
  cfg.workload = wl;
  cfg.targetTransactions = wl == WorkloadKind::kBarnes ? 3 : 60;
  cfg.maxCycles = 30'000'000;
  return runSingle(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(kTool,
                "run one configuration (a SmokeAll case by name, or a "
                "fuzz_test case) or the fault-free matrix, and print "
                "completion/detection details");
  cli.usageLine(
      "dvmc_run [dir|snoop] [sc|tso|pso|rmo] [workload] | "
      "--fuzz-param P | --matrix");
  std::optional<int> fuzzParam;
  bool matrix = false;
  cli.optionFn("--fuzz-param", "P",
               "run fuzz_test case P (makeFuzzConfig) capped at 3M cycles",
               [&](const std::string& v) -> std::string {
                 char* end = nullptr;
                 const long p = std::strtol(v.c_str(), &end, 10);
                 if (v.empty() || *end != '\0' || p < 0 || p > INT_MAX) {
                   return "--fuzz-param needs a non-negative integer";
                 }
                 fuzzParam = static_cast<int>(p);
                 return "";
               });
  cli.flag("--matrix", &matrix,
           "run the 8-node fault-free sweep (2 protocols x 4 models x 5 "
           "workloads x seeds 1-2)");
  addRunnerFlags(cli);
  obs::addObsFlags(cli);
  argc = cli.parse(argc, argv);
  const int rc = dispatch(argc, argv, fuzzParam, matrix);
  const int obsRc = obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}

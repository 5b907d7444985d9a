// Single-config runner. Every form builds a DVMC-protected System, runs
// it, prints one result line and the first detections, and dumps every
// core when a run does not complete:
//
//   dvmc_run [dir|snoop] [sc|tso|pso|rmo] [workload]  the SmokeAll ctest's
//       config (4 nodes, 60 transactions, 3 barnes phases), so a failing
//       smoke case reproduces by name; defaults dir sc apache
//   dvmc_run --fuzz-param P   makeFuzzConfig(P), capped at 3M cycles
//   dvmc_run --matrix         {dir, snoop} x 4 models x 5 workloads x
//       seeds 1-2 on 8 nodes, run on --jobs workers: a BAD line per bad
//       run, in matrix order whatever the worker count, then MATRIX CLEAN
//       or MATRIX BAD=n
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
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/run_report.hpp"
#include "system/runner.hpp"
#include "system/system.hpp"
#include "workload/fuzz_config.hpp"

using namespace dvmc;

namespace {

constexpr const char* kTool = "dvmc_run";

/// Lists the first detections of a run to `out` and, when it did not
/// complete, dumps every core to `err`. True when the run completed clean.
bool judge(System& sys, const RunResult& r, std::FILE* out = stdout,
           std::FILE* err = stderr) {
  int i = 0;
  for (const auto& d : sys.sink().detections()) {
    std::fprintf(out, "  [%d] %s @%llu node=%u addr=0x%llx : %s\n", i,
                 checkerKindName(d.kind), (unsigned long long)d.cycle, d.node,
                 (unsigned long long)d.addr, d.what.c_str());
    if (++i > 10) break;
  }
  if (!r.completed) {
    for (NodeId n = 0; n < sys.numNodes(); ++n) sys.core(n).debugDump(err);
  }
  return r.completed && r.detections == 0;
}

/// A FILE* that prints into memory, so a worker's output can be held
/// back and printed in order.
class MemStream {
 public:
  MemStream() : f_(open_memstream(&buf_, &len_)) {
    if (f_ == nullptr) {
      std::perror("dvmc_run: open_memstream");
      std::exit(2);
    }
  }
  ~MemStream() {
    std::fclose(f_);
    std::free(buf_);
  }
  MemStream(const MemStream&) = delete;
  MemStream& operator=(const MemStream&) = delete;
  std::FILE* file() { return f_; }
  std::string str() {
    std::fflush(f_);
    return std::string(buf_, len_);
  }

 private:
  char* buf_ = nullptr;
  std::size_t len_ = 0;
  std::FILE* f_;
};

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
  struct Cell {
    Protocol protocol;
    ConsistencyModel model;
    WorkloadKind workload;
    int seed;
  };
  struct Outcome {
    bool bad = false;
    std::string out, err;  // what judging the run printed
  };
  std::vector<Cell> cells;
  for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
    for (auto m : {ConsistencyModel::kSC, ConsistencyModel::kTSO,
                   ConsistencyModel::kPSO, ConsistencyModel::kRMO}) {
      for (auto wl : {WorkloadKind::kApache, WorkloadKind::kOltp,
                      WorkloadKind::kJbb, WorkloadKind::kSlash,
                      WorkloadKind::kBarnes}) {
        for (int seed = 1; seed <= 2; ++seed) cells.push_back({p, m, wl, seed});
      }
    }
  }
  std::vector<Outcome> outcomes(cells.size());
  parallelFor(cells.size(), static_cast<unsigned>(defaultJobs()),
              [&](std::size_t i) {
                const Cell& c = cells[i];
                SystemConfig cfg = SystemConfig::withDvmc(c.protocol, c.model);
                cfg.numNodes = 8;
                cfg.workload = c.workload;
                cfg.targetTransactions =
                    c.workload == WorkloadKind::kBarnes ? 4 : 300;
                cfg.seed = c.seed;
                System sys(cfg);
                const RunResult r = sys.run();
                if (r.completed && r.detections == 0) return;
                MemStream out, err;
                std::fprintf(out.file(),
                             "BAD %s %s %s seed=%d completed=%d det=%llu\n",
                             c.protocol == Protocol::kSnooping ? "snoop" : "dir",
                             modelName(c.model), workloadName(c.workload),
                             c.seed, r.completed,
                             (unsigned long long)r.detections);
                judge(sys, r, out.file(), err.file());
                outcomes[i] = {true, out.str(), err.str()};
              });
  int bad = 0;
  for (const Outcome& o : outcomes) {
    if (!o.bad) continue;
    std::fputs(o.out.c_str(), stdout);
    std::fputs(o.err.c_str(), stderr);
    ++bad;
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

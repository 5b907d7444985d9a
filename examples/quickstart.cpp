// Quickstart: build an 8-node directory-based TSO multiprocessor with full
// DVMC (all three checkers) and SafetyNet, run a commercial-style workload,
// and print what the machine and the checkers did.
//
//   ./quickstart [workload] [sc|tso|pso|rmo] [dir|snoop] [--stats]
//   e.g. ./quickstart oltp tso
//        ./quickstart slash rmo snoop --stats
#include <cstdio>
#include <iostream>

#include "system/runner.hpp"
#include "system/stats_report.hpp"
#include "system/system.hpp"
#include "obs/run_report.hpp"

using namespace dvmc;

int runQuickstart(int argc, char** argv, bool stats) {
  WorkloadKind wl = WorkloadKind::kOltp;
  ConsistencyModel model = ConsistencyModel::kTSO;
  Protocol protocol = Protocol::kDirectory;
  if ((argc > 1 && !parseConfigName("quickstart", argv[1], &wl)) ||
      (argc > 2 && !parseConfigName("quickstart", argv[2], &model)) ||
      (argc > 3 && !parseConfigName("quickstart", argv[3], &protocol))) {
    return 2;
  }

  // One call configures the paper's protected system: SC/TSO/PSO/RMO
  // support, MOSI coherence, the three DVMC checkers, SafetyNet BER.
  SystemConfig cfg = SystemConfig::withDvmc(protocol, model);
  cfg.numNodes = 8;
  cfg.workload = wl;
  cfg.targetTransactions = 400;
  cfg.tracer = obs::activeTracer();
  cfg.forensics = obs::activeForensics();
  cfg.sampleEvery = obs::options().sampleEvery;
  cfg.sampleCapacity = obs::options().sampleCapacity;

  std::printf("DVMC quickstart: %zu-node %s system, %s, workload '%s'\n",
              cfg.numNodes, protocolName(protocol), modelName(model),
              workloadName(wl));
  std::printf("%s\n",
              OrderingTable::forModel(model).toString().c_str());

  armCaptureFromObs(cfg);
  System sys(cfg);
  RunResult r = sys.run();
  writeCaptureFileOnce(r.trace);

  std::printf("run %s in %llu cycles\n",
              r.completed ? "completed" : "DID NOT complete",
              static_cast<unsigned long long>(r.cycles));
  std::printf("  transactions        : %llu\n",
              static_cast<unsigned long long>(r.transactions));
  std::printf("  instructions retired: %llu\n",
              static_cast<unsigned long long>(r.retiredInstructions));
  std::printf("  memory ops emitted  : %llu (%.1f%% 32-bit TSO-forced)\n",
              static_cast<unsigned long long>(r.memOps),
              r.memOps ? 100.0 * r.memOps32 / r.memOps : 0.0);
  std::printf("  peak link load      : %.3f bytes/cycle\n",
              r.peakLinkBytesPerCycle);
  std::printf("  load squashes       : %llu (speculation repair)\n",
              static_cast<unsigned long long>(r.squashes));
  std::printf("  replay L1 misses    : %llu (of %llu execution misses)\n",
              static_cast<unsigned long long>(r.replayL1Misses),
              static_cast<unsigned long long>(r.regularL1Misses));

  // Checker activity: the machinery ran constantly, found nothing wrong.
  std::uint64_t informs = 0;
  std::uint64_t accessChecks = 0;
  std::uint64_t performs = 0;
  for (NodeId n = 0; n < sys.numNodes(); ++n) {
    if (sys.cet(n) != nullptr) {
      informs += sys.cet(n)->stats().get("cet.informEpoch");
      accessChecks += sys.cet(n)->stats().get("cet.accessChecks");
    }
    if (sys.met(n) != nullptr) {
      performs += sys.met(n)->stats().get("met.informsProcessed");
    }
  }
  std::printf("checker activity:\n");
  std::printf("  CET perform checks  : %llu\n",
              static_cast<unsigned long long>(accessChecks));
  std::printf("  Inform-Epochs sent  : %llu\n",
              static_cast<unsigned long long>(informs));
  std::printf("  MET informs checked : %llu\n",
              static_cast<unsigned long long>(performs));
  std::printf("  checkpoints kept    : %zu (window %llu cycles)\n",
              sys.ber()->checkpointCount(),
              static_cast<unsigned long long>(sys.ber()->recoveryWindow()));
  std::printf("  errors detected     : %llu%s\n",
              static_cast<unsigned long long>(r.detections),
              r.detections == 0 ? " (error-free run, as expected)" : "");
  if (stats) printStatsReport(sys, std::cout);
  if (obs::reportingActive()) {
    Json run = Json::object();
    run.set("kind", Json::str("quickstart"));
    run.set("config", configJson(cfg));
    run.set("result", toJson(r));
    obs::addReportRun(std::move(run));
  }
  return r.detections == 0 && r.completed ? 0 : 1;
}

int main(int argc, char** argv) {
  CliParser cli("quickstart",
                "8-node directory system with full DVMC and SafetyNet");
  cli.usageLine(
      "quickstart [workload] [sc|tso|pso|rmo] [dir|snoop] [--stats]");
  bool stats = false;
  cli.flag("--stats", &stats, "print the full statistics report");
  addRunnerFlags(cli);
  obs::addObsFlags(cli);
  argc = cli.parse(argc, argv);
  const int rc = runQuickstart(argc, argv, stats);
  const int obsRc = dvmc::obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}

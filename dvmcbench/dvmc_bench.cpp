// Whole-machine DVMC benchmark: runs one workload on the 8-node machine in
// this single-threaded process and prints every metric by name with its
// unit, then one JSON result line.
//
//   dvmc_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--spans-dir DIR]
//
// The run is repeated, with the same seed, until S seconds have passed.
// Run times are timed in segments, scaled by a host-speed probe read
// around each segment, and taken as the fastest reading of each segment
// over the repetitions; other host times are medians. Every repetition must
// reproduce the same behaviour fingerprint (a hash of the RunResult
// scalars, the merged MetricSnapshot and the detection list), since the
// simulated statistics are deterministic per seed. dvmcbench/README.md
// describes the workloads, the repetition schedule and every metric.
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1
// reports the per-layer metrics: counts read through RunResult and
// System::metricsSnapshot(), host time at the boundaries this harness
// owns, and spans from a traced repetition that wraps every
// ThreadProgram and TraceSink call. The traced repetition must reproduce
// the untraced fingerprint.
//
// Heap allocations are counted by the operator-new hook of
// bench_common.hpp over the timed run only (after System construction).

#define DVMC_BENCH_ALLOC_HOOK 1
#include "bench_common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "verify/oracle.hpp"
#include "verify/streaming_oracle.hpp"
#include "workload/synthetic.hpp"

namespace dvmc::bench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workloads --------------------------------------------------------------

constexpr std::size_t kNodes = 8;

struct WorkloadSpec {
  const char* name;
  Protocol protocol;
  ConsistencyModel model;
  WorkloadKind kind;
  bool dvmc;    // full DVMC checkers plus SafetyNet
  bool oracle;  // capture the commit trace and judge it after the run
  // oltp: global transaction target; barnes: phases per processor.
  std::uint64_t target;
  // Inputs simulated per run, each from its own seed derived from --seed.
  // More than one where the per-seed spread of the modelled runtime is
  // wide, so a run's figures average over several inputs.
  std::uint64_t inputs;
  // A split repetition is timed in this many segments of equal
  // transaction count (even: the first half ends after segments / 2);
  // each lasts tens to hundreds of milliseconds.
  std::size_t segments;
};

// Run lengths are fixed so that both DVMC workloads run past the first
// wrap of their 16-bit logical clock (see README.md); they are never
// shortened to hide detections.
constexpr WorkloadSpec kWorkloads[] = {
    {"oltp-dir-base", Protocol::kDirectory, ConsistencyModel::kTSO,
     WorkloadKind::kOltp, false, false, 1000, 8, 16},
    {"oltp-snoop-dvmc", Protocol::kSnooping, ConsistencyModel::kTSO,
     WorkloadKind::kOltp, true, false, 2000, 1, 64},
    {"barnes-dir-rmo-oracle", Protocol::kDirectory, ConsistencyModel::kRMO,
     WorkloadKind::kBarnes, true, true, 96, 3, 32},
};

SystemConfig makeConfig(const WorkloadSpec& w, std::uint64_t seed) {
  SystemConfig cfg = w.dvmc ? SystemConfig::withDvmc(w.protocol, w.model)
                            : SystemConfig::unprotected(w.protocol, w.model);
  cfg.numNodes = kNodes;
  cfg.workload = w.kind;
  cfg.seed = seed;
  cfg.targetTransactions = w.target;
  cfg.jobs = 1;
  return cfg;
}

// --- host-speed probe ------------------------------------------------------

/// A fixed integer kernel on a table that fits in L2. It belongs to the
/// harness, so no change to the simulator moves it; its time tracks how
/// fast the shared host runs this process at that moment. Host times of
/// the end-to-end metrics are scaled by kNominalS over the probe time
/// read around them, which takes out the host's drift (other tenants, or
/// clock changes, slow it down by up to 2x for seconds at a time).
class SpeedProbe {
 public:
  /// The fastest probe reading on a quiet 4-vCPU Xeon host (2.0 GHz
  /// nominal, gcc -O2 Release): the host speed every scaled time refers to.
  static constexpr double kNominalS = 0.0013;

  SpeedProbe() : table_(kEntries) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t& v : table_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x % kEntries);
    }
  }

  /// Host seconds of one run of the kernel.
  double measure() {
    const Clock::time_point t0 = Clock::now();
    std::uint32_t p = 1;
    std::uint64_t h = 0;
    for (std::uint32_t i = 0; i < kSteps; ++i) {
      p = table_[(p + i) % kEntries];
      h = h * 0x100000001b3ULL + p;
      if ((h & 1) != 0) h ^= h >> 3;
    }
    sink_ = h;
    return secondsSince(t0);
  }

  /// Scales a host time read between probe readings `a` and `b` to the
  /// nominal host.
  static double scale(double a, double b) { return kNominalS / (0.5 * (a + b)); }

 private:
  static constexpr std::uint32_t kEntries = 1u << 16;  // 256 KiB
  static constexpr std::uint32_t kSteps = 150'000;
  std::vector<std::uint32_t> table_;
  volatile std::uint64_t sink_ = 0;
};

SpeedProbe& probe() {
  static SpeedProbe p;
  return p;
}

// --- spans of the traced repetition -----------------------------------------

enum SpanKind : std::uint8_t {
  kSpanSetup,
  kSpanRunHalf1,
  kSpanRunHalf2,
  kSpanCaptureClose,
  kSpanDrain,
  kSpanCollect,
  kSpanOracleStream,
  kSpanOracleBatch,
  kSpanProgramNext,
  kSpanProgramOnResult,
  kSpanSinkBegin,
  kSpanSinkChunk,
  kSpanSinkEnd,
  kInstantDetection,
  kSpanKinds,
};

constexpr const char* kSpanNames[kSpanKinds] = {
    "system.setup",       "system.run_half1",     "system.run_half2",
    "verify.capture_close", "system.drain",       "system.collect",
    "verify.oracle_stream", "verify.oracle_batch", "workload.next",
    "workload.on_result", "verify.sink_begin",    "verify.sink_chunk",
    "verify.sink_end",    "dvmc.detection",
};

/// In-memory span log of one traced repetition, written out when it ends.
/// Coarse spans (the harness boundaries), TraceSink calls and detection
/// instants are kept as full records: a fine span names the coarse span
/// open around it as its parent, and an instant has t1 == t0 with the
/// simulated cycle as `arg`. The millions of ThreadProgram calls are kept
/// as compact 16-byte records; their parent is the coarse span that
/// contains them in time.
class SpanLog {
 public:
  struct Span {
    std::int64_t t0;
    std::int64_t t1;
    std::uint64_t arg;
    std::uint32_t parent;
    SpanKind kind;
  };
  struct Call {
    std::int64_t t0;
    std::uint32_t dur;
    std::uint8_t kind;  // kSpanProgramNext or kSpanProgramOnResult
  };
  static_assert(sizeof(Call) == 16);
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  SpanLog() : origin_(Clock::now()) { calls_.reserve(std::size_t{1} << 22); }

  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  /// Opens a coarse span; spans added until close() name it parent.
  std::uint32_t open(SpanKind k) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{now(), -1, 0, current_, k});
    current_ = id;
    return id;
  }
  void close(std::uint32_t id) {
    spans_[id].t1 = now();
    current_ = spans_[id].parent;
  }
  void add(SpanKind k, std::int64_t t0, std::int64_t t1,
           std::uint64_t arg = 0) {
    spans_.push_back(Span{t0, t1, arg, current_, k});
  }
  void addCall(SpanKind k, std::int64_t t0, std::int64_t t1) {
    calls_.push_back(Call{t0, static_cast<std::uint32_t>(t1 - t0),
                          static_cast<std::uint8_t>(k)});
  }

  /// Summed duration and count per kind.
  struct Total {
    double seconds = 0;
    std::uint64_t count = 0;
  };
  Total total(SpanKind k) const {
    Total t;
    for (const Span& s : spans_) {
      if (s.kind != k) continue;
      t.seconds += static_cast<double>(s.t1 - s.t0) * 1e-9;
      ++t.count;
    }
    for (const Call& c : calls_) {
      if (c.kind != k) continue;
      t.seconds += static_cast<double>(c.dur) * 1e-9;
      ++t.count;
    }
    return t;
  }

  /// Writes `<base>.spans.tsv` (id, parent id or -1, name, start ns, end ns,
  /// arg) and `<base>.calls.bin` (the Call records, little-endian as laid
  /// out above: start ns, duration ns, kind, 3 bytes of padding).
  bool write(const std::string& base) const {
    std::FILE* f = std::fopen((base + ".spans.tsv").c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# id\tparent\tname\tstart_ns\tend_ns\targ\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%zu\t%" PRId64 "\t%s\t%" PRId64 "\t%" PRId64
                   "\t%" PRIu64 "\n",
                   i,
                   s.parent == kNoParent ? std::int64_t{-1}
                                         : std::int64_t{s.parent},
                   kSpanNames[s.kind], s.t0, s.t1, s.arg);
    }
    bool ok = std::fclose(f) == 0;
    f = std::fopen((base + ".calls.bin").c_str(), "wb");
    if (f == nullptr) return false;
    ok = std::fwrite(calls_.data(), sizeof(Call), calls_.size(), f) ==
             calls_.size() &&
         ok;
    return std::fclose(f) == 0 && ok;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Call> calls_;
  std::uint32_t current_ = kNoParent;
};

/// Times every ThreadProgram call of the SyntheticWorkload it owns. The
/// wrapper forwards each call unchanged, so the simulated run is the
/// same; System::collectResult cannot see the SyntheticWorkload behind
/// it, so the harness reads the memory-op counts through inner().
class TracedProgram final : public ThreadProgram {
 public:
  TracedProgram(std::unique_ptr<SyntheticWorkload> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  std::optional<Instr> next() override {
    const std::int64_t t0 = log_->now();
    std::optional<Instr> i = inner_->next();
    log_->addCall(kSpanProgramNext, t0, log_->now());
    return i;
  }
  void onResult(std::uint64_t token, std::uint64_t value) override {
    const std::int64_t t0 = log_->now();
    inner_->onResult(token, value);
    log_->addCall(kSpanProgramOnResult, t0, log_->now());
  }
  bool finished() const override { return inner_->finished(); }
  std::uint64_t transactionsCompleted() const override {
    return inner_->transactionsCompleted();
  }
  std::unique_ptr<ThreadProgram> clone() const override {
    return std::make_unique<TracedProgram>(
        std::make_unique<SyntheticWorkload>(*inner_), log_);
  }

  const SyntheticWorkload& inner() const { return *inner_; }

 private:
  std::unique_ptr<SyntheticWorkload> inner_;
  SpanLog* log_;
};

/// Times every TraceSink call on its way to the wrapped sink.
class TracedSink final : public verify::TraceSink {
 public:
  TracedSink(verify::TraceSink* inner, SpanLog* log)
      : inner_(inner), log_(log) {}
  void begin(const verify::TraceHeader& h) override {
    const std::int64_t t0 = log_->now();
    inner_->begin(h);
    log_->add(kSpanSinkBegin, t0, log_->now());
  }
  void chunk(verify::TraceChunk&& c) override {
    const std::int64_t t0 = log_->now();
    const std::uint64_t n = c.records.size();
    inner_->chunk(std::move(c));
    log_->add(kSpanSinkChunk, t0, log_->now(), n);
  }
  void end(bool truncated) override {
    const std::int64_t t0 = log_->now();
    inner_->end(truncated);
    log_->add(kSpanSinkEnd, t0, log_->now());
  }

 private:
  verify::TraceSink* inner_;
  SpanLog* log_;
};

/// Closes a coarse span on scope exit (no-op without a log).
class ScopedSpanOf {
 public:
  ScopedSpanOf(SpanLog* log, SpanKind k)
      : log_(log), id_(log != nullptr ? log->open(k) : 0) {}
  ~ScopedSpanOf() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpanOf(const ScopedSpanOf&) = delete;
  ScopedSpanOf& operator=(const ScopedSpanOf&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

// --- behaviour fingerprint --------------------------------------------------

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
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
  h.f64(r.peakLinkBytesPerCycle);
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

// --- one repetition ---------------------------------------------------------

/// How a repetition drives the run: straight to the target, stopping
/// after every segment (WorkloadSpec::segments) and resuming, or stopping
/// at half for good (a cheap repetition check of the first half).
enum class RunMode { kUnsplit, kSplit, kFirstHalf };

struct Rep {
  bool traced = false;
  RunMode mode = RunMode::kUnsplit;
  bool full() const { return mode != RunMode::kFirstHalf; }
  double setupS = 0;
  // Split runs: host seconds of each segment, scaled to the nominal host
  // by the probe readings before and after it.
  std::vector<double> segScaledS;
  // Set-up plus everything after the run (capture close, drain, oracle,
  // tear-down), scaled by the probe readings around the latter.
  double restScaledS = 0;
  std::vector<double> probeS;  // every probe reading
  double drainS = 0;
  double captureCloseS = 0;  // System::finishTraceCapture
  double oracleS = 0;        // streaming finish + batch fallback
  double wallS = 0;
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  std::uint64_t retiredHalf = 0;
  std::uint64_t vcPeak = 0;  // largest per-node verification-cache peak
  double clockTurns = 0;     // node 0's logical time at run end / 2^16
  RunResult atRunEnd;  // before the checker drain
  RunResult final;     // after the drain; what the fingerprint hashes
  std::vector<Detection> detections;
  std::uint64_t fingerprint = 0;      // after the drain (full runs)
  std::uint64_t halfFingerprint = 0;  // at the split point (split runs)
  // oracle workload only
  bool oracleClean = true;
  bool streamFallback = false;
  std::string fallbackReason;
  std::string oracleMessage;
  std::uint64_t records = 0;
  std::uint64_t peakResident = 0;
};

/// collectResult counts memory ops only for a bare SyntheticWorkload; under
/// TracedProgram the harness reads them through the wrapper.
void countMemOps(System& sys, RunResult& r) {
  r.memOps = 0;
  r.memOps32 = 0;
  for (NodeId n = 0; n < sys.numNodes(); ++n) {
    const auto& p = dynamic_cast<const TracedProgram&>(sys.core(n).program());
    r.memOps += p.inner().memOpsEmitted();
    r.memOps32 += p.inner().memOps32Emitted();
  }
}

Rep runRep(const WorkloadSpec& w, std::uint64_t seed, RunMode mode,
           SpanLog* log) {
  Rep rep;
  rep.traced = log != nullptr;
  rep.mode = mode;
  SystemConfig cfg = makeConfig(w, seed);

  verify::StreamingOracle oracle;
  std::optional<TracedSink> tracedSink;
  if (w.oracle) {
    cfg.trace.capture = true;
    cfg.trace.keepInMemory = true;  // the batch fallback judges this copy
    if (log != nullptr) {
      tracedSink.emplace(&oracle, log);
      cfg.trace.sink = &*tracedSink;
    } else {
      cfg.trace.sink = &oracle;
    }
  }
  if (log != nullptr) {
    cfg.programFactory = [&cfg, log](NodeId n) {
      WorkloadParams p = workloadPreset(cfg.workload);
      // Same rule as System::makeProgram for barrier workloads.
      if (p.barrierEveryTx != 0) p.maxTransactions = cfg.targetTransactions;
      return std::make_unique<TracedProgram>(
          std::make_unique<SyntheticWorkload>(p, cfg.model, n, cfg.numNodes,
                                              cfg.seed),
          log);
    };
  }

  const Clock::time_point wall0 = Clock::now();
  std::optional<System> sys;
  {
    ScopedSpanOf span(log, kSpanSetup);
    sys.emplace(cfg);
  }
  rep.setupS = secondsSince(wall0);
  if (log != nullptr) {
    sys->sink().addObserver([log](const Detection& d) {
      const std::int64_t t = log->now();
      log->add(kInstantDetection, t, t, d.cycle);
    });
  }

  // Barnes counts phases per processor; totalTransactions() sums them.
  const std::uint64_t totalTarget =
      w.kind == WorkloadKind::kBarnes ? w.target * kNodes : w.target;
  // Probe readings are taken outside every timed stretch and left out of
  // wallS.
  double probeTotalS = 0;
  rep.probeS.reserve(w.segments + 2);  // no allocation while counting
  const auto readProbe = [&] {
    const Clock::time_point p0 = Clock::now();
    rep.probeS.push_back(probe().measure());
    probeTotalS += secondsSince(p0);
    return rep.probeS.back();
  };
  resetAllocCount();
  if (mode != RunMode::kUnsplit) {
    // Each segment runs to its share of the target; the last one runs on
    // to the target itself. A segment that stops short (maxCycles) ends
    // the run.
    const std::size_t all = w.segments;
    const std::size_t segments = mode == RunMode::kFirstHalf ? all / 2 : all;
    Cycle cycles = 0;
    double before = readProbe();
    for (std::size_t k = 0; k < segments; ++k) {
      const std::uint64_t bound = totalTarget * (k + 1) / all;
      RunResult seg;
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpanOf span(log, k < all / 2 ? kSpanRunHalf1 : kSpanRunHalf2);
        seg = k + 1 < all ? sys->runUntil([&] {
          return sys->totalTransactions() >= bound;
        })
                          : sys->runUntil([] { return false; });
      }
      const double segS = secondsSince(t0);
      const double after = readProbe();
      rep.segScaledS.push_back(segS * SpeedProbe::scale(before, after));
      before = after;
      cycles += seg.cycles;
      seg.cycles = cycles;
      if (k + 1 == all / 2) {
        rep.retiredHalf = seg.retiredInstructions;
        if (log != nullptr) countMemOps(*sys, seg);
        rep.halfFingerprint = fingerprint(seg, sys->sink().detections());
      }
      rep.atRunEnd = std::move(seg);
      if (!rep.atRunEnd.completed) break;
    }
    if (mode == RunMode::kFirstHalf) return rep;
  } else {
    {
      ScopedSpanOf span(log, kSpanRunHalf1);
      rep.atRunEnd = sys->runUntil([] { return false; });
    }
    readProbe();
  }
  rep.allocs = allocCount();
  if (log != nullptr) countMemOps(*sys, rep.atRunEnd);
  rep.clockTurns = static_cast<double>(sys->l2(0).clock().now()) / 65536.0;
  rep.events = sys->sim().eventsExecuted();

  const Clock::time_point tail0 = Clock::now();
  Clock::time_point t = tail0;
  {
    ScopedSpanOf span(log, kSpanCaptureClose);
    sys->finishTraceCapture();
  }
  rep.captureCloseS = secondsSince(t);
  t = Clock::now();
  {
    ScopedSpanOf span(log, kSpanDrain);
    sys->drainCheckers();
  }
  rep.drainS = secondsSince(t);
  {
    ScopedSpanOf span(log, kSpanCollect);
    rep.final = sys->collectResult(rep.atRunEnd.completed, rep.atRunEnd.cycles);
  }
  if (log != nullptr) countMemOps(*sys, rep.final);
  rep.detections = sys->sink().detections();
  if (w.dvmc) {
    const MetricSnapshot perNode = sys->metricsSnapshot(/*perNode=*/true);
    for (std::size_t n = 0; n < cfg.numNodes; ++n) {
      rep.vcPeak = std::max(
          rep.vcPeak,
          perNode.value("node" + std::to_string(n) + "/vc.entries.peak"));
    }
  }

  // The oracle phase is timed on every workload; it is empty without a
  // captured trace.
  t = Clock::now();
  if (w.oracle) {
    {
      ScopedSpanOf span(log, kSpanOracleStream);
      const verify::OracleResult& res = oracle.finish();
      rep.streamFallback = oracle.windowExceeded();
      rep.fallbackReason = oracle.windowExceededReason();
      rep.peakResident = oracle.peakResidentRecords();
      if (!rep.streamFallback) {
        rep.oracleClean = res.clean;
        if (!res.clean && !res.violations.empty()) {
          rep.oracleMessage = res.violations[0].message;
        }
      }
    }
    if (rep.streamFallback) {
      ScopedSpanOf span(log, kSpanOracleBatch);
      const verify::OracleResult res = verify::checkTrace(*rep.final.trace);
      rep.oracleClean = res.clean;
      if (!res.clean && !res.violations.empty()) {
        rep.oracleMessage = res.violations[0].message;
      }
    }
    rep.records = rep.final.trace ? rep.final.trace->records.size() : 0;
    // Both results share the capture; free it before the next repetition.
    rep.final.trace.reset();
    rep.atRunEnd.trace.reset();
  }
  rep.oracleS = secondsSince(t);
  sys.reset();
  const double tailS = secondsSince(tail0);
  rep.wallS = secondsSince(wall0) - probeTotalS;
  const double runEndProbe = rep.probeS.back();
  rep.restScaledS =
      (rep.setupS + tailS) * SpeedProbe::scale(runEndProbe, readProbe());
  rep.fingerprint = fingerprint(rep.final, rep.detections);
  return rep;
}

/// Builds (and destroys) one System without running it: extra set-up
/// samples for setup_s, which lasts well under a millisecond and is too
/// short to read steadily from one construction per repetition.
double timeSetupOnly(const WorkloadSpec& w, std::uint64_t seed) {
  SystemConfig cfg = makeConfig(w, seed);
  verify::StreamingOracle oracle;
  if (w.oracle) {
    cfg.trace.capture = true;
    cfg.trace.sink = &oracle;
  }
  const Clock::time_point t0 = Clock::now();
  std::optional<System> sys;
  sys.emplace(cfg);
  const double s = secondsSince(t0);
  sys.reset();
  return s;
}

// --- metrics ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Scaled run time of one input: for each segment, the fastest scaled
/// reading over the untraced split (and first-half) repetitions, summed
/// over the segments in [from, to). The probe scaling takes out most of
/// the host's drift; what is left only ever slows a stretch of the run
/// down, so the fastest reading of each stretch of the same deterministic
/// work is the steadiest estimate of its cost.
double segmentRunS(const std::vector<Rep>& reps, std::size_t from,
                   std::size_t to) {
  double sum = 0;
  for (std::size_t k = from; k < to; ++k) {
    double best = 0;
    for (const Rep& r : reps) {
      if (r.traced || k >= r.segScaledS.size()) continue;
      const double v = r.segScaledS[k];
      if (best == 0 || v < best) best = v;
    }
    sum += best;
  }
  return sum;
}

/// All repetitions of one input, plus the span totals of its last traced
/// repetition.
struct Input {
  std::uint64_t seed = 0;
  std::size_t segments = 0;
  std::vector<Rep> reps;
  SpanLog::Total next;
  SpanLog::Total onResult;
  double sinkS = 0;

  /// The first full repetition: the reference for fingerprints and counts.
  const Rep& ref() const {
    return *std::find_if(reps.begin(), reps.end(),
                         [](const Rep& r) { return r.full(); });
  }

  /// The scaled segment-wise run time (see segmentRunS).
  double runEst() const { return segmentRunS(reps, 0, segments); }

  /// runEst() plus the fastest scaled rest of a full untraced repetition:
  /// set-up, checker drain, oracle and tear-down.
  double wallEst() const {
    double rest = 0;
    for (const Rep& r : reps) {
      if (!r.full() || r.traced) continue;
      if (rest == 0 || r.restScaledS < rest) rest = r.restScaledS;
    }
    return runEst() + rest;
  }

  /// Median over the full untraced (or traced) repetitions.
  template <class F>
  double med(F f, bool traced = false) const {
    std::vector<double> v;
    for (const Rep& r : reps) {
      if (r.full() && r.traced == traced) v.push_back(f(r));
    }
    return median(std::move(v));
  }
};

/// Failure accounting: every committed memory op is attempted; a checker
/// detection in these fault-free runs, an oracle violation, or a run that
/// hit maxCycles (every op of the shortfall) counts as failed.
struct Failures {
  std::uint64_t ops = 0;
  std::uint64_t checkerFlags = 0;
  std::uint64_t oracleFlags = 0;
  std::uint64_t uncommitted = 0;
  std::uint64_t failed() const {
    return checkerFlags + oracleFlags + uncommitted;
  }
  double ppm() const { return ratio(1e6 * static_cast<double>(failed()),
                                    static_cast<double>(ops)); }
};

void countFailures(const WorkloadSpec& w, const Rep& r, Failures& f) {
  f.ops += r.atRunEnd.memOps;
  f.checkerFlags += r.final.detections;
  f.oracleFlags += r.oracleClean ? 0 : 1;
  if (!r.atRunEnd.completed) {
    const std::uint64_t target =
        w.kind == WorkloadKind::kBarnes ? w.target * kNodes : w.target;
    const std::uint64_t done =
        std::max<std::uint64_t>(r.atRunEnd.transactions, 1);
    const std::uint64_t missing = target > done ? target - done : 1;
    const std::uint64_t lost = (r.atRunEnd.memOps * missing + done - 1) / done;
    f.uncommitted += lost;
    f.ops += lost;
  }
}

/// Sums the counts of `r` into `into` (peak link use: the maximum).
void accumulate(RunResult& into, const RunResult& r) {
  into.cycles += r.cycles;
  into.transactions += r.transactions;
  into.retiredInstructions += r.retiredInstructions;
  into.memOps += r.memOps;
  into.memOps32 += r.memOps32;
  into.peakLinkBytesPerCycle =
      std::max(into.peakLinkBytesPerCycle, r.peakLinkBytesPerCycle);
  into.totalNetBytes += r.totalNetBytes;
  into.coherenceBytes += r.coherenceBytes;
  into.informBytes += r.informBytes;
  into.ckptBytes += r.ckptBytes;
  into.regularL1Misses += r.regularL1Misses;
  into.replayL1Misses += r.replayL1Misses;
  into.detections += r.detections;
  into.squashes += r.squashes;
  into.metrics.merge(r.metrics);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

Json metricsJson(const std::vector<Metric>& ms) {
  Json j = Json::object();
  for (const Metric& m : ms) {
    j.set(m.name, Json::object()
                      .set("value", Json::num(m.value))
                      .set("unit", Json::str(m.unit)));
  }
  return j;
}

std::vector<Metric> endToEndMetrics(const WorkloadSpec& w,
                                    const std::vector<Input>& inputs,
                                    const std::vector<double>& setupSamples) {
  double instr = 0, cycles = 0, units = 0, ops = 0, allocs = 0, run = 0,
         wall = 0;
  for (const Input& in : inputs) {
    const RunResult& end = in.ref().atRunEnd;
    instr += static_cast<double>(end.retiredInstructions);
    cycles += static_cast<double>(end.cycles);
    units += w.kind == WorkloadKind::kBarnes
                 ? static_cast<double>(w.target)
                 : static_cast<double>(end.transactions);
    ops += static_cast<double>(end.memOps);
    allocs += in.med([](const Rep& r) { return double(r.allocs); });
    run += in.runEst();
    wall += in.wallEst();
  }
  const double n = static_cast<double>(inputs.size());
  return {
      {"instr_per_s", ratio(instr, run), "instr/s"},
      {"sim_cycles_per_s", ratio(cycles, run), "cycles/s"},
      {"wall_s", wall / n, "s"},
      {"setup_s", median(setupSamples), "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"allocs_per_memop", ratio(allocs, ops), "allocs/op"},
      // barnes: per barrier phase
      {"sim_cycles_per_tx", ratio(cycles, units), "cycles/tx"},
  };
}

std::vector<Metric> perLayerMetrics(const WorkloadSpec& w,
                                    const std::vector<Input>& inputs,
                                    const Failures& fail) {
  RunResult end;
  RunResult res;
  double runSum = 0, drain = 0, captureS = 0, oracleS = 0, events = 0,
         nextCalls = 0, selfS = 0, sinkS = 0, records = 0, peakResident = 0,
         overhead = 0, clockTurns = 1e300, firstDetection = 0, vcPeak = 0,
         fallbacks = 0, reps = 0;
  std::vector<double> slowdown;
  std::vector<double> probes;
  for (const Input& in : inputs) {
    const Rep& ref = in.ref();
    accumulate(end, ref.atRunEnd);
    accumulate(res, ref.final);
    runSum += in.runEst();
    drain += in.med([](const Rep& r) { return r.drainS; });
    oracleS += in.med([](const Rep& r) { return r.oracleS; });
    captureS += in.med([](const Rep& r) { return r.captureCloseS; });
    events += static_cast<double>(ref.events);
    nextCalls += static_cast<double>(in.next.count);
    selfS += in.next.seconds + in.onResult.seconds;
    sinkS += in.sinkS;
    records += static_cast<double>(ref.records);
    peakResident = std::max(peakResident, double(ref.peakResident));
    overhead += in.med([](const Rep& r) { return r.wallS; }, true) -
                in.med([](const Rep& r) { return r.wallS; });
    clockTurns = std::min(clockTurns, ref.clockTurns);
    if (!ref.detections.empty()) {
      const double c = static_cast<double>(ref.detections.front().cycle);
      firstDetection = firstDetection == 0 ? c : std::min(firstDetection, c);
    }
    vcPeak = std::max(vcPeak, static_cast<double>(ref.vcPeak));
    for (const Rep& r : in.reps) {
      probes.insert(probes.end(), r.probeS.begin(), r.probeS.end());
      if (!r.full()) continue;
      fallbacks += r.streamFallback ? 1 : 0;
      reps += 1;
    }
    // Round 0 is always split and untraced.
    const Rep& split = in.reps.front();
    const double i1 = static_cast<double>(split.retiredHalf);
    const double i2 = static_cast<double>(
        split.atRunEnd.retiredInstructions - split.retiredHalf);
    const std::size_t half = in.segments / 2;
    slowdown.push_back(
        ratio(ratio(segmentRunS(in.reps, half, in.segments), i2),
              ratio(segmentRunS(in.reps, 0, half), i1)));
  }
  // Times and counts are per input (the mean over a run's inputs).
  const double n = static_cast<double>(inputs.size());
  const MetricSnapshot& m = res.metrics;
  const auto c = [&m](const char* name) {
    return static_cast<double>(m.value(name));
  };
  const LatencyHistogram* residence = nullptr;
  if (auto it = m.histograms.find("met.informSortResidence");
      it != m.histograms.end()) {
    residence = &it->second;
  }
  const double ops = static_cast<double>(end.memOps);
  const double instr = static_cast<double>(end.retiredInstructions);
  const double informs =
      c("cet.informEpoch") + c("cet.informOpen") + c("cet.informClosed");
  bool oracleClean = true;
  for (const Input& in : inputs) {
    oracleClean = oracleClean && in.ref().oracleClean;
  }
  return {
      {"system.run_s", runSum / n, "s"},
      {"system.drain_s", drain / n, "s"},
      {"system.late_half_slowdown", median(slowdown), "ratio"},
      {"sim.events", events / n, "count"},
      {"sim.events_per_instr", ratio(events, instr), "events/instr"},
      {"sim.ns_per_event", ratio(runSum * 1e9, events), "ns"},
      {"workload.next_calls", nextCalls / n, "count"},
      {"workload.self_s", selfS / n, "s"},
      {"cpu.ipc", ratio(instr, static_cast<double>(end.cycles * kNodes)),
       "instr/cycle"},
      {"cpu.squashes_per_kinstr", ratio(1e3 * c("cpu.squashes"), instr),
       "1/kinstr"},
      {"cpu.rob_full_stalls_per_kinstr",
       ratio(1e3 * c("cpu.robFullStalls"), instr), "1/kinstr"},
      {"cpu.replay_vc_hit_share",
       ratio(c("cpu.replayVcHit"), c("cpu.replayIssued")), "share"},
      {"l1.miss_share", ratio(c("l1.miss"), c("l1.hit") + c("l1.miss")),
       "share"},
      {"l2.miss_share", ratio(c("l2.miss"), c("l2.hit") + c("l2.miss")),
       "share"},
      {"coherence.requests_per_kop",
       ratio(1e3 * (c("l2.getS") + c("l2.getM")), ops), "1/kop"},
      {"coherence.replay_l1_miss_ratio",
       ratio(static_cast<double>(res.replayL1Misses),
             static_cast<double>(res.regularL1Misses)),
       "ratio"},
      {"net.bytes_per_memop",
       ratio(static_cast<double>(res.totalNetBytes), ops), "B/op"},
      {"net.inform_byte_share",
       ratio(static_cast<double>(res.informBytes),
             static_cast<double>(res.totalNetBytes)),
       "share"},
      {"net.ckpt_byte_share",
       ratio(static_cast<double>(res.ckptBytes),
             static_cast<double>(res.totalNetBytes)),
       "share"},
      {"net.peak_link_bytes_per_cycle", res.peakLinkBytesPerCycle,
       "B/cycle"},
      {"dvmc.informs_per_kop", ratio(1e3 * informs, ops), "1/kop"},
      {"dvmc.scrub_overflow_per_kop",
       ratio(1e3 * c("cet.scrubFifoOverflow"), ops), "1/kop"},
      {"dvmc.met_sort_residence_p99",
       residence != nullptr ? static_cast<double>(residence->p99()) : 0,
       "cycles"},
      {"dvmc.first_false_detection_cycle", firstDetection, "cycle"},
      {"dvmc.clock_wheel_turns", clockTurns, "turns"},
      {"dvmc.vc_peak_entries", vcPeak, "entries"},
      {"ar.injected_membars_per_kop",
       ratio(1e3 * c("ar.injectedMembars"), ops), "1/kop"},
      {"ber.checkpoints", c("ber.checkpoints") / n, "count"},
      {"ber.undo_blocks_per_ckpt",
       ratio(c("ber.undoBlocksLogged"), c("ber.checkpoints")),
       "blocks/ckpt"},
      {"verify.records", records / n, "count"},
      {"verify.capture_s", (captureS + sinkS) / n, "s"},
      {"verify.oracle_s", oracleS / n, "s"},
      {"verify.records_per_s", ratio(records, captureS + sinkS + oracleS),
       "records/s"},
      {"verify.stream_fallback", w.oracle ? ratio(fallbacks, reps) : 0,
       "share"},
      {"verify.peak_resident_records", peakResident, "count"},
      {"verify.checker_false_positives",
       w.oracle && oracleClean ? static_cast<double>(res.detections) / n : 0,
       "count"},
      {"failed_op_ppm", fail.ppm(), "ppm"},
      {"trace.overhead_s", overhead / n, "s"},
      {"host.probe_us", median(probes) * 1e6, "us"},
  };
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: dvmc_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace dvmc::bench

int main(int argc, char** argv) {
  using namespace dvmc;
  using namespace dvmc::bench;

  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  std::string spansDir;
  if (argc % 2 != 1) return usage("every flag takes a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, &end, 10);
      if (*v == '-' || *end != '\0') {
        return usage("--seed takes a whole number");
      }
    } else if (k == "--seconds") {
      seconds = std::strtod(v, &end);
      if (*end != '\0' || !(seconds > 0)) return usage("bad --seconds");
    } else if (k == "--trace") {
      trace = std::strcmp(v, "0") == 0   ? 0
              : std::strcmp(v, "1") == 0 ? 1
                                         : -1;
    } else if (k == "--spans-dir") {
      spansDir = v;
    } else {
      return usage(("unknown flag " + k).c_str());
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr) return usage("unknown --workload");
  if (seconds <= 0) return usage("--seconds is required");
  if (trace != 0 && trace != 1) return usage("--trace takes 0 or 1");
  const WorkloadSpec& w = *spec;

  std::vector<Input> inputs(w.inputs);
  for (std::uint64_t j = 0; j < w.inputs; ++j) {
    inputs[j].seed = seed * w.inputs + j;
    inputs[j].segments = w.segments;
  }
  std::printf("dvmc_bench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              w.name, seed, seconds, trace);
  std::printf("  machine: 8 nodes, %s, %s, %s, %s, target %" PRIu64 " %s, "
              "%" PRIu64 " input(s) per run\n",
              protocolName(w.protocol), modelName(w.model),
              workloadName(w.kind), w.dvmc ? "DVMC+SafetyNet" : "base",
              w.target,
              w.kind == WorkloadKind::kBarnes ? "phases/processor"
                                              : "transactions",
              w.inputs);

  // Rounds run every input once, at least twice, and then until --seconds
  // have passed. With --trace 0, round 1 runs only the first half (a
  // repetition check that costs little where the second half is slow) and
  // every other round is split: it stops after every segment and resumes.
  // With --trace 1, even rounds are split and untraced, odd rounds
  // unsplit and traced, which also checks that splitting a run leaves
  // its behaviour unchanged. Every full repetition must reproduce the
  // final fingerprint of the first, and every split one its half-way
  // fingerprint.
  // setup_s: the median over bare constructions made before the first run
  // (the same heap state in every run), in batches scaled by the probe
  // readings around each batch.
  constexpr int kSetupSamples = 512;
  constexpr int kSetupBatch = 8;
  std::vector<double> setupSamples;
  double before = trace == 0 ? probe().measure() : 0;
  for (int b = 0; trace == 0 && b < kSetupSamples / kSetupBatch; ++b) {
    std::vector<double> batch;
    for (int k = 0; k < kSetupBatch; ++k) {
      batch.push_back(timeSetupOnly(
          w, inputs[static_cast<std::size_t>(k) % w.inputs].seed));
    }
    const double after = probe().measure();
    for (double v : batch) {
      setupSamples.push_back(v * SpeedProbe::scale(before, after));
    }
    before = after;
  }
  std::unique_ptr<SpanLog> spans;  // the last traced repetition of input 0
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < 2 || secondsSince(start) < seconds; ++round) {
    const bool traced = trace == 1 && round % 2 == 1;
    RunMode mode = RunMode::kSplit;
    if (trace == 0 && round == 1) {
      mode = RunMode::kFirstHalf;
    } else if (trace == 1 && round % 2 == 1) {
      mode = RunMode::kUnsplit;
    }
    for (Input& in : inputs) {
      auto log = traced ? std::make_unique<SpanLog>() : nullptr;
      in.reps.push_back(runRep(w, in.seed, mode, log.get()));
      if (log) {
        in.next = log->total(kSpanProgramNext);
        in.onResult = log->total(kSpanProgramOnResult);
        in.sinkS = log->total(kSpanSinkBegin).seconds +
                   log->total(kSpanSinkChunk).seconds +
                   log->total(kSpanSinkEnd).seconds;
        if (&in == &inputs.front()) spans = std::move(log);
      }
    }
  }

  // --- correctness and fingerprint ---
  bool correct = true;
  Failures fail;
  Fnv1a combined;
  for (const Input& in : inputs) {
    const Rep& ref = in.ref();
    combined.u64(ref.fingerprint);
    countFailures(w, ref, fail);
    std::printf("  input seed=%" PRIu64 " fingerprint=%016" PRIx64
                " reps=%zu detections=%" PRIu64 " (%" PRIu64
                " before the drain) logical-clock turns=%.3f\n",
                in.seed, ref.fingerprint, in.reps.size(), ref.final.detections,
                ref.atRunEnd.detections, ref.clockTurns);
    if (ref.streamFallback) {
      std::printf("    streaming window exceeded, batch oracle judged: %s\n",
                  ref.fallbackReason.c_str());
    }
    const Rep& halfRef = in.reps.front();  // round 0 is always split
    for (const Rep& r : in.reps) {
      const char* how = r.mode == RunMode::kUnsplit ? "unsplit"
                        : r.mode == RunMode::kSplit ? "split"
                                                    : "first half";
      if (r.full() && r.fingerprint != ref.fingerprint) {
        std::printf("FAIL: input seed=%" PRIu64 ": fingerprint %016" PRIx64
                    " (%s, %s) != %016" PRIx64 " (split, untraced)\n",
                    in.seed, r.fingerprint, how,
                    r.traced ? "traced" : "untraced", ref.fingerprint);
        correct = false;
      }
      if (r.mode != RunMode::kUnsplit &&
          r.halfFingerprint != halfRef.halfFingerprint) {
        std::printf("FAIL: input seed=%" PRIu64 ": half-way fingerprint "
                    "%016" PRIx64 " (%s, %s) != %016" PRIx64 "\n",
                    in.seed, r.halfFingerprint, how,
                    r.traced ? "traced" : "untraced",
                    halfRef.halfFingerprint);
        correct = false;
      }
      if (!r.oracleClean) {
        std::printf("FAIL: input seed=%" PRIu64 ": oracle violation: %s\n",
                    in.seed, r.oracleMessage.c_str());
        correct = false;
      }
    }
    if (!ref.atRunEnd.completed) {
      std::printf("FAIL: input seed=%" PRIu64
                  ": run hit maxCycles before its target\n",
                  in.seed);
      correct = false;
    }
    if (w.dvmc && ref.clockTurns < 1.0) {
      std::printf("WARNING: input seed=%" PRIu64
                  " ended before the first 16-bit logical-clock wrap\n",
                  in.seed);
    }
  }
  std::printf("  fingerprint=%016" PRIx64 "  ops=%" PRIu64
              "  failed_ops=%" PRIu64 " (checker %" PRIu64 ", oracle %" PRIu64
              ", uncommitted %" PRIu64 ")  failed_op_ppm=%.3f\n",
              combined.value(), fail.ops, fail.failed(), fail.checkerFlags,
              fail.oracleFlags, fail.uncommitted, fail.ppm());
  if (w.oracle && fail.oracleFlags == 0) {
    std::printf("  checker false positives on an oracle-clean trace: %" PRIu64
                "\n",
                fail.checkerFlags);
  }

  std::vector<Metric> out;
  if (trace == 0) {
    out = endToEndMetrics(w, inputs, setupSamples);
    printMetrics("end-to-end (untraced; run times are per-segment minima):",
                 out);
  } else {
    out = perLayerMetrics(w, inputs, fail);
    printMetrics("per-layer:", out);
    if (spans && !spansDir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(spansDir, ec);
      const std::string base = spansDir + "/" + w.name;
      const bool written = spans->write(base);
      std::printf("  spans of input seed=%" PRIu64
                  " %s %s.{spans.tsv,calls.bin}\n",
                  inputs[0].seed,
                  written ? "written to" : "could not be written to",
                  base.c_str());
    }
  }

  const Json result = Json::object()
                          .set("correct", Json::boolean(correct))
                          .set("attempted", Json::num(fail.ops))
                          .set("failed", Json::num(fail.failed()))
                          .set("metrics", metricsJson(out));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

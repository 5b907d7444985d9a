// The single-config runner end to end: the real dvmc_run binary is driven
// through runSubprocess, the way subprocess_test drives dvmc_campaign. A
// named SmokeAll config completes, a fuzz case writes a Chrome trace that
// `dvmc_inspect timeline --addr` reads, and an unknown config name is a
// usage error.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/subprocess.hpp"
#include "obs/json.hpp"

namespace dvmc {
namespace {

namespace fs = std::filesystem;

#if defined(DVMC_RUN_BIN) && defined(DVMC_INSPECT_BIN)

SubprocessResult run(const std::string& bin,
                     const std::vector<std::string>& args) {
  SubprocessOptions o;
  o.argv = {bin};
  o.argv.insert(o.argv.end(), args.begin(), args.end());
  o.deadlineMs = 120'000;
  o.maxCapturedBytes = 256 * 1024;
  return runSubprocess(o);
}

TEST(DvmcRun, NamedSmokeConfigCompletes) {
  const SubprocessResult r = run(DVMC_RUN_BIN, {"dir", "tso", "oltp"});
  ASSERT_TRUE(r.status.clean()) << r.status.describe() << "\n"
                                << r.stderrTail;
  EXPECT_NE(r.stdoutTail.find("completed=1 "), std::string::npos)
      << r.stdoutTail;
  EXPECT_NE(r.stdoutTail.find("txns=60 detections=0"), std::string::npos)
      << r.stdoutTail;
}

TEST(DvmcRun, FuzzCaseTraceFeedsTheTimeline) {
  const fs::path dir = fs::temp_directory_path() / "dvmc_run_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string trace = (dir / "t.json").string();
  const SubprocessResult r =
      run(DVMC_RUN_BIN, {"--fuzz-param", "7", "--trace", trace});
  ASSERT_TRUE(r.status.clean()) << r.status.describe() << "\n"
                                << r.stderrTail;
  EXPECT_NE(r.stdoutTail.find("param=7 config={"), std::string::npos)
      << r.stdoutTail;
  EXPECT_NE(r.stdoutTail.find("completed=1 "), std::string::npos)
      << r.stdoutTail;

  // Pick the first traced event that names a block and ask the timeline
  // for that block: it must find at least that event.
  std::ifstream in(trace);
  std::ostringstream text;
  text << in.rdbuf();
  const std::optional<Json> doc = Json::parse(text.str());
  ASSERT_TRUE(doc.has_value());
  const Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::uint64_t addr = 0;
  for (std::size_t i = 0; i < events->size() && addr == 0; ++i) {
    if (const Json* args = events->at(i).find("args"); args != nullptr) {
      if (const Json* a = args->find("addr"); a != nullptr) {
        addr = a->asUint(0);
      }
    }
  }
  ASSERT_NE(addr, 0u) << "no traced event carries an address";

  std::ostringstream hex;
  hex << "--addr=0x" << std::hex << addr;
  const SubprocessResult t =
      run(DVMC_INSPECT_BIN, {"timeline", hex.str(), trace});
  ASSERT_TRUE(t.status.clean()) << t.status.describe() << "\n"
                                << t.stderrTail;
  EXPECT_NE(t.stdoutTail.find("events on block"), std::string::npos)
      << t.stdoutTail;
  EXPECT_NE(t.stdoutTail.find("cycle "), std::string::npos)  // an event line
      << t.stdoutTail;
  fs::remove_all(dir);
}

TEST(DvmcRun, UnknownModelNameIsAUsageError) {
  const SubprocessResult r = run(DVMC_RUN_BIN, {"dir", "tos", "oltp"});
  EXPECT_EQ(r.status.reason, ExitReason::kNonZeroExit);
  EXPECT_EQ(r.status.exitCode, 2);
  EXPECT_NE(r.stderrTail.find("unknown model 'tos'"), std::string::npos)
      << r.stderrTail;
  EXPECT_EQ(r.stdoutTail.find("completed="), std::string::npos)
      << r.stdoutTail;
}

#endif  // DVMC_RUN_BIN && DVMC_INSPECT_BIN

}  // namespace
}  // namespace dvmc

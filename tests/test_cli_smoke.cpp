// End-to-end smoke tests of the `cl` command-line binary.
//
// The path of the built binary is injected by CMake as CL_CLI_PATH; each
// test execs a full subcommand and checks exit status plus the key lines
// of its report. These are the CTest guard against the CLI silently
// rotting while the library suites stay green.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>

#include "fnv1a.h"
#include "temp_path.h"
#include "util/serialize.h"

#ifndef CL_CLI_PATH
#error "CMake must define CL_CLI_PATH (path of the built cl binary)"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

RunResult run_cli(const std::string& args) {
  const std::string command = std::string(CL_CLI_PATH) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string temp_trace_path() {
  return cl::test::unique_temp_path("cl_smoke_trace.csv");
}

TEST(CliSmoke, UsageOnNoCommand) {
  const RunResult result = run_cli("");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
  EXPECT_NE(result.output.find("simulate"), std::string::npos);
}

TEST(CliSmoke, UnknownCommandFailsWithUsage) {
  const RunResult result = run_cli("frobnicate");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown command"), std::string::npos);
}

TEST(CliSmoke, ModelEvaluatesClosedForm) {
  const RunResult result = run_cli("model --capacity 50 --qb 1.0");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("closed-form evaluation at capacity c = 50"),
            std::string::npos);
  EXPECT_NE(result.output.find("Valancius"), std::string::npos);
  EXPECT_NE(result.output.find("Baliga"), std::string::npos);
  EXPECT_NE(result.output.find("offload G"), std::string::npos);
}

TEST(CliSmoke, GenerateThenSimulateEndToEnd) {
  const std::string trace = temp_trace_path();
  std::filesystem::remove(trace);

  const RunResult gen = run_cli("generate --out " + trace +
                                " --preset small --days 1 --seed 7");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  EXPECT_NE(gen.output.find("wrote"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(trace));

  const RunResult sim = run_cli("simulate --trace " + trace + " --threads 2");
  ASSERT_EQ(sim.exit_code, 0) << sim.output;
  EXPECT_NE(sim.output.find("sessions:"), std::string::npos);
  EXPECT_NE(sim.output.find("S (sim)"), std::string::npos);
  EXPECT_NE(sim.output.find("Valancius"), std::string::npos);
  EXPECT_NE(sim.output.find("Baliga"), std::string::npos);

  std::filesystem::remove(trace);
}

TEST(CliSmoke, SimulateThreadsProduceIdenticalReports) {
  const std::string trace = temp_trace_path() + ".threads";
  std::filesystem::remove(trace);
  const RunResult gen = run_cli("generate --out " + trace +
                                " --preset small --days 1 --seed 11 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;

  const RunResult one = run_cli("simulate --trace " + trace + " --threads 1");
  const RunResult four = run_cli("simulate --trace " + trace + " --threads 4");
  ASSERT_EQ(one.exit_code, 0) << one.output;
  ASSERT_EQ(four.exit_code, 0) << four.output;
  // The whole printed report must match byte for byte: the sharded
  // analysis path is bit-deterministic in the thread count.
  EXPECT_EQ(one.output, four.output);

  std::filesystem::remove(trace);
}

TEST(CliSmoke, RejectsUnknownFlagValueType) {
  const RunResult result = run_cli("model --capacity notanumber");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("argument error"), std::string::npos);
}

TEST(CliSmoke, ConvertRoundTripsByteIdentical) {
  const std::string csv = temp_trace_path() + ".convert.csv";
  const std::string bin = temp_trace_path() + ".convert.cltrace";
  const std::string csv2 = temp_trace_path() + ".convert2.csv";

  const RunResult gen = run_cli("generate --out " + csv +
                                " --preset small --days 1 --seed 5 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const RunResult to_bin = run_cli("convert --in " + csv + " --out " + bin);
  ASSERT_EQ(to_bin.exit_code, 0) << to_bin.output;
  EXPECT_NE(to_bin.output.find("converted"), std::string::npos);
  const RunResult to_csv = run_cli("convert --in " + bin + " --out " + csv2);
  ASSERT_EQ(to_csv.exit_code, 0) << to_csv.output;

  // CSV -> .cltrace -> CSV must reproduce the original file byte for byte.
  std::ifstream a(csv, std::ios::binary), b(csv2, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());

  std::filesystem::remove(csv);
  std::filesystem::remove(bin);
  std::filesystem::remove(csv2);
}

TEST(CliSmoke, SimulateBinaryTraceMatchesCsvReport) {
  const std::string csv = temp_trace_path() + ".fmt.csv";
  const std::string bin = temp_trace_path() + ".fmt.cltrace";
  const RunResult gen = run_cli("generate --out " + csv +
                                " --preset small --days 1 --seed 9 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const RunResult conv =
      run_cli("convert --in " + csv + " --out " + bin + " --quiet");
  ASSERT_EQ(conv.exit_code, 0) << conv.output;

  const RunResult from_csv = run_cli("simulate --trace " + csv);
  const RunResult from_bin = run_cli("simulate --trace " + bin + " --threads 2");
  ASSERT_EQ(from_csv.exit_code, 0) << from_csv.output;
  ASSERT_EQ(from_bin.exit_code, 0) << from_bin.output;
  // Same trace through either on-disk format: byte-identical report.
  EXPECT_EQ(from_csv.output, from_bin.output);

  std::filesystem::remove(csv);
  std::filesystem::remove(bin);
}

TEST(CliSmoke, LedgerMatchesAcrossStorageFormatsAndThreads) {
  // Without a preload schedule `cl ledger` sweeps a `.cltrace` straight
  // from its mapped columns (v1/v2 start order, v3 swarm-major), and a
  // CSV through the rows' transpose. The per-user ledger must not see
  // the difference: every golden file, its `cl convert` CSV and a
  // generated day in both formats report byte-identically at 1 and 3
  // sweep threads.
  const std::string day_csv = temp_trace_path() + ".ledgerfmt.csv";
  const RunResult gen = run_cli("generate --out " + day_csv +
                                " --preset small --days 1 --seed 5 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const std::string day_bin = temp_trace_path() + ".ledgerfmt.cltrace";
  const RunResult to_bin =
      run_cli("convert --in " + day_csv + " --out " + day_bin + " --quiet");
  ASSERT_EQ(to_bin.exit_code, 0) << to_bin.output;

  const auto ledger = [](const std::string& trace, const char* threads) {
    const RunResult result = run_cli("ledger --trace " + trace +
                                     " --intensity uk_2018 --threads " +
                                     threads);
    EXPECT_EQ(result.exit_code, 0) << trace << ": " << result.output;
    return result.output;
  };
  const std::string csv = temp_trace_path() + ".ledgerfmt.golden.csv";
  std::string golden_want;
  for (const char* version : {"v1", "v2", "v3"}) {
    const std::string golden = std::string(CL_TEST_DATA_DIR) + "/golden_" +
                               version + ".cltrace";
    const RunResult conv =
        run_cli("convert --in " + golden + " --out " + csv + " --quiet");
    ASSERT_EQ(conv.exit_code, 0) << conv.output;
    if (golden_want.empty()) golden_want = ledger(golden, "1");
    for (const char* threads : {"1", "3"}) {
      SCOPED_TRACE(std::string(version) + " threads " + threads);
      EXPECT_EQ(ledger(golden, threads), golden_want);
      EXPECT_EQ(ledger(csv, threads), golden_want);
    }
  }
  EXPECT_NE(golden_want.find("energy model"), std::string::npos);

  const std::string day_want = ledger(day_csv, "1");
  EXPECT_NE(day_want.find("carbon-free users"), std::string::npos);
  for (const char* threads : {"1", "3"}) {
    SCOPED_TRACE(std::string("generated day, threads ") + threads);
    EXPECT_EQ(ledger(day_bin, threads), day_want);
    EXPECT_EQ(ledger(day_csv, threads), day_want);
  }
  std::filesystem::remove(csv);
  std::filesystem::remove(day_csv);
  std::filesystem::remove(day_bin);
}

TEST(CliSmoke, GenerateWritesBinaryFormatDirectly) {
  const std::string bin = temp_trace_path() + ".gen.cltrace";
  const RunResult gen = run_cli("generate --out " + bin +
                                " --preset small --days 1 --seed 5 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  // Extension-driven --format auto: the output is a binary trace.
  std::ifstream in(bin, std::ios::binary);
  char magic[8] = {};
  in.read(magic, sizeof magic);
  EXPECT_EQ(std::string(magic, 7), "CLTRACE");
  const RunResult sim = run_cli("simulate --trace " + bin);
  EXPECT_EQ(sim.exit_code, 0) << sim.output;
  std::filesystem::remove(bin);
}

TEST(CliSmoke, TraceSpanPastTheLongestTraceExits2) {
  // A header span beyond kMaxTraceDays days used to die in the sweep
  // (std::bad_alloc, or a failed hour-count check) or, without
  // --intensity, print a report over a span of 1.16e7 days. Both trace
  // readers now refuse it as a parse error.
  const std::string bin = temp_trace_path() + ".span.cltrace";
  const RunResult gen = run_cli("generate --out " + bin +
                                " --preset small --days 1 --seed 5 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  std::string bytes;
  {
    std::ifstream in(bin, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 32u);
  cl::store_f64_le(reinterpret_cast<unsigned char*>(bytes.data()) + 24, 1e12);
  {
    std::ofstream out(bin, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  for (const std::string extra : {"", " --intensity uk_2018"}) {
    const RunResult sim = run_cli("simulate --trace " + bin + extra);
    EXPECT_EQ(sim.exit_code, 2) << sim.output;
    EXPECT_NE(sim.output.find("header span 1e+12 s"),
              std::string::npos)
        << sim.output;
  }
  const std::string csv = temp_trace_path() + ".span.csv";
  {
    std::ofstream out(csv);
    out << "#span=1e300\n"
        << "user,household,content,isp,exp,bitrate,start,duration\n"
        << "1,1,0,0,0,sd,100,10\n";
  }
  const RunResult sim = run_cli("simulate --trace " + csv);
  EXPECT_EQ(sim.exit_code, 2) << sim.output;
  EXPECT_NE(sim.output.find("#span="), std::string::npos) << sim.output;
  std::filesystem::remove(bin);
  std::filesystem::remove(csv);
}

TEST(CliSmoke, TiedSessionsOutOfTimeOrderExit2) {
  // Two sessions of content 1 tie at 10 s and sit at storage positions 0
  // and 1 of the converted v3 file. Swapping their time-order entries
  // keeps the start order but lists the group out of storage order:
  // every command refuses the file the same way, view and rows reader
  // alike.
  const std::string csv = temp_trace_path() + ".tie.csv";
  const std::string bin = temp_trace_path() + ".tie.cltrace";
  {
    std::ofstream out(csv);
    out << "#span=3600\n"
        << "user,household,content,isp,exp,bitrate,start,duration\n"
        << "0,0,1,0,0,sd,10,100\n1,0,1,0,0,sd,10,100\n"
        << "2,0,1,0,0,sd,30,100\n3,0,2,0,0,sd,40,100\n"
        << "4,0,1,0,0,sd,50,100\n5,0,2,0,0,sd,60,100\n";
  }
  const RunResult convert =
      run_cli("convert --in " + csv + " --out " + bin + " --quiet");
  ASSERT_EQ(convert.exit_code, 0) << convert.output;
  std::string bytes;
  {
    std::ifstream in(bin, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 40u + 13 * 24);
  auto* p = reinterpret_cast<unsigned char*>(bytes.data());
  // Block 12's directory entry (the writer lists blocks in id order);
  // its payload offset is 8 bytes in.
  unsigned char* order = p + cl::load_u64_le(p + 40 + 12 * 24 + 8);
  ASSERT_EQ(cl::load_u32_le(order), 0u);
  ASSERT_EQ(cl::load_u32_le(order + 4), 1u);
  cl::store_u32_le(order, 1);
  cl::store_u32_le(order + 4, 0);
  {
    std::ofstream out(bin, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  for (const std::string& command :
       {"simulate --trace " + bin, "ledger --trace " + bin,
        "convert --in " + bin + " --out " + csv + ".back.csv"}) {
    const RunResult result = run_cli(command);
    EXPECT_EQ(result.exit_code, 2) << command << "\n" << result.output;
    EXPECT_NE(result.output.find("corrupt .cltrace file: time order is not "
                                 "ascending within a group"),
              std::string::npos)
        << command << "\n" << result.output;
  }
  EXPECT_FALSE(std::filesystem::exists(csv + ".back.csv"));
  std::filesystem::remove(csv);
  std::filesystem::remove(bin);
}

// ------------------------------------------------------------ cl live

TEST(CliSmoke, LiveRunsFlashCrowdWithOverloadReport) {
  const RunResult result = run_cli("live --viewers 800 --threads 2");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("flash crowd (preset 'spike')"),
            std::string::npos);
  EXPECT_NE(result.output.find("overload:"), std::string::npos);
  EXPECT_NE(result.output.find("hourly trajectory"), std::string::npos);
  EXPECT_NE(result.output.find("Valancius"), std::string::npos);
}

TEST(CliSmoke, LiveThreadsProduceIdenticalReports) {
  const RunResult one = run_cli("live --viewers 800 --threads 1");
  const RunResult seven = run_cli("live --viewers 800 --threads 7");
  ASSERT_EQ(one.exit_code, 0) << one.output;
  ASSERT_EQ(seven.exit_code, 0) << seven.output;
  // Overload accounting included: the report is bit-deterministic in the
  // thread count, so the printed bytes match exactly.
  EXPECT_EQ(one.output, seven.output);
}

TEST(CliSmoke, LiveRejectsUnknownPreset) {
  const RunResult result = run_cli("live --preset avalanche");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("argument error"), std::string::npos);
  EXPECT_NE(result.output.find("ramp, spike"), std::string::npos);
}

TEST(CliSmoke, LiveRejectsOutOfRangeArguments) {
  // 4294967297 viewers used to wrap to 1, --days nan reached the preset's
  // precondition (exit 1) and --days inf died in vector::reserve.
  const std::string out = cl::test::unique_temp_path("cl_smoke_live.csv");
  const std::pair<const char*, const char*> cases[] = {
      {"--viewers 0", "--viewers must be in [1, 4294967295]"},
      {"--viewers 4294967296", "--viewers must be in [1, 4294967295]"},
      {"--viewers 4294967297", "--viewers must be in [1, 4294967295]"},
      {"--days nan", "--days must be finite and > 0"},
      {"--days inf", "--days must be finite and > 0"},
      {"--days 0", "--days must be finite and > 0"},
      {"--start nan", "--start must be >= 1800 s and inside the span"},
      {"--start inf", "--start must be >= 1800 s and inside the span"},
  };
  for (const auto& [flag, message] : cases) {
    const RunResult result =
        run_cli(std::string("live ") + flag + " --out " + out);
    EXPECT_EQ(result.exit_code, 2) << flag << ": " << result.output;
    EXPECT_NE(result.output.find(std::string("argument error: ") + message),
              std::string::npos)
        << flag << ": " << result.output;
    EXPECT_FALSE(std::filesystem::exists(out)) << flag;
  }
}

TEST(CliSmoke, DaysOutsideEachCommandsRangeIsAnArgumentError) {
  // generate used to reach the generator's precondition (exit 1) below a
  // day and an out-of-range integer cast at 1e300; live ended in a
  // postcondition of the sweep's hourly grid at 1e300. swarm cast its
  // ids to 32 bits unchecked: --content 4294967296 reported content 0's
  // swarm and --content -1 content 4294967295's.
  const std::string out = cl::test::unique_temp_path("cl_smoke_days.csv");
  const std::string swarm =
      "swarm --trace " + std::string(CL_TEST_DATA_DIR) + "/golden_v3.cltrace";
  const std::pair<std::string, const char*> cases[] = {
      {"generate --preset small --days 0.5", "--days must be finite and >= 1"},
      {"generate --preset small --days -3", "--days must be finite and >= 1"},
      {"generate --preset small --days nan", "--days must be finite and >= 1"},
      {"generate --preset paper --days 1e300", "--days must be <= 1000000"},
      {"generate --preset small --days 1000001", "--days must be <= 1000000"},
      {"live --viewers 100 --days 1e300", "--days must be <= 1000000"},
      {"simulate --days 0.5", "--days must be finite and >= 1"},
      {"ledger --days inf", "--days must be finite and >= 1"},
      {swarm + " --content 4294967296", "--content must be in [0, 4294967295]"},
      {swarm + " --content -1", "--content must be in [0, 4294967295]"},
      {swarm + " --isp 4294967296", "--isp out of range (0.."},
      {swarm + " --isp -1", "--isp out of range (0.."},
  };
  for (const auto& [command, message] : cases) {
    const RunResult result = run_cli(command + " --out " + out);
    EXPECT_EQ(result.exit_code, 2) << command << ": " << result.output;
    EXPECT_NE(result.output.find(std::string("argument error: ") + message),
              std::string::npos)
        << command << ": " << result.output;
    EXPECT_FALSE(std::filesystem::exists(out)) << command;
  }
}

TEST(CliSmoke, LiveTraceReplaysThroughSimulateWithOverloadFlag) {
  const std::string trace = temp_trace_path() + ".live.cltrace";
  std::filesystem::remove(trace);
  const RunResult live =
      run_cli("live --viewers 600 --preset ramp --out " + trace);
  ASSERT_EQ(live.exit_code, 0) << live.output;
  ASSERT_TRUE(std::filesystem::exists(trace));
  const RunResult sim =
      run_cli("simulate --trace " + trace + " --overload --threads 2");
  ASSERT_EQ(sim.exit_code, 0) << sim.output;
  EXPECT_NE(sim.output.find("overload:"), std::string::npos);
  // Without the flag the overload line must not appear (off by default).
  const RunResult plain = run_cli("simulate --trace " + trace);
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_EQ(plain.output.find("overload:"), std::string::npos);
  std::filesystem::remove(trace);
}

TEST(CliSmoke, ConvertRejectsMissingFlags) {
  const RunResult result = run_cli("convert --in /tmp/nope.csv");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("argument error"), std::string::npos);
}

// ------------------------------------------------------------ --metro flag

TEST(CliSmoke, HelpListsMetroPresets) {
  const RunResult result = run_cli("--help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("--metro"), std::string::npos);
  EXPECT_NE(result.output.find("london_top5"), std::string::npos);
  EXPECT_NE(result.output.find("us_sparse"), std::string::npos);
  EXPECT_NE(result.output.find("fiber_dense"), std::string::npos);
}

TEST(CliSmoke, GenerateRejectsUsersOutsideUint32) {
  // -1 used to wrap to 4294967295 users (bad_alloc), 4294967297 to 1 user,
  // and 0 reached the generator's precondition.
  const std::string out = cl::test::unique_temp_path("cl_smoke_users.csv");
  for (const char* users : {"-1", "0", "4294967296", "4294967297"}) {
    const RunResult result = run_cli("generate --out " + out +
                                     " --preset small --days 1 --users " +
                                     users + " --quiet");
    EXPECT_EQ(result.exit_code, 2) << users << ": " << result.output;
    EXPECT_NE(result.output.find("argument error: --users must be in "
                                 "[1, 4294967295]"),
              std::string::npos)
        << users << ": " << result.output;
    EXPECT_FALSE(std::filesystem::exists(out)) << users;
  }
}

TEST(CliSmoke, GenerateRejectsUnknownMetroListingValidNames) {
  const std::string trace = cl::test::unique_temp_path("cl_smoke_nometro.csv");
  std::filesystem::remove(trace);
  const RunResult result = run_cli("generate --out " + trace +
                                   " --metro narnia --preset small --days 1");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown metro 'narnia'"), std::string::npos);
  EXPECT_NE(result.output.find("london_top5"), std::string::npos);
  EXPECT_NE(result.output.find("us_sparse"), std::string::npos);
  EXPECT_NE(result.output.find("fiber_dense"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(trace));
}

TEST(CliSmoke, SimulateRejectsUnknownMetro) {
  const std::string trace = temp_trace_path() + ".badmetroflag";
  const RunResult gen = run_cli("generate --out " + trace +
                                " --preset small --days 1 --seed 3 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const RunResult sim =
      run_cli("simulate --trace " + trace + " --metro atlantis");
  EXPECT_EQ(sim.exit_code, 2);
  EXPECT_NE(sim.output.find("unknown metro 'atlantis'"), std::string::npos);
  EXPECT_NE(sim.output.find("us_sparse"), std::string::npos);
  std::filesystem::remove(trace);
}

TEST(CliSmoke, GenerateStampsMetroIntoCsvHeader) {
  const std::string trace = temp_trace_path() + ".metrohdr";
  const RunResult gen =
      run_cli("generate --out " + trace +
              " --preset small --days 1 --seed 3 --metro us_sparse --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  std::ifstream in(trace);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1.rfind("#span=", 0), 0u);
  EXPECT_EQ(line2, "#metro=us_sparse");
  std::filesystem::remove(trace);
}

TEST(CliSmoke, SimulateFollowsTraceMetroHeader) {
  const std::string trace = temp_trace_path() + ".metrofollow";
  const RunResult gen =
      run_cli("generate --out " + trace +
              " --preset small --days 1 --seed 5 --metro us_sparse --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  // No --metro flag: simulate must pick the topology recorded in the
  // trace header, and say so in the report.
  const RunResult sim = run_cli("simulate --trace " + trace);
  ASSERT_EQ(sim.exit_code, 0) << sim.output;
  EXPECT_NE(sim.output.find("metro us_sparse"), std::string::npos);
  std::filesystem::remove(trace);
}

TEST(CliSmoke, SimulateRejectsTraceFromUnknownMetro) {
  // A trace stamped with a metro this build does not know must be a hard
  // error (analyzing against the wrong tree would be silently wrong) —
  // unless an explicit --metro overrides it.
  const std::string trace = temp_trace_path() + ".unknownmetro";
  {
    std::ofstream out(trace);
    out << "#span=86400\n#metro=atlantis\n"
        << "user,household,content,isp,exp,bitrate,start,duration\n"
        << "1,1,0,0,0,sd,100,10\n"
        << "2,1,0,0,0,sd,150,10\n";
  }
  const RunResult sim = run_cli("simulate --trace " + trace);
  EXPECT_EQ(sim.exit_code, 1);
  EXPECT_NE(sim.output.find("atlantis"), std::string::npos);
  const RunResult forced =
      run_cli("simulate --trace " + trace + " --metro london_top5");
  EXPECT_EQ(forced.exit_code, 0) << forced.output;
  EXPECT_NE(forced.output.find("warning"), std::string::npos);
  std::filesystem::remove(trace);
}

TEST(CliSmoke, GenerateMetroThreadsBitIdentical) {
  // CLI-level determinism: --metro us_sparse traces are byte-identical
  // across --threads (the 1/2/7/hw sweep is pinned at the library level
  // in test_trace_binary.cpp).
  const std::string one = temp_trace_path() + ".us1.cltrace";
  const std::string two = temp_trace_path() + ".us2.cltrace";
  const RunResult gen1 =
      run_cli("generate --out " + one +
              " --preset small --days 1 --metro us_sparse --threads 1 --quiet");
  const RunResult gen2 =
      run_cli("generate --out " + two +
              " --preset small --days 1 --metro us_sparse --threads 2 --quiet");
  ASSERT_EQ(gen1.exit_code, 0) << gen1.output;
  ASSERT_EQ(gen2.exit_code, 0) << gen2.output;
  std::ifstream a(one, std::ios::binary), b(two, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  std::filesystem::remove(one);
  std::filesystem::remove(two);
}

TEST(CliSmoke, ConvertPreservesMetroThroughBinary) {
  const std::string csv = temp_trace_path() + ".metro.csv";
  const std::string bin = temp_trace_path() + ".metro.cltrace";
  const std::string csv2 = temp_trace_path() + ".metro2.csv";
  const RunResult gen =
      run_cli("generate --out " + csv +
              " --preset small --days 1 --metro fiber_dense --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  ASSERT_EQ(run_cli("convert --in " + csv + " --out " + bin).exit_code, 0);
  ASSERT_EQ(run_cli("convert --in " + bin + " --out " + csv2).exit_code, 0);
  std::ifstream a(csv, std::ios::binary), b(csv2, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());  // #metro= line survives the round trip
  std::filesystem::remove(csv);
  std::filesystem::remove(bin);
  std::filesystem::remove(csv2);
}

TEST(CliSmoke, PlanReportsMetro) {
  const RunResult result = run_cli("plan --target 0.2 --metro us_sparse");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("metro us_sparse"), std::string::npos);
}

// -------------------------------------------------------- --intensity flag

/// True when every line of `needle` appears in `haystack` in order (the
/// carbon sections only *add* lines, never change existing ones).
bool lines_are_ordered_subsequence(const std::string& needle,
                                   const std::string& haystack) {
  std::istringstream n(needle), h(haystack);
  std::string want, have;
  while (std::getline(n, want)) {
    bool found = false;
    while (std::getline(h, have)) {
      if (have == want) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

TEST(CliSmoke, HelpListsIntensityPresets) {
  const RunResult result = run_cli("--help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("--intensity"), std::string::npos);
  for (const char* preset :
       {"flat", "uk_2018", "us_caiso", "nordic_hydro"}) {
    EXPECT_NE(result.output.find(preset), std::string::npos) << preset;
  }
}

TEST(CliSmoke, LedgerRejectsUnknownIntensityListingValidNames) {
  const RunResult result = run_cli("ledger --days 1 --intensity vacuum");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown intensity preset 'vacuum'"),
            std::string::npos);
  EXPECT_NE(result.output.find("uk_2018"), std::string::npos);
  EXPECT_NE(result.output.find("flat"), std::string::npos);
}

TEST(CliSmoke, LedgerFlatIntensityReproducesUnweightedNumbers) {
  // The backward-compatibility pin: --intensity flat must only *add*
  // carbon output — every line of the unweighted ledger report survives
  // byte for byte.
  const std::string trace = temp_trace_path() + ".intensity";
  const RunResult gen = run_cli("generate --out " + trace +
                                " --preset small --days 1 --seed 13 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const RunResult without = run_cli("ledger --trace " + trace);
  const RunResult with =
      run_cli("ledger --trace " + trace + " --intensity flat");
  ASSERT_EQ(without.exit_code, 0) << without.output;
  ASSERT_EQ(with.exit_code, 0) << with.output;
  EXPECT_TRUE(lines_are_ordered_subsequence(without.output, with.output))
      << "without:\n" << without.output << "\nwith:\n" << with.output;
  EXPECT_NE(with.output.find("weighted system CCT"), std::string::npos);
  EXPECT_NE(with.output.find("kgCO2"), std::string::npos);
  std::filesystem::remove(trace);
}

TEST(CliSmoke, LedgerTimingAddsPhaseLinesOnly) {
  // `cl ledger --timing` prints the simulate --timing block (its merge
  // line counts the per-user settle) and leaves every ledger line as it
  // was, at one and at several sweep threads.
  const std::string trace = temp_trace_path() + ".ledgertiming";
  const RunResult gen = run_cli("generate --out " + trace +
                                " --preset small --days 1 --seed 13 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  for (const char* threads : {" --threads 1", " --threads 3"}) {
    SCOPED_TRACE(threads);
    const RunResult without = run_cli("ledger --trace " + trace + threads);
    const RunResult with =
        run_cli("ledger --trace " + trace + threads + " --timing");
    ASSERT_EQ(without.exit_code, 0) << without.output;
    ASSERT_EQ(with.exit_code, 0) << with.output;
    EXPECT_EQ(with.output.find("was ignored"), std::string::npos)
        << with.output;
    for (const char* line : {"timing: load ", "timing: group ",
                             "timing: sweep ", "timing:   stretches  count ",
                             "timing: merge "}) {
      EXPECT_NE(with.output.find(line), std::string::npos) << line;
    }
    EXPECT_EQ(without.output.find("timing:"), std::string::npos);
    EXPECT_TRUE(lines_are_ordered_subsequence(without.output, with.output))
        << "without:\n" << without.output << "\nwith:\n" << with.output;
  }
  std::filesystem::remove(trace);
}

TEST(CliSmoke, SimulateFlatIntensityAppendsCarbonSection) {
  const std::string trace = temp_trace_path() + ".simintensity";
  const RunResult gen = run_cli("generate --out " + trace +
                                " --preset small --days 1 --seed 13 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const RunResult without = run_cli("simulate --trace " + trace);
  const RunResult with =
      run_cli("simulate --trace " + trace + " --intensity flat");
  ASSERT_EQ(without.exit_code, 0) << without.output;
  ASSERT_EQ(with.exit_code, 0) << with.output;
  // The carbon table is appended: the unweighted report is a strict
  // byte prefix.
  ASSERT_GE(with.output.size(), without.output.size());
  EXPECT_EQ(with.output.substr(0, without.output.size()), without.output);
  EXPECT_NE(with.output.find("carbon savings"), std::string::npos);
  std::filesystem::remove(trace);
}

TEST(CliSmoke, ModelIntensityMetroKeywordFollowsMetroPairing) {
  const RunResult result =
      run_cli("model --capacity 50 --metro us_sparse --intensity metro");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  // us_sparse pairs with the CAISO duck curve.
  EXPECT_NE(result.output.find("us_caiso"), std::string::npos);
  EXPECT_NE(result.output.find("gCO2/GB"), std::string::npos);
}

// --------------------------------------------------------- --schedule flag

TEST(CliSmoke, SimulateScheduleFlatIsNoOp) {
  // The flat no-op contract at the CLI level: --schedule all under
  // --intensity flat must only *append* the schedule section — every
  // number above it stays byte-identical, the scheduler reports itself
  // inert, and the reduction column is exactly 0.
  const std::string trace = temp_trace_path() + ".schedflat";
  const RunResult gen = run_cli("generate --out " + trace +
                                " --preset small --days 1 --seed 13 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const RunResult without =
      run_cli("simulate --trace " + trace + " --intensity flat");
  const RunResult with = run_cli("simulate --trace " + trace +
                                 " --intensity flat --schedule all");
  ASSERT_EQ(without.exit_code, 0) << without.output;
  ASSERT_EQ(with.exit_code, 0) << with.output;
  ASSERT_GE(with.output.size(), without.output.size());
  EXPECT_EQ(with.output.substr(0, without.output.size()), without.output);
  EXPECT_NE(with.output.find("scheduler inert"), std::string::npos);
  EXPECT_NE(with.output.find("0.0%"), std::string::npos);
  std::filesystem::remove(trace);
}

TEST(CliSmoke, SimulateScheduleAddsScheduleSection) {
  const std::string trace = temp_trace_path() + ".scheduk";
  const RunResult gen = run_cli("generate --out " + trace +
                                " --preset small --days 1 --seed 13 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const RunResult result = run_cli("simulate --trace " + trace +
                                   " --intensity uk_2018 --schedule all");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("schedule under intensity uk_2018"),
            std::string::npos);
  EXPECT_NE(result.output.find("trough window"), std::string::npos);
  EXPECT_NE(result.output.find("routing:"), std::string::npos);
  EXPECT_NE(result.output.find("reduction"), std::string::npos);
  std::filesystem::remove(trace);
}

TEST(CliSmoke, ScheduleRequiresIntensity) {
  const RunResult result = run_cli("simulate --days 1 --schedule all");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("argument error"), std::string::npos);
  EXPECT_NE(result.output.find("--intensity"), std::string::npos);
}

TEST(CliSmoke, ScheduleRejectsUnknownMode) {
  const RunResult result =
      run_cli("simulate --days 1 --intensity flat --schedule sideways");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown schedule mode 'sideways'"),
            std::string::npos);
}

TEST(CliSmoke, LedgerScheduleFlatOnlyAppends) {
  const std::string trace = temp_trace_path() + ".ledsched";
  const RunResult gen = run_cli("generate --out " + trace +
                                " --preset small --days 1 --seed 13 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const RunResult without =
      run_cli("ledger --trace " + trace + " --intensity flat");
  const RunResult with = run_cli("ledger --trace " + trace +
                                 " --intensity flat --schedule preload");
  ASSERT_EQ(without.exit_code, 0) << without.output;
  ASSERT_EQ(with.exit_code, 0) << with.output;
  EXPECT_TRUE(lines_are_ordered_subsequence(without.output, with.output))
      << "without:\n" << without.output << "\nwith:\n" << with.output;
  EXPECT_NE(with.output.find("scheduler inert"), std::string::npos);
  std::filesystem::remove(trace);
}

TEST(CliSmoke, SimulateAndLedgerReportsPinned) {
  // The whole merged stdout+stderr of the simulate/ledger pipeline —
  // report, carbon weighting and schedule section — pinned by digest at
  // two thread counts, so a refactor of how the commands compose the
  // simulator, reports and scheduler cannot move a single byte.
  struct Pin {
    const char* command;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"simulate --days 1 --seed 7 --intensity uk_2018 --overload "
       "--schedule all",
       0xc46c729dc365c266ULL},
      {"simulate --days 1 --seed 7 --metro us_sparse --intensity metro "
       "--schedule route",
       0xef2213949bff77f0ULL},
      {"simulate --days 1 --seed 7 --intensity uk_2018",
       0x95ffa7c044845525ULL},
      {"ledger --days 1 --seed 7 --intensity uk_2018 --schedule preload",
       0xdc66e252161c64c9ULL},
      {"ledger --days 1 --seed 7 --metro us_sparse --intensity us_caiso "
       "--schedule all",
       0x73d520f0dae28613ULL},
      // No preload schedule: the ledger sweeps the loaded view directly.
      {"ledger --days 1 --seed 7 --intensity uk_2018",
       0xf114c1bcb3b93bbbULL},
  };
  for (const Pin& pin : pins) {
    for (const char* threads : {" --threads 1", " --threads 3"}) {
      const std::string command = std::string(pin.command) + threads;
      SCOPED_TRACE(command);
      const RunResult result = run_cli(command);
      ASSERT_EQ(result.exit_code, 0) << result.output;
      EXPECT_EQ(cl::test::fnv1a(result.output), pin.digest) << result.output;
    }
  }
}

TEST(CliSmoke, IntensityAcceptsCsvFilePath) {
  // A 24-row ElectricityMap-style export is accepted anywhere a preset
  // name is, and the curve takes the file's stem as its name.
  const std::string csv = cl::test::unique_temp_path("my_grid.csv");
  {
    std::ofstream out(csv);
    out << "hour,gCO2_per_kwh\n";
    for (int h = 0; h < 24; ++h) out << h << "," << (100 + 10 * h) << "\n";
  }
  const std::string trace = temp_trace_path() + ".csvcurve";
  const RunResult gen = run_cli("generate --out " + trace +
                                " --preset small --days 1 --seed 13 --quiet");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const RunResult result =
      run_cli("simulate --trace " + trace + " --intensity " + csv);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("carbon under intensity my_grid"),
            std::string::npos);
  std::filesystem::remove(csv);
  std::filesystem::remove(trace);
}

TEST(CliSmoke, ExperimentDryRunListsMatrix) {
  const RunResult result = run_cli(
      "experiment " + std::string(CL_TEST_DATA_DIR) +
      "/golden_spec.json --dry-run");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("experiment 'golden_spec': 1 cell"),
            std::string::npos);
  EXPECT_NE(result.output.find("[0] base"), std::string::npos);
}

TEST(CliSmoke, ExperimentMissingSpecPathExits2WithUsage) {
  const RunResult result = run_cli("experiment");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("missing spec path"), std::string::npos);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(CliSmoke, ExperimentMissingSpecFileExits2) {
  const RunResult result = run_cli("experiment /nonexistent/spec.json");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("cannot read JSON file"), std::string::npos);
}

TEST(CliSmoke, ExperimentUnknownFlagErrors) {
  const RunResult result = run_cli(
      "experiment " + std::string(CL_TEST_DATA_DIR) +
      "/golden_spec.json --dry-run --bogus 1");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown flag --bogus"), std::string::npos);
}

TEST(CliSmoke, ExperimentWritesManifestAndCellFilesToOutDir) {
  namespace fs = std::filesystem;
  const fs::path dir = cl::test::unique_temp_path("cl_smoke_experiment");
  fs::remove_all(dir);
  const fs::path spec = cl::test::unique_temp_path("cl_smoke_spec.json");
  {
    std::ofstream out(spec);
    out << R"({"name": "smoketest", "base": {"simulate": "off"},
               "axes": {"adoption": [50]}})";
  }
  const RunResult result = run_cli("experiment " + spec.string() +
                                   " --out-dir " + dir.string());
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_TRUE(fs::exists(dir / "BENCH_smoketest.json"));
  EXPECT_TRUE(fs::exists(dir / "BENCH_smoketest_adoption-50.json"));
  std::ifstream manifest(dir / "BENCH_smoketest.json");
  std::stringstream contents;
  contents << manifest.rdbuf();
  EXPECT_NE(contents.str().find("\"bench\": \"smoketest\""),
            std::string::npos);
  EXPECT_NE(contents.str().find("BENCH_smoketest_adoption-50.json"),
            std::string::npos);
  fs::remove_all(dir);
  fs::remove(spec);
}

TEST(CliSmoke, IntensityUnknownNameStillListsPresets) {
  // The CSV branch must not swallow the unknown-preset error for names
  // that are not files.
  const RunResult result =
      run_cli("simulate --days 1 --intensity not_a_file_or_preset");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find(
                "unknown intensity preset 'not_a_file_or_preset'"),
            std::string::npos);
  EXPECT_NE(result.output.find("uk_2018"), std::string::npos);
  EXPECT_NE(result.output.find("CSV"), std::string::npos);
}

}  // namespace

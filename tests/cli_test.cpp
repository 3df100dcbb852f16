//===- cli_test.cpp - Command-line regression tests ----------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Every cache geometry a user can type ends in a diagnostic, never an
// abort: each case below used to trip an assertion in the live cache's
// constructor or a divide by zero in the sweep, and must now exit 1 with
// an "error:" line. Flags the tools no longer accept must likewise be
// refused, never silently ignored. The binaries under test are the
// urcmc and urcm_report built alongside this test (URCMC_PATH,
// URCM_REPORT_PATH).
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/Cache.h"

#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <sys/wait.h>

using namespace urcm;

namespace {

struct Outcome {
  int ExitCode = -1; ///< -1 when the process did not exit normally.
  std::string Output; ///< stdout and stderr, interleaved.
};

Outcome runTool(const char *Binary, const std::string &Args) {
  Outcome Out;
  const std::string Command = std::string(Binary) + " " + Args + " 2>&1";
  std::FILE *Pipe = ::popen(Command.c_str(), "r");
  if (!Pipe)
    return Out;
  char Buffer[4096];
  for (size_t N; (N = std::fread(Buffer, 1, sizeof(Buffer), Pipe)) != 0;)
    Out.Output.append(Buffer, N);
  const int Status = ::pclose(Pipe);
  if (Status != -1 && WIFEXITED(Status))
    Out.ExitCode = WEXITSTATUS(Status);
  return Out;
}

Outcome runUrcmc(const std::string &Args) { return runTool(URCMC_PATH, Args); }

void expectConfigError(const std::string &Args, const char *Why) {
  SCOPED_TRACE(Args);
  const Outcome R = runUrcmc("--workload=Sieve " + Args);
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("error: invalid cache configuration: "),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find(Why), std::string::npos) << R.Output;
}

} // namespace

TEST(UrcmcCacheFlags, AssociativityThatDoesNotDivideTheLines) {
  expectConfigError("--assoc=3", "associativity must divide");
}

TEST(UrcmcCacheFlags, LineCountAboveUint32) {
  expectConfigError("--cache-lines=99999999999",
                    "--cache-lines 99999999999 is above 4294967295");
}

TEST(UrcmcCacheFlags, TreePLRUAboveSixtyFourWays) {
  expectConfigError("--assoc=128 --policy=plru",
                    "TreePLRU needs a power-of-two associativity");
}

TEST(UrcmcCacheFlags, OneLineCacheWithTheDefaultTwoWays) {
  expectConfigError("--cache-lines=1 --line-words=1024",
                    "associativity must divide");
}

TEST(UrcmcCacheFlags, SweepSizeAboveUint32) {
  expectConfigError("--sweep=4294967296",
                    "--sweep size 4294967296 is above 4294967295");
}

TEST(UrcmcCacheFlags, ValidGeometryStillRuns) {
  const Outcome R = runUrcmc("--workload=Sieve --assoc=4 --sweep=16,64");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output.find("error:"), std::string::npos) << R.Output;
}

// Flags that earlier versions accepted and these tools no longer do:
// each must end in an unknown-flag error and a nonzero exit, never be
// ignored silently.
TEST(RemovedFlags, UrcmcRefusesThem) {
  for (const char *Flag : {"--no-fuse", "--shards=2"}) {
    SCOPED_TRACE(Flag);
    const Outcome R = runUrcmc(std::string("--workload=Sieve ") + Flag);
    EXPECT_NE(R.ExitCode, 0) << R.Output;
    EXPECT_NE(R.Output.find("error: unknown or invalid flag '" +
                            std::string(Flag) + "'"),
              std::string::npos)
        << R.Output;
  }
}

TEST(RemovedFlags, UrcmReportRefusesThem) {
  for (const char *Flag : {"--no-fuse", "--shards=2"}) {
    SCOPED_TRACE(Flag);
    const Outcome R = runTool(URCM_REPORT_PATH, Flag);
    EXPECT_NE(R.ExitCode, 0) << R.Output;
    EXPECT_NE(
        R.Output.find("error: unknown flag '" + std::string(Flag) + "'"),
        std::string::npos)
        << R.Output;
  }
}

TEST(CacheConfigValidation, AcceptsEveryShapeTheSimulatorBuilds) {
  CacheConfig C; // 128 lines, 2-way, one-word lines.
  for (CachePolicy P :
       {CachePolicy::LRU, CachePolicy::FIFO, CachePolicy::Random,
        CachePolicy::MIN, CachePolicy::TreePLRU, CachePolicy::SRRIP,
        CachePolicy::LivenessBypass})
    EXPECT_EQ(validateCacheConfig(C, P), nullptr) << cachePolicyName(P);
  C.Assoc = C.NumLines = 64; // Fully associative TreePLRU at the limit.
  EXPECT_EQ(validateCacheConfig(C, CachePolicy::TreePLRU), nullptr);
  C.NumLines = C.Assoc = 1u << 24; // Largest capacity, one-word lines.
  EXPECT_EQ(validateCacheConfig(C, CachePolicy::LRU), nullptr);
  C.NumLines = C.Assoc = 4096;
  C.LineWords = MaxCacheLineWords;
  EXPECT_EQ(validateCacheConfig(C, CachePolicy::LRU), nullptr);
}

TEST(CacheConfigValidation, RejectsEveryShapeTheConstructorsAssertOn) {
  auto Bad = [](uint32_t Lines, uint32_t Assoc, uint32_t Words,
                CachePolicy P) {
    CacheConfig C;
    C.NumLines = Lines;
    C.Assoc = Assoc;
    C.LineWords = Words;
    return validateCacheConfig(C, P) != nullptr;
  };
  EXPECT_TRUE(Bad(0, 1, 1, CachePolicy::LRU));
  EXPECT_TRUE(Bad(128, 0, 1, CachePolicy::LRU));
  EXPECT_TRUE(Bad(128, 3, 1, CachePolicy::LRU));
  EXPECT_TRUE(Bad(1, 2, 1024, CachePolicy::LRU));
  EXPECT_TRUE(Bad(128, 2, 0, CachePolicy::LRU));
  EXPECT_TRUE(Bad(128, 2, MaxCacheLineWords + 1, CachePolicy::LRU));
  EXPECT_TRUE(Bad(UINT32_MAX, UINT32_MAX, 1, CachePolicy::LRU));
  EXPECT_TRUE(Bad(1u << 16, 2, 1u << 9, CachePolicy::LRU));
  EXPECT_TRUE(Bad(128, 128, 1, CachePolicy::TreePLRU));
  EXPECT_TRUE(Bad(96, 48, 1, CachePolicy::TreePLRU));
  EXPECT_FALSE(Bad(96, 48, 1, CachePolicy::LRU));
}

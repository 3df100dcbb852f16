//===- cli_test.cpp - Command-line regression tests ----------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Every cache geometry a user can type ends in a diagnostic, never an
// abort: each case below used to trip an assertion in the live cache's
// constructor or a divide by zero in the sweep, and must now exit 1 with
// an "error:" line. A runaway program ends at urcmc's step budget within
// seconds, and a budget that is not a positive 64-bit count is an
// "error:" line too. Flags the tools no longer accept must likewise be
// refused, never silently ignored. The binaries under test are the
// urcmc and urcm_report built alongside this test (URCMC_PATH,
// URCM_REPORT_PATH).
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/Cache.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

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

/// A file under the test temp directory, removed when it goes out of
/// scope; the name carries the pid so concurrent suites do not collide.
struct TempFile {
  std::string Path;
  TempFile(const std::string &Name, const std::string &Contents)
      : Path(::testing::TempDir() + std::to_string(::getpid()) + "_" + Name) {
    std::ofstream(Path, std::ios::binary) << Contents;
  }
  ~TempFile() { std::remove(Path.c_str()); }
};

const char *EndlessLoop = "void main() {\n"
                          "  int i;\n"
                          "  i = 0;\n"
                          "  while (1) { i = i + 1; }\n"
                          "}\n";

void expectStepLimit(const Outcome &R, const std::string &Budget) {
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("runtime error: step limit exceeded\n"
                          "note: the step budget is " +
                          Budget + ";"),
            std::string::npos)
      << R.Output;
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

// Without --max-steps, an endless loop ends at urcmc's default budget
// (500M steps, about 4 s optimized), not the library's 2e9.
TEST(UrcmcStepBudget, EndlessLoopEndsAtTheDefaultBudget) {
  const TempFile Loop("endless.mc", EndlessLoop);
  expectStepLimit(runUrcmc(Loop.Path), "500000000");
}

TEST(UrcmcStepBudget, FlagBoundsEveryRunKind) {
  const TempFile Loop("endless.mc", EndlessLoop);
  expectStepLimit(runUrcmc(Loop.Path + " --max-steps=100000"), "100000");
  expectStepLimit(runUrcmc(Loop.Path + " --max-steps=100000 --sweep=16,64"),
                  "100000");
  expectStepLimit(runUrcmc(Loop.Path + " --max-steps=100000 --icache"),
                  "100000");
  const Outcome Compare = runUrcmc(Loop.Path + " --max-steps=100000 --compare");
  EXPECT_EQ(Compare.ExitCode, 1) << Compare.Output;
  EXPECT_NE(Compare.Output.find("step limit exceeded"), std::string::npos)
      << Compare.Output;

  // Textual IR runs on the IR interpreter, under the same budget.
  const Outcome Dump = runUrcmc(Loop.Path + " --dump-ir");
  ASSERT_EQ(Dump.ExitCode, 0) << Dump.Output;
  const TempFile IR("endless.ir", Dump.Output);
  expectStepLimit(runUrcmc(IR.Path + " --max-steps=100000"), "100000");

  // A budget below a workload's steps truncates it; one above does not.
  expectStepLimit(runUrcmc("--workload=Sieve --max-steps=1000"), "1000");
  const Outcome Sieve = runUrcmc("--workload=Sieve --max-steps=100000000");
  EXPECT_EQ(Sieve.ExitCode, 0) << Sieve.Output;
}

TEST(UrcmcStepBudget, UnusableBudgetsAreDiagnostics) {
  const std::pair<const char *, const char *> Cases[] = {
      {"--max-steps=0", "the budget must be at least 1 step"},
      {"--max-steps=", "'' is not a step count"},
      {"--max-steps=lots", "'lots' is not a step count"},
      {"--max-steps=-5", "'-5' is not a step count"},
      {"--max-steps=1e9", "'1e9' is not a step count"},
      {"--max-steps=99999999999999999999999",
       "99999999999999999999999 does not fit in 64 bits"},
  };
  for (const auto &[Flag, Why] : Cases) {
    SCOPED_TRACE(Flag);
    const Outcome R = runUrcmc(std::string("--workload=Sieve ") + Flag);
    EXPECT_EQ(R.ExitCode, 1) << R.Output;
    EXPECT_NE(R.Output.find(std::string("error: invalid --max-steps: ") + Why),
              std::string::npos)
        << R.Output;
  }
}

//===- cli_test.cpp - urcmc command-line regression tests ----------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Every cache geometry a user can type ends in a diagnostic, never an
// abort: each case below used to trip an assertion in the DataCache
// constructor or a divide by zero in the sweep, and must now exit 1 with
// an "error:" line. The binary under test is the urcmc built alongside
// this test (URCMC_PATH).
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

Outcome runUrcmc(const std::string &Args) {
  Outcome Out;
  const std::string Command = std::string(URCMC_PATH) + " " + Args + " 2>&1";
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

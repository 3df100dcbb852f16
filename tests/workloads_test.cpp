//===- workloads_test.cpp - Paper benchmark correctness tests ------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Every workload is validated against an independent C++ reference
// implementation of the same computation, then cross-checked across
// compilation schemes.
//
//===----------------------------------------------------------------------===//

#include "urcm/workloads/Workloads.h"

#include "urcm/driver/Driver.h"
#include "urcm/sim/TraceStore.h"

#include <algorithm>
#include <cinttypes>
#include <fstream>
#include <gtest/gtest.h>

using namespace urcm;

namespace {

SimResult runWorkload(const std::string &Name,
                      const CompileOptions &Options = {}) {
  const Workload *W = findWorkload(Name);
  EXPECT_NE(W, nullptr);
  DiagnosticEngine Diags;
  SimConfig Sim;
  SimResult R = compileAndRun(W->Source, Options, Sim, Diags);
  EXPECT_TRUE(R.ok()) << Name << ": " << R.Error;
  EXPECT_EQ(R.CoherenceViolations, 0u) << Name;
  return R;
}

/// C++ reference for Bubble: same LCG, same sort, same checksum.
std::vector<int64_t> bubbleReference() {
  const int N = 500;
  std::vector<int64_t> A(N);
  int64_t Seed = 12345;
  for (int I = 0; I != N; ++I) {
    Seed = (Seed * 1103515245 + 12345) % 2147483648LL;
    if (Seed < 0)
      Seed = -Seed;
    A[I] = Seed % 10000;
  }
  std::sort(A.begin(), A.end());
  int64_t Sum = 0;
  for (int I = 0; I != N; ++I)
    Sum += A[I] * (I + 1);
  return {1, A.front(), A.back(), Sum};
}

/// C++ reference for Intmm.
std::vector<int64_t> intmmReference() {
  const int N = 40;
  std::vector<int64_t> MA(N * N), MB(N * N), MC(N * N);
  for (int I = 0; I != N; ++I)
    for (int J = 0; J != N; ++J) {
      MA[I * N + J] = (I + 2 * J) % 100 - 50;
      MB[I * N + J] = (3 * I + J) % 100 - 50;
    }
  for (int I = 0; I != N; ++I)
    for (int J = 0; J != N; ++J) {
      int64_t Sum = 0;
      for (int K = 0; K != N; ++K)
        Sum += MA[I * N + K] * MB[K * N + J];
      MC[I * N + J] = Sum;
    }
  int64_t Total = 0;
  for (int64_t V : MC)
    Total += V;
  return {MC[0], MC[N * N - 1], Total};
}

/// C++ reference for Sieve.
std::vector<int64_t> sieveReference() {
  const int Limit = 8190;
  std::vector<bool> Flags(Limit + 1, true);
  Flags[0] = Flags[1] = false;
  for (int I = 2; I * I <= Limit; ++I)
    if (Flags[I])
      for (int K = I * I; K <= Limit; K += I)
        Flags[K] = false;
  int64_t Count = 0, Largest = 0;
  for (int I = 0; I <= Limit; ++I)
    if (Flags[I]) {
      ++Count;
      Largest = I;
    }
  return {Count, Largest};
}

} // namespace

TEST(Workloads, SixBenchmarksRegistered) {
  const auto &All = paperWorkloads();
  ASSERT_EQ(All.size(), 6u);
  EXPECT_EQ(All[0].Name, "Bubble");
  EXPECT_EQ(All[5].Name, "Towers");
  EXPECT_EQ(findWorkload("nope"), nullptr);
}

TEST(Workloads, BubbleMatchesReference) {
  SimResult R = runWorkload("Bubble");
  EXPECT_EQ(R.Output, bubbleReference());
}

TEST(Workloads, IntmmMatchesReference) {
  SimResult R = runWorkload("Intmm");
  EXPECT_EQ(R.Output, intmmReference());
}

TEST(Workloads, PuzzleSolvesWithClassicTrialCount) {
  SimResult R = runWorkload("Puzzle");
  ASSERT_EQ(R.Output.size(), 2u);
  EXPECT_EQ(R.Output[0], 1) << "puzzle must be solvable";
  // 2005 trial() activations is the classic Stanford result for this
  // piece set.
  EXPECT_EQ(R.Output[1], 2005);
}

TEST(Workloads, QueenFindsAll92Solutions) {
  SimResult R = runWorkload("Queen");
  EXPECT_EQ(R.Output, (std::vector<int64_t>{92}));
}

TEST(Workloads, SieveMatchesReference) {
  SimResult R = runWorkload("Sieve");
  EXPECT_EQ(R.Output, sieveReference());
}

TEST(Workloads, TowersMovesAllDisks) {
  SimResult R = runWorkload("Towers");
  EXPECT_EQ(R.Output, (std::vector<int64_t>{262143, 18, 0}));
}

TEST(Workloads, DeclaredExpectationsHold) {
  for (const Workload &W : paperWorkloads()) {
    if (W.ExpectedOutput.empty())
      continue;
    SimResult R = runWorkload(W.Name);
    ASSERT_GE(R.Output.size(), W.ExpectedOutput.size()) << W.Name;
    for (size_t I = 0; I != W.ExpectedOutput.size(); ++I)
      EXPECT_EQ(R.Output[I], W.ExpectedOutput[I]) << W.Name;
  }
}

TEST(Workloads, OutputsInvariantAcrossSchemes) {
  for (const Workload &W : paperWorkloads()) {
    std::vector<int64_t> Baseline;
    for (auto Scheme :
         {UnifiedOptions::conventional(), UnifiedOptions::bypassOnly(),
          UnifiedOptions::deadTagOnly(), UnifiedOptions::unified(),
          UnifiedOptions::reuseAware()}) {
      CompileOptions Options;
      Options.Scheme = Scheme;
      SimResult R = runWorkload(W.Name, Options);
      if (Baseline.empty())
        Baseline = R.Output;
      else
        EXPECT_EQ(R.Output, Baseline) << W.Name;
    }
  }
}

TEST(Workloads, OutputsInvariantAcrossCompilers) {
  // Era-mode code and aggressively allocated code compute the same
  // results, under both allocation policies.
  for (const Workload &W : paperWorkloads()) {
    std::vector<int64_t> Baseline;
    for (bool Era : {false, true}) {
      for (auto Policy :
           {RegAllocPolicy::ChaitinBriggs, RegAllocPolicy::UsageCount}) {
        CompileOptions Options;
        Options.IRGen.ScalarLocalsInMemory = Era;
        Options.RegAlloc.Policy = Policy;
        SimResult R = runWorkload(W.Name, Options);
        if (Baseline.empty())
          Baseline = R.Output;
        else
          EXPECT_EQ(R.Output, Baseline) << W.Name << " era=" << Era;
      }
    }
  }
}

TEST(Workloads, OutputsInvariantUnderRegisterPressure) {
  for (const Workload &W : paperWorkloads()) {
    std::vector<int64_t> Baseline;
    for (uint32_t Colors : {8u, 16u, 32u}) {
      CompileOptions Options;
      Options.RegAlloc.NumColors = Colors;
      SimResult R = runWorkload(W.Name, Options);
      if (Baseline.empty())
        Baseline = R.Output;
      else
        EXPECT_EQ(R.Output, Baseline) << W.Name << " colors=" << Colors;
    }
  }
}

TEST(Workloads, CompiledProgramsMatchGolden) {
  // The compile fixed point: every workload under the Figure-5 unified
  // and conventional schemes, the complete-unified system and the
  // default options, pinned by content hash (traceContentHash at the
  // default, paper geometry) and instruction count. Any change to an
  // analysis, pass or code generator that moves one instruction or hint
  // bit shows here. On a mismatch the computed lines are written to
  // compiled_programs.txt.actual in the working directory.
  CompileOptions Era;
  Era.IRGen.ScalarLocalsInMemory = true;
  CompileOptions Fig5Unified = Era;
  Fig5Unified.Scheme = UnifiedOptions::unified();
  CompileOptions Fig5Conventional = Era;
  Fig5Conventional.Scheme = UnifiedOptions::conventional();
  CompileOptions Complete;
  Complete.PromoteLoopScalars = true;
  Complete.Scheme = UnifiedOptions::reuseAware();
  const std::pair<const char *, CompileOptions> Configs[] = {
      {"fig5-unified", Fig5Unified},
      {"fig5-conventional", Fig5Conventional},
      {"complete-unified", Complete},
      {"default", CompileOptions()}};

  std::vector<const Workload *> All;
  for (const Workload &W : paperWorkloads())
    All.push_back(&W);
  for (const Workload &W : extendedWorkloads())
    All.push_back(&W);

  std::vector<std::string> Lines;
  for (const Workload *W : All)
    for (const auto &[Name, Options] : Configs) {
      DiagnosticEngine Diags;
      CompileResult R = compileProgram(W->Source, Options, Diags);
      ASSERT_TRUE(R.Ok) << W->Name << " " << Name << ": " << Diags.str();
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf), "%s %s %016" PRIx64 " %zu",
                    W->Name.c_str(), Name,
                    traceContentHash(R.Program, SimConfig()),
                    R.Program.Code.size());
      Lines.push_back(Buf);
    }

  std::vector<std::string> Expected;
  std::ifstream Golden(URCM_GOLDEN_DIR "/compiled_programs.txt");
  ASSERT_TRUE(Golden) << "missing " URCM_GOLDEN_DIR "/compiled_programs.txt";
  for (std::string Line; std::getline(Golden, Line);)
    Expected.push_back(Line);
  if (Lines == Expected)
    return;
  std::ofstream Out("compiled_programs.txt.actual");
  for (const std::string &Line : Lines)
    Out << Line << "\n";
  ADD_FAILURE() << "compiled programs drifted from the golden file; "
                << "computed lines written to compiled_programs.txt.actual";
  for (size_t I = 0; I != std::min(Lines.size(), Expected.size()); ++I)
    EXPECT_EQ(Lines[I], Expected[I]);
  EXPECT_EQ(Lines.size(), Expected.size());
}

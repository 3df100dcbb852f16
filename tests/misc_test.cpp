//===- misc_test.cpp - Printer, latency-model and metadata tests ---------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/driver/Driver.h"
#include "urcm/sim/Cache.h"
#include "urcm/workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace urcm;

TEST(LatencyModel, CountsHitAndBusCycles) {
  CacheStats S;
  S.Reads = 100;
  S.Writes = 50;
  S.ReadHits = 90;
  S.WriteHits = 50;
  S.FillWords = 10;
  S.WriteBackWords = 5;
  S.BypassReads = 3;
  S.BypassWrites = 2;
  LatencyModel Model; // hit=1, memory=10.
  EXPECT_EQ(memoryAccessCycles(S, Model),
            150u /*refs*/ + (10 + 5 + 3 + 2) * 10u);
  Model.MemoryCycles = 1;
  Model.CacheHitCycles = 2;
  EXPECT_EQ(memoryAccessCycles(S, Model), 300u + 20u);
}

TEST(CacheStats, StrMentionsKeyCounters) {
  CacheStats S;
  S.Reads = 7;
  S.Fills = 2;
  std::string Text = S.str();
  EXPECT_NE(Text.find("refs=7"), std::string::npos);
  EXPECT_NE(Text.find("fills=2"), std::string::npos);
}

TEST(PolicyNames, AllNamed) {
  EXPECT_STREQ(cachePolicyName(CachePolicy::LRU), "LRU");
  EXPECT_STREQ(cachePolicyName(CachePolicy::FIFO), "FIFO");
  EXPECT_STREQ(cachePolicyName(CachePolicy::Random),
               "Random");
  EXPECT_STREQ(writePolicyName(WritePolicy::WriteBack), "write-back");
  EXPECT_STREQ(writePolicyName(WritePolicy::WriteThrough),
               "write-through");
}

TEST(Operand, EqualityCoversKinds) {
  EXPECT_EQ(Operand::reg(3), Operand::reg(3));
  EXPECT_FALSE(Operand::reg(3) == Operand::reg(4));
  EXPECT_FALSE(Operand::reg(3) == Operand::reg(3, 1));
  EXPECT_EQ(Operand::imm(-5), Operand::imm(-5));
  EXPECT_FALSE(Operand::imm(1) == Operand::reg(1));
  EXPECT_EQ(Operand::global(2, 7), Operand::global(2, 7));
  EXPECT_FALSE(Operand::global(2, 7) == Operand::global(2, 8));
  EXPECT_FALSE(Operand::global(2) == Operand::frame(2));
  EXPECT_EQ(Operand::block(1), Operand::block(1));
  EXPECT_EQ(Operand(), Operand());
}

TEST(MachineMetadata, FunctionTableConsistent) {
  DiagnosticEngine Diags;
  CompileResult R = compileProgram(
      "int helper(int v) { return v + 1; }\n"
      "void main() { print(helper(1)); }\n",
      CompileOptions(), Diags);
  ASSERT_TRUE(R.Ok);
  const MachineProgram &P = R.Program;
  ASSERT_EQ(P.Functions.size(), 2u);
  for (const MachineFunction &F : P.Functions) {
    EXPECT_LE(F.EntryIndex + F.CodeSize, P.Code.size());
    EXPECT_GT(F.CodeSize, 0u);
    // Every function body ends with a machine ret.
    EXPECT_EQ(P.Code[F.EntryIndex + F.CodeSize - 1].Op, MOpcode::Ret);
  }
  // Bodies do not overlap.
  EXPECT_LE(P.Functions[0].EntryIndex + P.Functions[0].CodeSize,
            P.Functions[1].EntryIndex);
}

TEST(CompileResult, StatsPopulated) {
  // Bubble's loops are call-free, so promotion must fire (Queen's only
  // loop recurses and is correctly skipped).
  const Workload *W = findWorkload("Bubble");
  CompileOptions Options;
  Options.IRGen.ScalarLocalsInMemory = true;
  Options.PromoteLoopScalars = true;
  Options.RunCleanup = true;
  DiagnosticEngine Diags;
  CompileResult R = compileProgram(W->Source, Options, Diags);
  ASSERT_TRUE(R.Ok);
  EXPECT_GT(R.Promotion.PromotedLocations, 0u);
  EXPECT_GT(R.RegAlloc.NumWebs, 0u);
  EXPECT_GT(R.Static.totalRefs(), 0u);
  EXPECT_GT(R.Program.Code.size(), 0u);
  EXPECT_FALSE(R.Static.str().empty());
}

TEST(MachineProgram, GlobalBaseRespectsOptions) {
  CompileOptions Options;
  Options.GlobalBase = 0x2000;
  Options.StackTop = 0x40000;
  DiagnosticEngine Diags;
  CompileResult R = compileProgram(
      "int g; void main() { g = 1; print(g); }", Options, Diags);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Program.Globals[0].Address, 0x2000u);
  EXPECT_EQ(R.Program.StackTop, 0x40000u);
  // The program still runs at the custom layout.
  Simulator S{SimConfig()};
  SimResult Run = S.run(R.Program);
  ASSERT_TRUE(Run.ok()) << Run.Error;
  EXPECT_EQ(Run.Output, (std::vector<int64_t>{1}));
}

TEST(SchemeComparison, PercentHelpersDefinedOnZero) {
  SchemeComparison C;
  EXPECT_DOUBLE_EQ(C.cacheTrafficReductionPercent(), 0.0);
  EXPECT_DOUBLE_EQ(C.busTrafficReductionPercent(), 0.0);
}

TEST(DynamicRefStats, FractionHelpers) {
  DynamicRefStats S;
  EXPECT_DOUBLE_EQ(S.unambiguousFraction(), 0.0);
  S.Unambiguous = 3;
  S.Ambiguous = 1;
  S.Spill = 1;
  EXPECT_DOUBLE_EQ(S.unambiguousFraction(), 0.8);
  EXPECT_EQ(S.total(), 5u);
}

TEST(Driver, CompileErrorSurfacesDiagnostics) {
  DiagnosticEngine Diags;
  CompileResult R =
      compileProgram("void main() { undeclared = 1; }", {}, Diags);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(Diags.hasErrors());

  SimConfig Sim;
  DiagnosticEngine D2;
  SimResult Run = compileAndRun("not a program at all", {}, Sim, D2);
  EXPECT_FALSE(Run.ok());
  EXPECT_NE(Run.Error.find("compilation failed"), std::string::npos);
}

TEST(Driver, CompareSchemesRejectsBadSource) {
  CacheConfig Cache;
  SchemeComparison C = compareSchemes("int main(", {}, Cache);
  EXPECT_FALSE(C.ok());
  EXPECT_FALSE(C.Error.empty());
}

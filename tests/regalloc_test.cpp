//===- regalloc_test.cpp - Register allocation tests ---------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/regalloc/RegAlloc.h"

#include "urcm/ir/Verifier.h"
#include "urcm/irgen/IRGen.h"
#include "urcm/pass/AnalysisManager.h"
#include "urcm/workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace urcm;

namespace {

/// Compiles and allocates; returns the module (kept alive by the fixture
/// caller) plus stats.
struct Allocated {
  CompiledModule Module;
  RegAllocStats Stats;

  Allocated(const std::string &Source, const RegAllocOptions &Options) {
    DiagnosticEngine Diags;
    Module = compileToIR(Source, Diags);
    EXPECT_TRUE(static_cast<bool>(Module)) << Diags.str();
    if (Module) {
      AnalysisManager AM(*Module.IR);
      Stats = allocateRegisters(*Module.IR, Options, AM);
      DiagnosticEngine VerifyDiags;
      EXPECT_TRUE(verifyModule(*Module.IR, VerifyDiags))
          << VerifyDiags.str();
    }
  }
};

/// Checks that every register mentioned in the module is below Limit.
void expectRegsBelow(const IRModule &M, uint32_t Limit) {
  for (const auto &F : M.functions()) {
    for (const auto &B : F->blocks()) {
      for (const Instruction &I : B->insts()) {
        if (I.Dst != NoReg)
          EXPECT_LT(I.Dst, Limit);
        for (const Operand &O : I.Ops)
          if (O.isReg())
            EXPECT_LT(O.getReg(), Limit);
      }
    }
    for (uint32_t P = 0; P != F->numParams(); ++P)
      EXPECT_LT(F->paramReg(P), Limit);
  }
}

const char *StraightLine = R"mc(
void main() {
  int a = 1;
  int b = 2;
  int c;
  c = a + b;
  print(c);
}
)mc";

/// Many simultaneously live values: forces spilling with a small bank.
const char *HighPressure = R"mc(
int out;
void main() {
  int v0 = 1; int v1 = 2; int v2 = 3; int v3 = 4; int v4 = 5;
  int v5 = 6; int v6 = 7; int v7 = 8; int v8 = 9; int v9 = 10;
  int va = 11; int vb = 12; int vc = 13; int vd = 14; int ve = 15;
  int vf = 16; int vg = 17; int vh = 18; int vi = 19; int vj = 20;
  out = v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9
      + va + vb + vc + vd + ve + vf + vg + vh + vi + vj;
  out = out + v0 * v9 + v1 * v8 + v2 * v7 + v3 * v6 + v4 * v5
      + va * vj + vb * vi + vc * vh + vd * vg + ve * vf;
  print(out);
}
)mc";

} // namespace

TEST(RegAlloc, StraightLineColorsWithoutSpills) {
  RegAllocOptions Options;
  Allocated A(StraightLine, Options);
  EXPECT_EQ(A.Stats.NumSpilledWebs, 0u);
  EXPECT_GT(A.Stats.NumWebs, 0u);
  expectRegsBelow(*A.Module.IR, Options.NumColors);
}

TEST(RegAlloc, HighPressureSpillsWithSmallBank) {
  RegAllocOptions Options;
  Options.NumColors = 8;
  Allocated A(HighPressure, Options);
  EXPECT_GT(A.Stats.NumSpilledWebs, 0u);
  EXPECT_GT(A.Stats.NumSpillSlots, 0u);
  expectRegsBelow(*A.Module.IR, 8);
}

TEST(RegAlloc, HighPressureNoSpillsWithLargeBank) {
  RegAllocOptions Options;
  Options.NumColors = 48;
  Allocated A(HighPressure, Options);
  EXPECT_EQ(A.Stats.NumSpilledWebs, 0u);
}

TEST(RegAlloc, SpillCodeAnnotated) {
  RegAllocOptions Options;
  Options.NumColors = 8;
  Allocated A(HighPressure, Options);
  unsigned SpillStores = 0, SpillReloads = 0;
  for (const auto &F : A.Module.IR->functions())
    for (const auto &B : F->blocks())
      for (const Instruction &I : B->insts()) {
        if (I.isStore() && I.MemInfo.Class == RefClass::Spill)
          ++SpillStores;
        if (I.isLoad() && I.MemInfo.Class == RefClass::SpillReload)
          ++SpillReloads;
      }
  EXPECT_GT(SpillStores, 0u);
  EXPECT_GT(SpillReloads, 0u);
}

TEST(RegAlloc, UsageCountPolicyAlsoConverges) {
  RegAllocOptions Options;
  Options.NumColors = 8;
  Options.Policy = RegAllocPolicy::UsageCount;
  Allocated A(HighPressure, Options);
  expectRegsBelow(*A.Module.IR, 8);
}

TEST(RegAlloc, WorkloadsAllocateAtVariousBankSizes) {
  for (uint32_t Colors : {8u, 12u, 24u}) {
    for (const Workload &W : paperWorkloads()) {
      DiagnosticEngine Diags;
      CompiledModule Module = compileToIR(W.Source, Diags);
      ASSERT_TRUE(static_cast<bool>(Module)) << W.Name;
      RegAllocOptions Options;
      Options.NumColors = Colors;
      AnalysisManager AM(*Module.IR);
      RegAllocStats Stats = allocateRegisters(*Module.IR, Options, AM);
      EXPECT_GT(Stats.NumWebs, 0u) << W.Name;
      expectRegsBelow(*Module.IR, Colors);
      DiagnosticEngine VerifyDiags;
      EXPECT_TRUE(verifyModule(*Module.IR, VerifyDiags))
          << W.Name << " colors=" << Colors << ": " << VerifyDiags.str();
    }
  }
}

TEST(RegAlloc, IdentityMovesCoalesced) {
  RegAllocOptions Options;
  Allocated A(StraightLine, Options);
  for (const auto &F : A.Module.IR->functions())
    for (const auto &B : F->blocks())
      for (const Instruction &I : B->insts())
        if (I.Op == Opcode::Mov && I.Ops[0].isReg() &&
            I.Ops[0].getOffset() == 0)
          EXPECT_NE(I.Ops[0].getReg(), I.Dst);
}

TEST(RegAlloc, BothPoliciesPreserveWebCount) {
  // Web discovery happens before policy divergence: both should report
  // webs for the same program.
  DiagnosticEngine D1, D2;
  CompiledModule M1 = compileToIR(HighPressure, D1);
  CompiledModule M2 = compileToIR(HighPressure, D2);
  RegAllocOptions O1, O2;
  O1.Policy = RegAllocPolicy::ChaitinBriggs;
  O2.Policy = RegAllocPolicy::UsageCount;
  AnalysisManager AM1(*M1.IR), AM2(*M2.IR);
  RegAllocStats S1 = allocateRegisters(*M1.IR, O1, AM1);
  RegAllocStats S2 = allocateRegisters(*M2.IR, O2, AM2);
  EXPECT_GT(S1.NumWebs, 0u);
  EXPECT_GT(S2.NumWebs, 0u);
}

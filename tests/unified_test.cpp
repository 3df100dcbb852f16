//===- unified_test.cpp - Unified management pass tests ------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/core/UnifiedManagement.h"

#include "urcm/irgen/IRGen.h"
#include "urcm/pass/AnalysisManager.h"
#include "urcm/regalloc/RegAlloc.h"

#include <memory>

#include <gtest/gtest.h>

using namespace urcm;

namespace {

/// A lowered, register-allocated module and its analysis cache.
struct Prepared {
  CompiledModule Module;
  std::unique_ptr<AnalysisManager> AM;

  Prepared(const std::string &Source, bool EraMode = false) {
    DiagnosticEngine Diags;
    IRGenOptions Options;
    Options.ScalarLocalsInMemory = EraMode;
    Module = compileToIR(Source, Diags, Options);
    EXPECT_TRUE(static_cast<bool>(Module)) << Diags.str();
    if (!Module)
      return;
    AM = std::make_unique<AnalysisManager>(*Module.IR);
    allocateRegisters(*Module.IR, RegAllocOptions(), *AM);
  }

  ClassificationStats apply(const UnifiedOptions &Scheme) {
    return applyUnifiedManagement(*Module.IR, Scheme, *AM);
  }
};

/// Collects every memory instruction in the module.
std::vector<const Instruction *> memRefs(const IRModule &M) {
  std::vector<const Instruction *> Refs;
  for (const auto &F : M.functions())
    for (const auto &B : F->blocks())
      for (const Instruction &I : B->insts())
        if (I.isMemAccess())
          Refs.push_back(&I);
  return Refs;
}

const char *MixedProgram = R"mc(
int g;
int a[8];
void main() {
  int i;
  g = 0;
  for (i = 0; i < 8; i = i + 1) {
    a[i] = i;
    g = g + a[i];
  }
  print(g);
}
)mc";

} // namespace

TEST(Unified, ClassifiesEveryReference) {
  Prepared P(MixedProgram);
  P.apply(UnifiedOptions::unified());
  for (const Instruction *I : memRefs(*P.Module.IR))
    EXPECT_NE(I->MemInfo.Class, RefClass::Unknown);
}

TEST(Unified, StaticStatsAddUp) {
  Prepared P(MixedProgram);
  ClassificationStats S = P.apply(UnifiedOptions::unified());
  EXPECT_EQ(S.totalRefs(), memRefs(*P.Module.IR).size());
  EXPECT_GT(S.UnambiguousRefs, 0u);
  EXPECT_GT(S.AmbiguousRefs, 0u);
  EXPECT_FALSE(S.str().empty());
}

TEST(Unified, ConventionalSchemeEmitsNoHints) {
  Prepared P(MixedProgram);
  ClassificationStats S = P.apply(UnifiedOptions::conventional());
  EXPECT_EQ(S.BypassRefs, 0u);
  EXPECT_EQ(S.LastRefTags, 0u);
  for (const Instruction *I : memRefs(*P.Module.IR)) {
    EXPECT_FALSE(I->MemInfo.Bypass);
    EXPECT_FALSE(I->MemInfo.LastRef);
  }
}

TEST(Unified, BypassOnlyUnambiguous) {
  Prepared P(MixedProgram);
  P.apply(UnifiedOptions::unified());
  for (const Instruction *I : memRefs(*P.Module.IR)) {
    if (I->MemInfo.Bypass)
      EXPECT_EQ(I->MemInfo.Class, RefClass::Unambiguous);
    if (I->MemInfo.Class == RefClass::Ambiguous)
      EXPECT_FALSE(I->MemInfo.Bypass);
  }
}

TEST(Unified, SpillTrafficNeverBypasses) {
  // Spills go *to cache* (paper section 4.2 rule [2]).
  const char *HighPressure = R"mc(
int out;
void main() {
  int v0 = 1; int v1 = 2; int v2 = 3; int v3 = 4; int v4 = 5;
  int v5 = 6; int v6 = 7; int v7 = 8; int v8 = 9; int v9 = 10;
  int va = 11; int vb = 12; int vc = 13; int vd = 14;
  out = v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9 + va + vb + vc
      + vd;
  out = out + v0 * v9 + v1 * v8 + va * vd + vb * vc;
  print(out);
}
)mc";
  DiagnosticEngine Diags;
  CompiledModule Module = compileToIR(HighPressure, Diags);
  ASSERT_TRUE(static_cast<bool>(Module));
  RegAllocOptions RA;
  RA.NumColors = 8;
  AnalysisManager AM(*Module.IR);
  allocateRegisters(*Module.IR, RA, AM);
  ClassificationStats S =
      applyUnifiedManagement(*Module.IR, UnifiedOptions::unified(), AM);
  EXPECT_GT(S.SpillRefs, 0u);
  for (const Instruction *I : memRefs(*Module.IR))
    if (I->MemInfo.Class == RefClass::Spill ||
        I->MemInfo.Class == RefClass::SpillReload)
      EXPECT_FALSE(I->MemInfo.Bypass);
}

TEST(Unified, DeadTagOnlySetsNoBypass) {
  Prepared P(MixedProgram, /*EraMode=*/true);
  ClassificationStats S = P.apply(UnifiedOptions::deadTagOnly());
  EXPECT_EQ(S.BypassRefs, 0u);
  EXPECT_GT(S.LastRefTags + S.DeadStoreTags, 0u);
}

TEST(Unified, EraModeRaisesUnambiguousShare) {
  Prepared Allocating(MixedProgram, /*EraMode=*/false);
  Prepared Era(MixedProgram, /*EraMode=*/true);
  ClassificationStats SAlloc = Allocating.apply(UnifiedOptions::unified());
  ClassificationStats SEra = Era.apply(UnifiedOptions::unified());
  EXPECT_GT(SEra.unambiguousFraction(), SAlloc.unambiguousFraction());
  // The paper's static measurement: 70-80% unambiguous in era code.
  EXPECT_GT(SEra.unambiguousFraction(), 0.5);
}

TEST(Unified, ReuseAwareKeepsHotLocationsCached) {
  const char *HotGlobal = R"mc(
int counter;
void tick() { counter = counter + 1; }
void main() {
  int i;
  counter = 0;
  for (i = 0; i < 1000; i = i + 1) { tick(); }
  print(counter);
}
)mc";
  Prepared P(HotGlobal);
  P.apply(UnifiedOptions::reuseAware());
  const IRFunction *Tick = P.Module.IR->findFunction("tick");
  ASSERT_NE(Tick, nullptr);
  for (const auto &B : Tick->blocks())
    for (const Instruction &I : B->insts())
      if (I.isMemAccess())
        EXPECT_FALSE(I.MemInfo.Bypass)
            << "hot counter must stay cache-managed under ReuseAware";

  // The blind policy bypasses it.
  Prepared P2(HotGlobal);
  P2.apply(UnifiedOptions::unified());
  const IRFunction *Tick2 = P2.Module.IR->findFunction("tick");
  bool AnyBypass = false;
  for (const auto &B : Tick2->blocks())
    for (const Instruction &I : B->insts())
      if (I.isMemAccess())
        AnyBypass |= I.MemInfo.Bypass;
  EXPECT_TRUE(AnyBypass);
}

TEST(Unified, IdempotentReapplication) {
  // Re-running the pass with the same options must not change anything.
  Prepared P(MixedProgram);
  ClassificationStats First = P.apply(UnifiedOptions::unified());
  ClassificationStats Second = P.apply(UnifiedOptions::unified());
  EXPECT_EQ(First.UnambiguousRefs, Second.UnambiguousRefs);
  EXPECT_EQ(First.AmbiguousRefs, Second.AmbiguousRefs);
  EXPECT_EQ(First.BypassRefs, Second.BypassRefs);
  EXPECT_EQ(First.LastRefTags, Second.LastRefTags);
}

TEST(Unified, SchemeSwitchOverwritesHints) {
  Prepared P(MixedProgram);
  P.apply(UnifiedOptions::unified());
  P.apply(UnifiedOptions::conventional());
  for (const Instruction *I : memRefs(*P.Module.IR)) {
    EXPECT_FALSE(I->MemInfo.Bypass);
    EXPECT_FALSE(I->MemInfo.LastRef);
  }
}

//===- valuenumbering_test.cpp - Local value numbering tests -------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/transforms/ValueNumbering.h"

#include "urcm/driver/Driver.h"
#include "urcm/ir/Interpreter.h"
#include "urcm/ir/Verifier.h"
#include "urcm/pass/Analyses.h"
#include "urcm/workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace urcm;

namespace {

struct Numbered {
  CompiledModule Module;
  ValueNumberingStats Stats;

  explicit Numbered(const std::string &Source) {
    DiagnosticEngine Diags;
    Module = compileToIR(Source, Diags);
    EXPECT_TRUE(static_cast<bool>(Module)) << Diags.str();
    if (Module) {
      for (const auto &F : Module.IR->functions()) {
        AnalysisManager AM(*Module.IR);
        ValueNumberingStats S =
            numberValues(*Module.IR, *F, AM.get<AliasAnalysisInfo>(*F));
        Stats.RedundantComputations += S.RedundantComputations;
        Stats.ForwardedLoads += S.ForwardedLoads;
      }
      DiagnosticEngine VerifyDiags;
      EXPECT_TRUE(verifyModule(*Module.IR, VerifyDiags))
          << VerifyDiags.str() << printIR(*Module.IR);
    }
  }
};

unsigned countLoads(const IRFunction &F) {
  unsigned N = 0;
  for (const auto &B : F.blocks())
    for (const Instruction &I : B->insts())
      if (I.isLoad())
        ++N;
  return N;
}

} // namespace

TEST(ValueNumbering, ReusesRepeatedComputation) {
  // a*b computed twice in one block.
  Numbered N("void main() {\n"
             "  int a = 6;\n"
             "  int b = 7;\n"
             "  int x;\n"
             "  int y;\n"
             "  x = a * b + 1;\n"
             "  y = a * b + 2;\n"
             "  print(x + y);\n"
             "}\n");
  EXPECT_GE(N.Stats.RedundantComputations, 1u);
  InterpResult R = interpretModule(*N.Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{87}));
}

TEST(ValueNumbering, CommutativityRecognized) {
  Numbered N("void main() {\n"
             "  int a = 3;\n"
             "  int b = 4;\n"
             "  print(a + b + (b + a));\n"
             "}\n");
  EXPECT_GE(N.Stats.RedundantComputations, 1u);
  InterpResult R = interpretModule(*N.Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{14}));
}

TEST(ValueNumbering, ForwardsRepeatedLoad) {
  // a[2] loaded twice with no intervening store.
  Numbered N("int a[8];\n"
             "void main() {\n"
             "  a[2] = 9;\n"
             "  print(a[2] + a[2]);\n"
             "}\n");
  EXPECT_GE(N.Stats.ForwardedLoads, 1u);
  InterpResult R = interpretModule(*N.Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{18}));
}

TEST(ValueNumbering, StoreToLoadForwarding) {
  Numbered N("int g;\n"
             "void main() {\n"
             "  g = 41;\n"
             "  print(g + 1);\n"
             "}\n");
  EXPECT_GE(N.Stats.ForwardedLoads, 1u);
  const IRFunction *Main = N.Module.IR->findFunction("main");
  EXPECT_EQ(countLoads(*Main), 0u) << printIR(*N.Module.IR);
  InterpResult R = interpretModule(*N.Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{42}));
}

TEST(ValueNumbering, SometimesAliasBlocksForwarding) {
  // The paper's Figure-2 hazard: the store to a[i] may alias a[j], so
  // the second load of a[j] must NOT be forwarded across it.
  Numbered N("int a[8];\n"
             "int f(int i, int j) {\n"
             "  int first;\n"
             "  int second;\n"
             "  first = a[j];\n"
             "  a[i] = 100;\n"
             "  second = a[j];\n"
             "  return first + second;\n"
             "}\n"
             "void main() {\n"
             "  a[3] = 1;\n"
             "  print(f(3, 3));\n"
             "}\n");
  InterpResult R = interpretModule(*N.Module.IR);
  ASSERT_TRUE(R.ok());
  // first = 1, store rewrites a[3], second = 100.
  EXPECT_EQ(R.Output, (std::vector<int64_t>{101}));
}

TEST(ValueNumbering, DistinctObjectsDoNotBlockForwarding) {
  // A store to a different array cannot alias; the load forwards.
  Numbered N("int a[8];\n"
             "int b[8];\n"
             "void main() {\n"
             "  int x;\n"
             "  a[1] = 5;\n"
             "  x = a[1];\n"
             "  b[1] = 9;\n"
             "  print(x + a[1]);\n"
             "}\n");
  EXPECT_GE(N.Stats.ForwardedLoads, 2u) << printIR(*N.Module.IR);
  InterpResult R = interpretModule(*N.Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{10}));
}

TEST(ValueNumbering, CallsInvalidateMemory) {
  Numbered N("int g;\n"
             "void bump() { g = g + 1; }\n"
             "void main() {\n"
             "  int x;\n"
             "  g = 1;\n"
             "  x = g;\n"
             "  bump();\n"
             "  print(x + g);\n"
             "}\n");
  InterpResult R = interpretModule(*N.Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{3}));
}

TEST(ValueNumbering, PointerStoreInvalidatesReachableObjects) {
  Numbered N("int a[4];\n"
             "void main() {\n"
             "  int *p;\n"
             "  int x;\n"
             "  a[0] = 1;\n"
             "  x = a[0];\n"
             "  p = &a[0];\n"
             "  *p = 2;\n"
             "  print(x + a[0]);\n"
             "}\n");
  InterpResult R = interpretModule(*N.Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{3}));
}

TEST(ValueNumbering, RegisterRedefinitionInvalidatesValue) {
  // The forwarded value's register is overwritten between the load and
  // the reuse point; forwarding the new value would be wrong.
  Numbered N("int a[4];\n"
             "void main() {\n"
             "  int t;\n"
             "  a[1] = 7;\n"
             "  t = a[1];\n"
             "  t = 0;\n"
             "  print(a[1] + t);\n"
             "}\n");
  InterpResult R = interpretModule(*N.Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{7}));
}

TEST(ValueNumbering, WorkloadsPreserveOutput) {
  for (const Workload &W : paperWorkloads()) {
    DiagnosticEngine Diags;
    CompiledModule Reference = compileToIR(W.Source, Diags);
    ASSERT_TRUE(static_cast<bool>(Reference)) << W.Name;
    InterpResult Want = interpretModule(*Reference.IR);
    ASSERT_TRUE(Want.ok()) << W.Name;

    Numbered N(W.Source);
    InterpResult Got = interpretModule(*N.Module.IR);
    ASSERT_TRUE(Got.ok()) << W.Name << ": " << Got.Error;
    EXPECT_EQ(Got.Output, Want.Output) << W.Name;
  }
}

TEST(ValueNumbering, BubbleAddressArithmeticDeduplicated) {
  // Bubble's swap block computes &a[j] twice (once for the load, once
  // for the store): the address adds must be value-numbered away. The
  // compare-to-swap load reuse spans blocks, which block-local
  // numbering intentionally leaves alone.
  const Workload *W = findWorkload("Bubble");
  Numbered N(W->Source);
  EXPECT_GT(N.Stats.RedundantComputations, 0u);
}

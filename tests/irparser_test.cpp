//===- irparser_test.cpp - Textual IR parser + round-trip tests ----------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/ir/IRParser.h"

#include "urcm/support/RNG.h"

#include "urcm/driver/Driver.h"
#include "urcm/ir/Interpreter.h"
#include "urcm/ir/Verifier.h"
#include "urcm/workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace urcm;

namespace {

std::unique_ptr<IRModule> parseOk(const std::string &Text) {
  DiagnosticEngine Diags;
  auto M = parseIR(Text, Diags);
  EXPECT_NE(M, nullptr) << Diags.str();
  return M;
}

} // namespace

TEST(IRParser, HandWrittenModule) {
  auto M = parseOk("global @g : 1 words\n"
                   "func main(params=0, regs=2, returns=void)\n"
                   ".entry:\n"
                   "  r0 = mov 41\n"
                   "  r1 = add r0, 1\n"
                   "  store r1, @g\n"
                   "  r1 = load @g\n"
                   "  print r1\n"
                   "  ret\n");
  DiagnosticEngine Diags;
  ASSERT_TRUE(verifyModule(*M, Diags)) << Diags.str();
  InterpResult R = interpretModule(*M);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{42}));
}

TEST(IRParser, ControlFlowAndCalls) {
  auto M = parseOk(
      "func double(params=1, regs=2, returns=int)\n"
      ".entry:\n"
      "  r1 = mul r0, 2\n"
      "  ret r1\n"
      "func main(params=0, regs=3, returns=void)\n"
      ".entry:\n"
      "  r0 = mov 5\n"
      "  r1 = cmpgt r0, 3\n"
      "  condbr r1, .big0, .small1\n"
      ".big0:\n"
      "  r2 = call double, r0\n"
      "  print r2\n"
      "  ret\n"
      ".small1:\n"
      "  print r0\n"
      "  ret\n");
  DiagnosticEngine Diags;
  ASSERT_TRUE(verifyModule(*M, Diags)) << Diags.str();
  InterpResult R = interpretModule(*M);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{10}));
}

TEST(IRParser, FrameSlotsAndHints) {
  auto M = parseOk("func main(params=0, regs=2, returns=void)\n"
                   "  frame %x : 1 words\n"
                   "  frame %spill.0 : 1 words (spill)\n"
                   ".entry:\n"
                   "  r0 = mov 7\n"
                   "  store r0, %x !um !bypass\n"
                   "  r1 = load %x !um !bypass !lastref\n"
                   "  store r1, %spill.0 !spill\n"
                   "  r1 = load %spill.0 !reload !lastref\n"
                   "  print r1\n"
                   "  ret\n");
  const IRFunction *Main = M->findFunction("main");
  ASSERT_EQ(Main->frameSlots().size(), 2u);
  EXPECT_EQ(Main->frameSlots()[1].Kind, FrameSlotKind::Spill);
  const auto &Insts = Main->entry()->insts();
  EXPECT_EQ(Insts[1].MemInfo.Class, RefClass::Unambiguous);
  EXPECT_TRUE(Insts[1].MemInfo.Bypass);
  EXPECT_FALSE(Insts[1].MemInfo.LastRef);
  EXPECT_TRUE(Insts[2].MemInfo.LastRef);
  EXPECT_EQ(Insts[3].MemInfo.Class, RefClass::Spill);
  EXPECT_EQ(Insts[4].MemInfo.Class, RefClass::SpillReload);
  InterpResult R = interpretModule(*M);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{7}));
}

TEST(IRParser, ErrorsReported) {
  DiagnosticEngine Diags;
  EXPECT_EQ(parseIR("func f(params=0, regs=1, returns=void)\n"
                    ".entry:\n"
                    "  r0 = frobnicate 1\n",
                    Diags),
            nullptr);
  EXPECT_TRUE(Diags.hasErrors());

  DiagnosticEngine D2;
  EXPECT_EQ(parseIR("func f(params=0, regs=1, returns=void)\n"
                    ".entry:\n"
                    "  r0 = load @missing\n",
                    D2),
            nullptr);
  EXPECT_TRUE(D2.hasErrors());

  DiagnosticEngine D3;
  EXPECT_EQ(parseIR("  r0 = mov 1\n", D3), nullptr);
  EXPECT_TRUE(D3.hasErrors());
}

TEST(IRParser, OutOfRangeNumbersAreDiagnosed) {
  // Numerals the IR types cannot hold must end in a line-numbered
  // diagnostic: never an uncaught exception, never a silent wrap.
  const struct {
    const char *Line;
    const char *Message;
  } Cases[] = {
      {"  r0 = add r99999999999999999999, 1",
       "register number 'r99999999999999999999' out of range"},
      {"  r0 = add r4294967296, 1",
       "register number 'r4294967296' out of range"},
      {"  r4294967296 = mov 1", "register number 'r4294967296' out of range"},
      {"  r99999999999999999999 = mov 1",
       "register number 'r99999999999999999999' out of range"},
      {"  r0 = mov 99999999999999999999",
       "integer '99999999999999999999' out of range"},
      {"  r0 = mov -99999999999999999999",
       "integer '-99999999999999999999' out of range"},
      {"  r0 = load [r99999999999999999999+0]",
       "integer '99999999999999999999' out of range"},
      {"  r0 = load [r4294967295+0]",
       "register number 'r4294967295' out of range"},
  };
  for (const auto &Case : Cases) {
    DiagnosticEngine Diags;
    EXPECT_EQ(parseIR(std::string("func f(params=0, regs=1, returns=void)\n"
                                  ".entry:\n") +
                          Case.Line + "\n  ret\n",
                      Diags),
              nullptr)
        << Case.Line;
    EXPECT_NE(Diags.str().find("3:1: error"), std::string::npos)
        << Case.Line << "\n" << Diags.str();
    EXPECT_NE(Diags.str().find(Case.Message), std::string::npos)
        << Case.Line << "\n" << Diags.str();
  }

  // The extremes that do fit still parse.
  auto M = parseOk("func main(params=0, regs=1, returns=void)\n"
                   ".entry:\n"
                   "  r0 = mov -9223372036854775808\n"
                   "  r0 = mov +9223372036854775807\n"
                   "  ret\n");
  ASSERT_NE(M, nullptr);

  // Headers are parsed in the first pass; their numerals are checked too.
  DiagnosticEngine Header;
  EXPECT_EQ(parseIR("global @g : 99999999999999999999 words\n", Header),
            nullptr);
  EXPECT_NE(Header.str().find("integer '99999999999999999999' out of range"),
            std::string::npos)
      << Header.str();
}

TEST(IRParser, RoundTripStability) {
  // print -> parse -> print must be a fixed point, at every pipeline
  // stage, for every workload.
  for (const Workload &W : paperWorkloads()) {
    DiagnosticEngine Diags;
    CompiledModule Module = compileToIR(W.Source, Diags);
    ASSERT_TRUE(static_cast<bool>(Module)) << W.Name;

    auto CheckRoundTrip = [&](const IRModule &M, const char *Stage) {
      std::string First = printIR(M);
      DiagnosticEngine ParseDiags;
      auto Parsed = parseIR(First, ParseDiags);
      ASSERT_NE(Parsed, nullptr)
          << W.Name << "/" << Stage << ": " << ParseDiags.str();
      EXPECT_EQ(printIR(*Parsed), First) << W.Name << "/" << Stage;
      // The parsed module must also behave identically.
      InterpResult A = interpretModule(M);
      InterpResult B = interpretModule(*Parsed);
      ASSERT_TRUE(A.ok()) << W.Name << "/" << Stage;
      ASSERT_TRUE(B.ok()) << W.Name << "/" << Stage;
      EXPECT_EQ(A.Output, B.Output) << W.Name << "/" << Stage;
    };

    CheckRoundTrip(*Module.IR, "irgen");
    runCleanupPipeline(*Module.IR, TransformOptions());
    CheckRoundTrip(*Module.IR, "cleanup");
    allocateRegisters(*Module.IR, RegAllocOptions());
    applyUnifiedManagement(*Module.IR, UnifiedOptions::unified());
    CheckRoundTrip(*Module.IR, "allocated+unified");
  }
}

TEST(IRParser, RoundTripEraMode) {
  const Workload *W = findWorkload("Queen");
  DiagnosticEngine Diags;
  IRGenOptions Options;
  Options.ScalarLocalsInMemory = true;
  CompiledModule Module = compileToIR(W->Source, Diags, Options);
  ASSERT_TRUE(static_cast<bool>(Module));
  allocateRegisters(*Module.IR, RegAllocOptions());
  applyUnifiedManagement(*Module.IR, UnifiedOptions::unified());
  std::string First = printIR(*Module.IR);
  DiagnosticEngine ParseDiags;
  auto Parsed = parseIR(First, ParseDiags);
  ASSERT_NE(Parsed, nullptr) << ParseDiags.str();
  EXPECT_EQ(printIR(*Parsed), First);
}

TEST(IRParser, RobustAgainstGarbage) {
  // The parser must reject (never crash on) arbitrary junk.
  SplitMix64 Rng(424242);
  const char Alphabet[] =
      "abcdefgr0123456789 @%.,:=[]()+-!\n\tfunc global frame ret";
  for (int Trial = 0; Trial != 200; ++Trial) {
    std::string Junk;
    size_t Len = 1 + Rng.nextBelow(400);
    for (size_t I = 0; I != Len; ++I)
      Junk += Alphabet[Rng.nextBelow(sizeof(Alphabet) - 1)];
    DiagnosticEngine Diags;
    auto M = parseIR(Junk, Diags);
    // Either a clean reject or a module; a returned module must at
    // least survive printing.
    if (M)
      (void)printIR(*M);
  }
}

//===- fuzz_test.cpp - Random-program differential tests -----------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Generates random-but-valid MC programs and checks, for each, that
//  * the IR interpreter (pre- and post-allocation) and the machine
//    simulator agree on program output;
//  * every hint scheme produces the same output with zero coherence
//    violations;
//  * the cleanup passes preserve behavior.
//
// Programs are built from a grammar that always terminates: loops are
// bounded counters, recursion has a strictly decreasing guard.
//
//===----------------------------------------------------------------------===//

#include "urcm/driver/Driver.h"
#include "urcm/ir/Interpreter.h"
#include "urcm/sim/Simulator.h"

#include "ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace urcm;
using urcm::testing::ProgramGenerator;

namespace {

class FuzzDifferential : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(FuzzDifferential, AllExecutionPathsAgree) {
  ProgramGenerator Gen(GetParam());
  std::string Source = Gen.generate();
  SCOPED_TRACE(Source);

  // Oracle: interpret the unoptimized, unallocated IR.
  DiagnosticEngine Diags;
  CompiledModule Module = compileToIR(Source, Diags);
  ASSERT_TRUE(static_cast<bool>(Module)) << Diags.str();
  InterpResult Oracle = interpretModule(*Module.IR);
  ASSERT_TRUE(Oracle.ok()) << Oracle.Error;

  for (bool Era : {false, true}) {
    for (auto Scheme :
         {UnifiedOptions::conventional(), UnifiedOptions::unified(),
          UnifiedOptions::reuseAware()}) {
      for (bool Cleanup : {false, true}) {
        CompileOptions Options;
        Options.IRGen.ScalarLocalsInMemory = Era;
        Options.Scheme = Scheme;
        Options.RunCleanup = Cleanup;
        Options.Transforms.DeadStoreElimination = Cleanup;
        Options.PromoteLoopScalars = Cleanup; // Exercise promotion too.
        SimConfig Sim;
        Sim.Cache.NumLines = 32;
        Sim.Cache.Assoc = 2;
        DiagnosticEngine RunDiags;
        SimResult R = compileAndRun(Source, Options, Sim, RunDiags);
        ASSERT_TRUE(R.ok()) << R.Error << RunDiags.str();
        EXPECT_EQ(R.Output, Oracle.Output)
            << "era=" << Era << " cleanup=" << Cleanup;
        EXPECT_EQ(R.CoherenceViolations, 0u)
            << "era=" << Era << " cleanup=" << Cleanup;
      }
    }
  }
}

namespace {

/// Asserts every observable field of \p A equals \p B (the reference).
void expectSameResult(const SimResult &A, const SimResult &B,
                      const char *Label) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(A.Halted, B.Halted);
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.Steps, B.Steps);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Cache, B.Cache);
  EXPECT_EQ(A.ICache, B.ICache);
  EXPECT_EQ(A.InstructionFetches, B.InstructionFetches);
  EXPECT_EQ(A.BypassTransitions, B.BypassTransitions);
  EXPECT_EQ(A.CoherenceViolations, B.CoherenceViolations);
  EXPECT_EQ(A.Refs.Unambiguous, B.Refs.Unambiguous);
  EXPECT_EQ(A.Refs.Ambiguous, B.Refs.Ambiguous);
  EXPECT_EQ(A.Refs.Spill, B.Refs.Spill);
  EXPECT_EQ(A.Refs.Unknown, B.Refs.Unknown);
  EXPECT_EQ(A.Refs.Bypassed, B.Refs.Bypassed);
  EXPECT_EQ(A.Refs.LastRefTagged, B.Refs.LastRefTagged);
  ASSERT_EQ(A.Trace.size(), B.Trace.size());
  for (size_t I = 0; I != A.Trace.size(); ++I) {
    ASSERT_EQ(A.Trace[I].Addr, B.Trace[I].Addr) << "event " << I;
    ASSERT_EQ(A.Trace[I].IsWrite, B.Trace[I].IsWrite) << "event " << I;
    ASSERT_EQ(A.Trace[I].Info.Bypass, B.Trace[I].Info.Bypass)
        << "event " << I;
    ASSERT_EQ(A.Trace[I].Info.LastRef, B.Trace[I].Info.LastRef)
        << "event " << I;
    ASSERT_EQ(A.Trace[I].RefId, B.Trace[I].RefId) << "event " << I;
  }
}

} // namespace

TEST_P(FuzzDifferential, EnginesBitIdentical) {
  // Two-way differential: the predecoded engine against the reference
  // switch interpreter — identical SimResults bit for bit (output,
  // steps, cache and reference counters, the recorded trace), and both
  // matching the IR oracle. Every generated program also runs under a
  // mid-program step limit, which the predecoded engine checks once per
  // straight-line run: it must still stop after exactly MaxSteps.
  ProgramGenerator Gen(GetParam());
  std::string Source = Gen.generate();
  SCOPED_TRACE(Source);

  DiagnosticEngine Diags;
  CompiledModule Module = compileToIR(Source, Diags);
  ASSERT_TRUE(static_cast<bool>(Module)) << Diags.str();
  InterpResult Oracle = interpretModule(*Module.IR);
  ASSERT_TRUE(Oracle.ok()) << Oracle.Error;

  for (auto Scheme :
       {UnifiedOptions::conventional(), UnifiedOptions::unified(),
        UnifiedOptions::reuseAware()}) {
    CompileOptions Options;
    Options.Scheme = Scheme;
    DiagnosticEngine CompileDiags;
    CompileResult Compiled = compileProgram(Source, Options, CompileDiags);
    ASSERT_TRUE(Compiled.Ok) << CompileDiags.str();

    SimConfig Sim;
    Sim.Cache.NumLines = 16;
    Sim.Cache.Assoc = 2;
    Sim.RecordTrace = true;
    Sim.ModelICache = (GetParam() % 2) == 0; // Cover both fetch paths.
    Sim.ICache.NumLines = 8;

    Sim.Engine = SimEngine::Switch;
    SimResult S = Simulator(Sim).run(Compiled.Program);

    Sim.Engine = SimEngine::Predecoded;
    SimResult P = Simulator(Sim).run(Compiled.Program);

    ASSERT_TRUE(P.ok()) << P.Error;
    EXPECT_EQ(P.Output, Oracle.Output);
    expectSameResult(P, S, "predecoded vs switch");

    // Truncated reruns: a seed-derived step limit below the full run,
    // landing anywhere — including mid-run. Both engines must stop
    // after exactly MaxSteps retired instructions.
    if (S.Steps > 1) {
      Sim.MaxSteps = 1 + (GetParam() * 2654435761u) % (S.Steps - 1);
      Sim.Engine = SimEngine::Switch;
      SimResult TS = Simulator(Sim).run(Compiled.Program);
      Sim.Engine = SimEngine::Predecoded;
      SimResult TP = Simulator(Sim).run(Compiled.Program);
      EXPECT_EQ(TS.Steps, Sim.MaxSteps);
      expectSameResult(TP, TS, "predecoded vs switch (truncated)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range<uint64_t>(1, 41));

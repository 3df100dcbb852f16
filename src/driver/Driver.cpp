//===- Driver.cpp - End-to-end compiler driver ---------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/driver/Driver.h"

#include "urcm/pass/Passes.h"
#include "urcm/pass/Pipeline.h"
#include "urcm/support/Telemetry.h"

using namespace urcm;

URCM_STAT(NumProgramsCompiled, "compile.programs",
          "End-to-end compilations through the driver");

CompileResult urcm::compileProgram(const std::string &Source,
                                   const CompileOptions &Options,
                                   DiagnosticEngine &Diags) {
  telemetry::ScopedPhase Phase("compile");
  NumProgramsCompiled.add();
  CompileResult Result;
  {
    telemetry::ScopedPhase Frontend("compile.frontend");
    Result.Module = compileToIR(Source, Diags, Options.IRGen);
  }
  if (!Result.Module)
    return Result;
  IRModule &M = *Result.Module.IR;

  // The pipeline is declarative from here on: resolve the pass text,
  // hand verification/printing to the pass-manager instrumentation and
  // analysis reuse to the manager's cache.
  PassManager PM;
  std::string Text =
      Options.Passes.empty()
          ? defaultPipelineText(Options.PromoteLoopScalars,
                                Options.RunCleanup)
          : Options.Passes;
  std::string Error;
  if (!parsePassPipeline(PM, Text, Error)) {
    Diags.error(SourceLoc(), "invalid pass pipeline: " + Error);
    return Result;
  }

  PassManager::Instrumentation Instr;
  Instr.VerifyEach = Options.VerifyIR;
  Instr.PrintAfterAll = Options.PrintAfterAll;
  Instr.Diags = &Diags;
  PM.setInstrumentation(Instr);

  PipelineState State;
  State.Transforms = Options.Transforms;
  State.RegAlloc = Options.RegAlloc;
  State.Scheme = Options.Scheme;
  State.CodeGen.Hints = Options.Scheme;
  State.CodeGen.GlobalBase = Options.GlobalBase;
  State.CodeGen.StackTop = Options.StackTop;
  State.Diags = &Diags;

  AnalysisManager AM(M);
  bool Ok = PM.run(M, AM, State);

  Result.Promotion = State.Promotion;
  Result.Transforms = State.Cleanup;
  Result.RegAlloc = State.Alloc;
  Result.Static = State.Static;
  if (!Ok)
    return Result;

  Result.Program = std::move(State.Program);
  Result.Program.NumAllocatableRegs = Options.RegAlloc.NumColors;
  Result.Ok = true;
  return Result;
}

SimResult urcm::compileAndRun(const std::string &Source,
                              const CompileOptions &Options,
                              const SimConfig &Sim,
                              DiagnosticEngine &Diags) {
  CompileResult Compiled = compileProgram(Source, Options, Diags);
  if (!Compiled.Ok) {
    SimResult Failed;
    Failed.Error = "compilation failed:\n" + Diags.str();
    return Failed;
  }
  Simulator S(Sim);
  return S.run(Compiled.Program);
}

double SchemeComparison::cacheTrafficReductionPercent() const {
  uint64_t Base = Conventional.Cache.cacheTraffic();
  if (Base == 0)
    return 0.0;
  double Reduced = static_cast<double>(Base) -
                   static_cast<double>(Unified.Cache.cacheTraffic());
  return 100.0 * Reduced / static_cast<double>(Base);
}

double SchemeComparison::busTrafficReductionPercent() const {
  uint64_t Base = Conventional.Cache.busTraffic();
  if (Base == 0)
    return 0.0;
  double Reduced = static_cast<double>(Base) -
                   static_cast<double>(Unified.Cache.busTraffic());
  return 100.0 * Reduced / static_cast<double>(Base);
}

double SchemeComparison::dynamicUnambiguousPercent() const {
  return Unified.Refs.unambiguousFraction() * 100.0;
}

SchemeComparison urcm::compareSchemes(const std::string &Source,
                                      const CompileOptions &BaseOptions,
                                      const CacheConfig &Cache,
                                      uint64_t MaxSteps) {
  SchemeComparison Result;

  SimConfig Sim;
  Sim.Cache = Cache;
  Sim.MaxSteps = MaxSteps;

  // Keep the caller's bypass policy / threshold; only toggle the hints.
  CompileOptions Conventional = BaseOptions;
  Conventional.Scheme.EnableBypass = false;
  Conventional.Scheme.EnableDeadTag = false;
  DiagnosticEngine DiagsConv;
  Result.Conventional =
      compileAndRun(Source, Conventional, Sim, DiagsConv);

  CompileOptions Unified = BaseOptions;
  Unified.Scheme.EnableBypass = true;
  Unified.Scheme.EnableDeadTag = true;
  DiagnosticEngine DiagsUni;
  CompileResult Compiled = compileProgram(Source, Unified, DiagsUni);
  if (!Compiled.Ok) {
    Result.Error = "unified compilation failed:\n" + DiagsUni.str();
    return Result;
  }
  Result.StaticStats = Compiled.Static;
  Simulator S(Sim);
  Result.Unified = S.run(Compiled.Program);

  if (!Result.Conventional.ok()) {
    Result.Error = "conventional run failed: " + Result.Conventional.Error;
    return Result;
  }
  if (!Result.Unified.ok()) {
    Result.Error = "unified run failed: " + Result.Unified.Error;
    return Result;
  }
  if (Result.Conventional.Output != Result.Unified.Output) {
    Result.Error = "scheme outputs diverge (unsound hints?)";
    return Result;
  }
  if (Result.Unified.CoherenceViolations != 0 ||
      Result.Conventional.CoherenceViolations != 0) {
    Result.Error = "coherence violations detected";
    return Result;
  }
  return Result;
}

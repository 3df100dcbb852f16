//===- urcm/driver/Driver.h - End-to-end compiler driver --------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-call pipelines used by tests, examples and the benchmark harness:
///
///   MC source -> AST -> IR -> verify -> register allocation -> unified
///   management pass -> URCM-RISC code -> simulation.
///
/// The driver also provides the scheme-comparison entry point that
/// regenerates Figure 5: it compiles one program under the conventional
/// and unified schemes, runs both on identical cache geometry, checks
/// that the program output matches, and reports the traffic reduction.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_DRIVER_DRIVER_H
#define URCM_DRIVER_DRIVER_H

#include "urcm/codegen/CodeGen.h"
#include "urcm/core/UnifiedManagement.h"
#include "urcm/irgen/IRGen.h"
#include "urcm/regalloc/RegAlloc.h"
#include "urcm/sim/Simulator.h"
#include "urcm/transforms/LoopPromotion.h"
#include "urcm/transforms/Transforms.h"

#include <string>

namespace urcm {

/// Pipeline configuration.
struct CompileOptions {
  IRGenOptions IRGen;
  /// Run the IR cleanup pipeline (copy propagation / DCE / optional DSE)
  /// before register allocation. Off by default: the Figure-5 baseline
  /// models an era compiler without these passes; turn on for the
  /// compiler-vs-hardware dead-value ablation.
  bool RunCleanup = false;
  TransformOptions Transforms;
  /// Promote unaliased scalars to registers across call-free loops (the
  /// paper's section-4.2 rule [1]) before cleanup and allocation.
  bool PromoteLoopScalars = false;
  RegAllocOptions RegAlloc;
  UnifiedOptions Scheme = UnifiedOptions::unified();
  /// Pipeline text (urcm/pass/Pipeline.h syntax). When empty, the
  /// boolean options above resolve to the default pipeline:
  /// [promote,][cleanup,]regalloc,unified,codegen.
  std::string Passes;
  /// Verify the input IR, then re-verify after every pass that did not
  /// preserve all analyses (pass-manager instrumentation).
  bool VerifyIR = true;
  /// Print the IR to stderr after every pass.
  bool PrintAfterAll = false;
  uint64_t GlobalBase = 0x1000;
  uint64_t StackTop = 0x100000;
};

/// Everything the pipeline produces.
struct CompileResult {
  CompiledModule Module;
  TransformStats Transforms;
  LoopPromotionStats Promotion;
  RegAllocStats RegAlloc;
  ClassificationStats Static;
  MachineProgram Program;
  bool Ok = false;
};

/// Compiles \p Source with \p Options. Diagnostics explain failures.
CompileResult compileProgram(const std::string &Source,
                             const CompileOptions &Options,
                             DiagnosticEngine &Diags);

/// Compiles and simulates in one step.
SimResult compileAndRun(const std::string &Source,
                        const CompileOptions &Options,
                        const SimConfig &Sim, DiagnosticEngine &Diags);

/// Figure-5 style two-scheme comparison of one program.
struct SchemeComparison {
  std::string Error; ///< Empty on success.
  ClassificationStats StaticStats;
  SimResult Conventional;
  SimResult Unified;

  bool ok() const { return Error.empty(); }

  /// Percent reduction in data-cache reference traffic (the Figure 5
  /// metric).
  double cacheTrafficReductionPercent() const;
  /// Percent reduction in memory/bus traffic.
  double busTrafficReductionPercent() const;
  /// Dynamic unambiguous reference fraction under the unified scheme.
  double dynamicUnambiguousPercent() const;
};

/// Runs \p Source under both schemes on cache geometry \p Cache, each
/// run bounded by \p MaxSteps, and compares. Output mismatch or
/// coherence violations are reported as errors.
SchemeComparison compareSchemes(const std::string &Source,
                                const CompileOptions &BaseOptions,
                                const CacheConfig &Cache,
                                uint64_t MaxSteps = SimConfig().MaxSteps);

} // namespace urcm

#endif // URCM_DRIVER_DRIVER_H

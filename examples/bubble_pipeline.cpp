//===- bubble_pipeline.cpp - Walk the full compiler pipeline -------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Drives every stage of the pipeline on a reduced Bubble benchmark and
// dumps the intermediate artifacts: AST, IR, webs, alias classification,
// allocation statistics, annotated URCM-RISC assembly, and finally the
// two-scheme simulation. Useful as a tour of the public API.
//
// Build & run:  ./build/examples/bubble_pipeline
//
//===----------------------------------------------------------------------===//

#include "urcm/analysis/AliasAnalysis.h"
#include "urcm/analysis/CFG.h"
#include "urcm/analysis/ReachingDefs.h"
#include "urcm/analysis/Webs.h"
#include "urcm/driver/Driver.h"
#include "urcm/ir/Verifier.h"
#include "urcm/lang/Sema.h"
#include "urcm/pass/AnalysisManager.h"

#include <cstdio>

using namespace urcm;

static const char *SmallBubble = R"mc(
int a[24];
int n;

void init() {
  int i;
  int seed = 99;
  for (i = 0; i < n; i = i + 1) {
    seed = (seed * 1103515245 + 12345) % 100000;
    a[i] = seed % 1000;
  }
}

void bubble() {
  int i;
  int j;
  int t;
  for (i = 0; i < n - 1; i = i + 1) {
    for (j = 0; j < n - 1 - i; j = j + 1) {
      if (a[j] > a[j + 1]) {
        t = a[j];
        a[j] = a[j + 1];
        a[j + 1] = t;
      }
    }
  }
}

void main() {
  n = 24;
  init();
  bubble();
  print(a[0]);
  print(a[23]);
}
)mc";

int main() {
  DiagnosticEngine Diags;

  std::printf("=== 1. Parse + Sema ===\n");
  auto TU = parseAndAnalyze(SmallBubble, Diags);
  if (!TU) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  std::printf("%s\n", printAST(*TU).c_str());

  std::printf("=== 2. IR (before allocation) ===\n");
  IRGenOptions IROptions;
  IROptions.ScalarLocalsInMemory = true; // Era mode, like Figure 5.
  auto IR = generateIR(*TU, Diags, IROptions);
  if (!IR || !verifyModule(*IR, Diags)) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  const IRFunction *Bubble = IR->findFunction("bubble");
  std::printf("%s\n", printIR(*IR, *Bubble).c_str());

  std::printf("=== 3. Webs of bubble() (paper Definition 2) ===\n");
  {
    CFGInfo CFG(*Bubble);
    ReachingDefs RD(*Bubble, CFG);
    WebAnalysis WA(*Bubble, CFG, RD);
    std::printf("%zu webs over %u virtual registers\n",
                WA.webs().size(), Bubble->numRegs());
    for (size_t W = 0; W != WA.webs().size() && W < 8; ++W)
      std::printf("  web %zu: r%u, %zu defs, %zu uses%s\n", W,
                  WA.webs()[W].Register, WA.webs()[W].DefIds.size(),
                  WA.webs()[W].Uses.size(),
                  WA.webs()[W].IncludesParam ? " (parameter)" : "");
  }

  std::printf("\n=== 4. Register allocation + unified management ===\n");
  RegAllocOptions RAOptions;
  AnalysisManager AM(*IR);
  RegAllocStats RAStats = allocateRegisters(*IR, RAOptions, AM);
  std::printf("webs=%u spilled=%u colors=%u iterations=%u\n",
              RAStats.NumWebs, RAStats.NumSpilledWebs,
              RAStats.NumColorsUsed, RAStats.Iterations);
  ClassificationStats Classified =
      applyUnifiedManagement(*IR, UnifiedOptions::unified(), AM);
  std::printf("%s\n", Classified.str().c_str());

  std::printf("\n=== 5. Alias classification of bubble() ===\n");
  {
    ModuleEscapeInfo ME(*IR);
    AliasInfo AA(*IR, *Bubble, ME);
    unsigned Index = 0;
    for (const auto &B : Bubble->blocks())
      for (const Instruction &I : B->insts())
        if (I.isMemAccess() && Index++ < 10)
          std::printf("  %-34s -> %s\n",
                      printInst(*IR, *Bubble, I).c_str(),
                      AA.isUnambiguous(I) ? "unambiguous (bypass)"
                                          : "ambiguous (cache)");
  }

  std::printf("\n=== 6. Annotated URCM-RISC assembly (excerpt) ===\n");
  CodeGenOptions CGOptions;
  MachineProgram Program = generateMachineCode(*IR, CGOptions);
  std::string Asm = Program.str();
  std::printf("%.2200s...\n", Asm.c_str());

  std::printf("\n=== 7. Two-scheme simulation ===\n");
  CompileOptions Full;
  Full.IRGen.ScalarLocalsInMemory = true;
  CacheConfig Cache;
  Cache.NumLines = 64;
  Cache.Assoc = 2;
  SchemeComparison Cmp = compareSchemes(SmallBubble, Full, Cache);
  if (!Cmp.ok()) {
    std::fprintf(stderr, "error: %s\n", Cmp.Error.c_str());
    return 1;
  }
  std::printf("output: ");
  for (int64_t V : Cmp.Unified.Output)
    std::printf("%lld ", static_cast<long long>(V));
  std::printf("\ncache traffic: %llu -> %llu words (%.1f%% reduction)\n",
              static_cast<unsigned long long>(
                  Cmp.Conventional.Cache.cacheTraffic()),
              static_cast<unsigned long long>(
                  Cmp.Unified.Cache.cacheTraffic()),
              Cmp.cacheTrafficReductionPercent());
  std::printf("dynamic unambiguous refs: %.1f%%\n",
              Cmp.dynamicUnambiguousPercent());
  return 0;
}

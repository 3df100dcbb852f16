//===- cache_explorer.cpp - Cache geometry/policy exploration ------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Records one data-reference trace from the Sieve benchmark and replays
// it across cache geometries and replacement policies (including
// Belady's MIN), under the conventional and unified schemes. Shows how
// the unified hints interact with hardware policy choices.
//
// Build & run:  ./build/examples/cache_explorer
//
//===----------------------------------------------------------------------===//

#include "urcm/driver/Driver.h"
#include "urcm/sim/CacheModel.h"
#include "urcm/workloads/Workloads.h"

#include <cstdio>

using namespace urcm;

namespace {

std::vector<TraceEvent> record(bool Unified) {
  const Workload *W = findWorkload("Sieve");
  CompileOptions Options;
  Options.IRGen.ScalarLocalsInMemory = true;
  Options.Scheme = Unified ? UnifiedOptions::unified()
                           : UnifiedOptions::conventional();
  SimConfig Sim;
  Sim.RecordTrace = true;
  DiagnosticEngine Diags;
  SimResult R = compileAndRun(W->Source, Options, Sim, Diags);
  if (!R.ok()) {
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    std::exit(1);
  }
  return std::move(R.Trace);
}

} // namespace

int main() {
  std::printf("URCM cache explorer — Sieve reference trace\n");
  std::vector<TraceEvent> Conv = record(/*Unified=*/false);
  std::vector<TraceEvent> Uni = record(/*Unified=*/true);
  std::printf("trace: %zu data references\n\n", Conv.size());

  const CachePolicy Policies[] = {CachePolicy::LRU, CachePolicy::FIFO,
                                  CachePolicy::Random, CachePolicy::MIN};

  std::printf("--- geometry sweep (LRU): misses conv/unified ---\n");
  std::printf("%10s %6s %14s %14s\n", "lines", "assoc", "conventional",
              "unified");
  for (uint32_t Lines : {16u, 32u, 64u, 128u, 256u, 512u}) {
    for (uint32_t Assoc : {1u, 2u, 4u}) {
      if (Assoc > Lines)
        continue;
      CacheConfig C;
      C.NumLines = Lines;
      C.Assoc = Assoc;
      CacheStats SConv = replayTrace(Conv, C, CachePolicy::LRU);
      CacheStats SUni = replayTrace(Uni, C, CachePolicy::LRU);
      std::printf("%10u %6u %14llu %14llu\n", Lines, Assoc,
                  static_cast<unsigned long long>(SConv.misses()),
                  static_cast<unsigned long long>(SUni.misses()));
    }
  }

  std::printf("\n--- policy sweep (128 lines, 2-way) ---\n");
  std::printf("%8s %16s %16s %16s\n", "policy", "conv misses",
              "unified misses", "unified wb words");
  CacheConfig C;
  C.NumLines = 128;
  C.Assoc = 2;
  for (CachePolicy P : Policies) {
    CacheStats SConv = replayTrace(Conv, C, P);
    CacheStats SUni = replayTrace(Uni, C, P);
    std::printf("%8s %16llu %16llu %16llu\n", cachePolicyName(P),
                static_cast<unsigned long long>(SConv.misses()),
                static_cast<unsigned long long>(SUni.misses()),
                static_cast<unsigned long long>(SUni.WriteBackWords));
  }

  std::printf("\n--- the paper's headline, on this trace ---\n");
  CacheStats SConv = replayTrace(Conv, C, CachePolicy::LRU);
  CacheStats SUni = replayTrace(Uni, C, CachePolicy::LRU);
  double Reduction =
      100.0 *
      (static_cast<double>(SConv.cacheTraffic()) -
       static_cast<double>(SUni.cacheTraffic())) /
      static_cast<double>(SConv.cacheTraffic());
  std::printf("data-cache traffic: %llu -> %llu words (%.1f%% reduction)\n",
              static_cast<unsigned long long>(SConv.cacheTraffic()),
              static_cast<unsigned long long>(SUni.cacheTraffic()),
              Reduction);
  return 0;
}

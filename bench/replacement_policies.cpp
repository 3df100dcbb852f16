//===- replacement_policies.cpp - Experiment E8 --------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Section 3.2 claims the dead-line freeing composes with LRU, FIFO,
// Random *and Belady's MIN*. We record one data-reference trace per
// benchmark and replay it against all four policies for both schemes
// (the conventional cells replay with the hint bits stripped; the
// instruction stream is scheme-independent, which the pair sweep
// verifies), reporting miss counts. MIN needs future knowledge, hence
// the trace-driven replay.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "urcm/sim/CacheModel.h"

using namespace urcm;
using namespace urcm::bench;

namespace {

const std::vector<CachePolicy> &policies() {
  static const std::vector<CachePolicy> P = {
      CachePolicy::LRU, CachePolicy::FIFO, CachePolicy::Random,
      CachePolicy::MIN};
  return P;
}

std::vector<SweepPoint> grid() {
  std::vector<SweepPoint> G;
  for (CachePolicy P : policies())
    G.push_back({paperCache(), P, /*IgnoreHints=*/false});
  return G;
}

size_t policyIndex(CachePolicy Policy) {
  for (size_t I = 0; I != policies().size(); ++I)
    if (policies()[I] == Policy)
      return I;
  return 0;
}

CacheStats replayed(const std::string &Name, bool Unified,
                    CachePolicy Policy) {
  size_t I = policyIndex(Policy);
  return Unified
             ? pairUnifiedStats(Name, figure5Compile(), I)
             : pairConventionalStats(Name, figure5Compile(),
                                     policies().size(), I);
}

void rowFor(benchmark::State &State, const std::string &Name,
            bool Unified, CachePolicy Policy) {
  for (auto _ : State)
    benchmark::DoNotOptimize(replayed(Name, Unified, Policy));
  CacheStats S = replayed(Name, Unified, Policy);
  State.counters["misses"] = static_cast<double>(S.misses());
  State.counters["hit_pct"] = S.hitRate() * 100.0;
  State.counters["writeback_words"] =
      static_cast<double>(S.WriteBackWords);
  State.counters["dead_frees"] = static_cast<double>(S.DeadFrees);
}

void summary() {
  std::printf("\nReplacement policies x schemes (misses; trace replay, "
              "128-line 2-way)\n");
  std::printf("%-8s %10s |", "bench", "scheme");
  for (CachePolicy P : policies())
    std::printf(" %10s", cachePolicyName(P));
  std::printf("\n");
  for (const std::string &Name : workloadNames()) {
    for (bool Unified : {false, true}) {
      std::printf("%-8s %10s |", Name.c_str(),
                  Unified ? "unified" : "conv");
      for (CachePolicy P : policies())
        std::printf(" %10llu",
                    static_cast<unsigned long long>(
                        replayed(Name, Unified, P).misses()));
      std::printf("\n");
    }
  }
  std::printf("(MIN is the optimality floor per scheme; unified rows "
              "have fewer through-cache refs)\n");
}

} // namespace

int main(int argc, char **argv) {
  for (const std::string &Name : workloadNames())
    schedulePairSweep(Name, figure5Compile(), grid(), /*BaseIndex=*/0);
  engine().run();
  for (const std::string &Name : workloadNames())
    for (bool Unified : {false, true})
      for (CachePolicy Policy : policies()) {
        std::string Label = "Policies/" + Name + "/" +
                            (Unified ? "unified/" : "conv/") +
                            cachePolicyName(Policy);
        benchmark::RegisterBenchmark(
            Label.c_str(),
            [Name, Unified, Policy](benchmark::State &State) {
              rowFor(State, Name, Unified, Policy);
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  summary();
  return 0;
}

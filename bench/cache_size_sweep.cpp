//===- cache_size_sweep.cpp - Experiment E10 -----------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// The section-6 thought experiment: "a machine with 1000000 registers"
// cannot absorb ambiguous references, and "a machine with 1000000 words
// of cache but no registers" cannot avoid worst-case cache behavior. We
// sweep the cache size under both compilation models (era-style
// memory-resident scalars vs aggressive register allocation) and show
// that the unified scheme's cache-traffic reduction persists across
// sizes, while register allocation shrinks the pool of bypassable
// references.
//
// Each (benchmark, compilation model) pair is simulated once with
// tracing; every cache size and both schemes replay from that trace
// (see BenchCommon.h's pair-sweep helpers).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace urcm;
using namespace urcm::bench;

namespace {

const std::vector<uint32_t> &cacheSizes() {
  static const std::vector<uint32_t> Sizes = {16, 64, 256, 1024};
  return Sizes;
}

CompileOptions optionsFor(bool Era) {
  CompileOptions Options = figure5Compile();
  Options.IRGen.ScalarLocalsInMemory = Era;
  return Options;
}

std::vector<SweepPoint> grid() {
  std::vector<SweepPoint> G;
  for (uint32_t Lines : cacheSizes()) {
    CacheConfig Cache = paperCache();
    Cache.NumLines = Lines;
    G.push_back({Cache, CachePolicy::LRU, /*IgnoreHints=*/false});
  }
  return G;
}

size_t sizeIndex(uint32_t Lines) {
  for (size_t I = 0; I != cacheSizes().size(); ++I)
    if (cacheSizes()[I] == Lines)
      return I;
  return 0;
}

SchemeComparison measure(const std::string &Name, uint32_t Lines,
                         bool Era) {
  return pairComparison(Name, optionsFor(Era), cacheSizes().size(),
                        sizeIndex(Lines));
}

void rowFor(benchmark::State &State, const std::string &Name,
            uint32_t Lines, bool Era) {
  for (auto _ : State) {
    SchemeComparison C = measure(Name, Lines, Era);
    benchmark::DoNotOptimize(&C);
  }
  SchemeComparison C = measure(Name, Lines, Era);
  State.counters["cache_lines"] = Lines;
  State.counters["reduction_pct"] = C.cacheTrafficReductionPercent();
  State.counters["conv_hit_pct"] = C.Conventional.Cache.hitRate() * 100.0;
}

void summary() {
  for (bool Era : {true, false}) {
    std::printf("\nCache-size sweep (%s): cache-traffic reduction %%\n",
                Era ? "era compiler" : "allocating compiler");
    std::printf("%-8s", "bench");
    for (uint32_t L : cacheSizes())
      std::printf(" %9u", L);
    std::printf("\n");
    for (const std::string &Name : workloadNames()) {
      std::printf("%-8s", Name.c_str());
      for (uint32_t L : cacheSizes())
        std::printf(" %8.1f%%",
                    measure(Name, L, Era).cacheTrafficReductionPercent());
      std::printf("\n");
    }
  }
  std::printf("(reduction persists across sizes in era code; register "
              "allocation absorbs it)\n");
}

} // namespace

int main(int argc, char **argv) {
  // The largest geometry is the cheapest to simulate live, so it hosts
  // the traced base run; the other sizes are pure replay.
  for (const std::string &Name : workloadNames())
    for (bool Era : {true, false})
      schedulePairSweep(Name, optionsFor(Era), grid(),
                        /*BaseIndex=*/cacheSizes().size() - 1);
  engine().run();
  for (const std::string &Name : workloadNames())
    for (uint32_t Lines : cacheSizes())
      for (bool Era : {true, false}) {
        std::string Label = "CacheSize/" + Name + "/" +
                            std::to_string(Lines) +
                            (Era ? "/era" : "/alloc");
        benchmark::RegisterBenchmark(
            Label.c_str(), [Name, Lines, Era](benchmark::State &State) {
              rowFor(State, Name, Lines, Era);
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

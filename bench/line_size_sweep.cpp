//===- line_size_sweep.cpp - Experiment E9 -------------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Validates the paper's section-1 assumption (citing [ChD89] [Lee87])
// that "small line size (e.g. one) is always preferred for data cache":
// sweeping the line size under the conventional scheme, bus traffic in
// words should be minimized at (or near) one-word lines for these
// word-granular workloads, even though hit *rates* rise with longer
// lines.
//
// Each benchmark is simulated once with tracing; every line geometry
// replays from that trace (the reference stream does not depend on the
// cache geometry).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace urcm;
using namespace urcm::bench;

namespace {

const std::vector<uint32_t> &lineSizes() {
  static const std::vector<uint32_t> Sizes = {1, 2, 4, 8, 16};
  return Sizes;
}

CompileOptions conventionalOptions() {
  CompileOptions Options = figure5Compile();
  Options.Scheme = UnifiedOptions::conventional();
  return Options;
}

std::vector<SweepPoint> grid() {
  std::vector<SweepPoint> G;
  for (uint32_t LineWords : lineSizes()) {
    CacheConfig Cache = paperCache();
    Cache.LineWords = LineWords;
    // Hold capacity constant in *words*: fewer lines when lines are
    // wider.
    Cache.NumLines = std::max(2u, 128u / LineWords);
    G.push_back({Cache, CachePolicy::LRU, /*IgnoreHints=*/false});
  }
  return G;
}

size_t lineIndex(uint32_t LineWords) {
  for (size_t I = 0; I != lineSizes().size(); ++I)
    if (lineSizes()[I] == LineWords)
      return I;
  return 0;
}

const CacheStats &measure(const std::string &Name, uint32_t LineWords) {
  return singleSweepStats(Name, conventionalOptions(),
                          lineIndex(LineWords));
}

void rowFor(benchmark::State &State, const std::string &Name,
            uint32_t LineWords) {
  for (auto _ : State) {
    const CacheStats &S = measure(Name, LineWords);
    benchmark::DoNotOptimize(&S);
  }
  const CacheStats &S = measure(Name, LineWords);
  State.counters["line_words"] = LineWords;
  State.counters["bus_traffic_words"] =
      static_cast<double>(S.busTraffic());
  State.counters["miss_pct"] = 100.0 - S.hitRate() * 100.0;
}

void summary() {
  std::printf("\nLine-size sweep, conventional scheme, constant 128-word "
              "capacity (bus words)\n");
  std::printf("%-8s", "bench");
  for (uint32_t L : lineSizes())
    std::printf(" %12u", L);
  std::printf("\n");
  for (const std::string &Name : workloadNames()) {
    std::printf("%-8s", Name.c_str());
    for (uint32_t L : lineSizes())
      std::printf(" %12llu", static_cast<unsigned long long>(
                                 measure(Name, L).busTraffic()));
    std::printf("\n");
  }
  std::printf("(paper section 1: one-word lines preferred for data "
              "cache)\n");
}

} // namespace

int main(int argc, char **argv) {
  for (const std::string &Name : workloadNames())
    scheduleSingleSweep(Name, conventionalOptions(), grid(),
                        /*BaseIndex=*/0);
  engine().run();
  for (const std::string &Name : workloadNames())
    for (uint32_t L : lineSizes())
      benchmark::RegisterBenchmark(
          ("LineSize/" + Name + "/" + std::to_string(L)).c_str(),
          [Name, L](benchmark::State &State) { rowFor(State, Name, L); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  summary();
  return 0;
}

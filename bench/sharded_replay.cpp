//===- sharded_replay.cpp - Intra-trace parallel replay exhibit ----------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Measures point-parallel replay (SweepPointStream with several
// workers, urcm/sim/SweepEngine.h) on the single-experiment case the
// sweep engine's across-experiment parallelism cannot touch: ONE
// workload's trace replayed over a realistic point grid, sequentially
// versus on 2/4/8 workers of an explicit 4-thread pool. Counter
// equality with the sequential replay is asserted before any timing is
// reported (a fast wrong replay would be worse than useless as an
// exhibit). The binary keeps the name of the set-sharded replay it
// replaced, so its ledger rows stay comparable.
//
// Rows carry the measured replay times, the speedup, and the thread
// count: on single-core machines the parallel rows time-slice one core
// and the speedup hovers near (or below) 1x by construction; read
// speedup_vs_seq together with the threads counter.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "urcm/sim/SweepEngine.h"

#include <chrono>

using namespace urcm;
using namespace urcm::bench;

namespace {

/// Threads the parallel rows may use (pool + the parallelFor caller).
constexpr uint32_t BenchThreads = 4;

const std::vector<uint32_t> &workerCounts() {
  static const std::vector<uint32_t> Counts = {2, 4, 8};
  return Counts;
}

/// A realistic grid: the paper geometry and its neighbours, both hint
/// views, plus FIFO and a wider-line point — the shape fig5-style
/// sweeps replay per workload.
std::vector<SweepPoint> grid() {
  std::vector<SweepPoint> G;
  for (uint32_t Lines : {32u, 64u, 128u, 256u, 512u}) {
    CacheConfig C = paperCache();
    C.NumLines = Lines;
    G.push_back({C, CachePolicy::LRU, /*IgnoreHints=*/false});
    G.push_back({C, CachePolicy::LRU, /*IgnoreHints=*/true});
  }
  CacheConfig FourWay = paperCache();
  FourWay.Assoc = 4;
  G.push_back({FourWay, CachePolicy::LRU, false});
  CacheConfig Fifo = paperCache();
  Fifo.Policy = CachePolicy::FIFO;
  G.push_back({Fifo, CachePolicy::FIFO, false});
  CacheConfig Wide = paperCache();
  Wide.LineWords = 4;
  Wide.NumLines = 32;
  G.push_back({Wide, CachePolicy::LRU, false});
  return G;
}

struct Measurement {
  double SequentialMs = 0;
  std::map<uint32_t, double> ParallelMs; // keyed by worker count
  uint64_t TraceEvents = 0;
};

double bestOfThreeMs(const std::function<void()> &Fn) {
  double Best = 1e300;
  for (int Rep = 0; Rep != 3; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    Fn();
    auto T1 = std::chrono::steady_clock::now();
    Best = std::min(
        Best, std::chrono::duration<double, std::milli>(T1 - T0).count());
  }
  return Best;
}

Measurement &measurement(const std::string &Name) {
  static std::map<std::string, Measurement> Cache;
  static std::mutex M;
  std::lock_guard<std::mutex> Lock(M);
  auto It = Cache.find(Name);
  if (It != Cache.end())
    return It->second;

  const Workload &W = workloadOrDie(Name);
  SimConfig Sim;
  Sim.Cache = paperCache();
  Sim.RecordTrace = true;
  DiagnosticEngine Diags;
  SimResult R = compileAndRun(W.Source, figure5Compile(), Sim, Diags);
  if (!R.ok()) {
    std::fprintf(stderr, "%s: %s\n", Name.c_str(), R.Error.c_str());
    std::abort();
  }

  const std::vector<SweepPoint> Grid = grid();
  Measurement Out;
  Out.TraceEvents = R.Trace.size();
  std::vector<CacheStats> Sequential;
  Out.SequentialMs = bestOfThreeMs(
      [&] { Sequential = replaySweepPoints(R.Trace, Grid); });

  ThreadPool Pool(BenchThreads - 1); // parallelFor adds the caller.
  for (uint32_t Workers : workerCounts()) {
    std::vector<CacheStats> Parallel;
    Out.ParallelMs[Workers] = bestOfThreeMs([&] {
      Parallel = replaySweepPoints(R.Trace, Grid, Workers, &Pool);
    });
    // Bit-identity, checked on the numbers this exhibit reports.
    for (size_t I = 0; I != Grid.size(); ++I)
      if (!(Parallel[I] == Sequential[I])) {
        std::fprintf(stderr,
                     "%s: parallel replay diverged at point %zu "
                     "(workers=%u)\n",
                     Name.c_str(), I, Workers);
        std::abort();
      }
  }
  return Cache.emplace(Name, std::move(Out)).first->second;
}

void rowFor(benchmark::State &State, const std::string &Name,
            uint32_t Workers) {
  for (auto _ : State) {
    Measurement &M = measurement(Name);
    benchmark::DoNotOptimize(&M);
  }
  Measurement &M = measurement(Name);
  double Ms = Workers == 1 ? M.SequentialMs : M.ParallelMs.at(Workers);
  State.counters["workers"] = Workers;
  State.counters["threads"] = Workers == 1 ? 1 : BenchThreads;
  State.counters["trace_events"] = static_cast<double>(M.TraceEvents);
  State.counters["replay_ms"] = Ms;
  State.counters["speedup_vs_seq"] = M.SequentialMs / Ms;
}

void summary() {
  std::printf("\nSingle-experiment replay: sequential vs point-parallel "
              "(%u threads, %zu-point grid, best of 3)\n",
              BenchThreads, grid().size());
  std::printf("%-8s %10s %8s", "bench", "events", "seq-ms");
  for (uint32_t S : workerCounts())
    std::printf(" %11s", ("x" + std::to_string(S) + "-speedup").c_str());
  std::printf("\n");
  for (const std::string &Name : workloadNames()) {
    Measurement &M = measurement(Name);
    std::printf("%-8s %10llu %8.2f",
                Name.c_str(),
                static_cast<unsigned long long>(M.TraceEvents),
                M.SequentialMs);
    for (uint32_t S : workerCounts())
      std::printf(" %11.2f", M.SequentialMs / M.ParallelMs.at(S));
    std::printf("\n");
  }
  std::printf("(counters verified bit-identical to sequential replay "
              "before timing)\n");
}

} // namespace

int main(int argc, char **argv) {
  for (const std::string &Name : workloadNames()) {
    std::vector<uint32_t> Rows = {1};
    Rows.insert(Rows.end(), workerCounts().begin(), workerCounts().end());
    for (uint32_t Workers : Rows)
      benchmark::RegisterBenchmark(
          ("ShardedReplay/" + Name + "/" + std::to_string(Workers))
              .c_str(),
          [Name, Workers](benchmark::State &State) {
            rowFor(State, Name, Workers);
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

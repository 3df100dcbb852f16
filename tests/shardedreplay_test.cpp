//===- shardedreplay_test.cpp - Parallel-replay bit-identity tests -------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Point-parallel replay's contract: replaying the sweep points on
// several workers must reproduce the sequential replay counters bit for
// bit, for every worker count — fewer workers than points, more, and
// one. These tests pin that against sequential replaySweepPoints for all
// six paper benchmarks and for adversarial synthetic traces, across
// worker counts {1, 2, 7, 64}, in batch and chunk-fed form and through
// the engine. The suite keeps the name of the set-sharded replay it
// replaced; "shards" survive as the deprecated spelling of workers
// (urcm/sim/ShardedReplay.h).
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/ShardedReplay.h"

#include "urcm/driver/Driver.h"
#include "urcm/sim/SweepEngine.h"
#include "urcm/support/RNG.h"
#include "urcm/support/ThreadPool.h"
#include "urcm/workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace urcm;

namespace {

CacheConfig config(uint32_t Lines, uint32_t Assoc, uint32_t LineWords = 1) {
  CacheConfig C;
  C.NumLines = Lines;
  C.Assoc = Assoc;
  C.LineWords = LineWords;
  return C;
}

/// A deterministic trace with locality, writes, and hint bits on a
/// fraction of events (hint placement need not be compiler-plausible:
/// the replayers must agree on any input).
std::vector<TraceEvent> hintedTrace(uint64_t Seed, size_t N,
                                    uint32_t AddressRange) {
  SplitMix64 Rng(Seed);
  std::vector<TraceEvent> Trace;
  Trace.reserve(N);
  uint32_t Hot = 0;
  for (size_t I = 0; I != N; ++I) {
    uint64_t Roll = Rng.nextBelow(100);
    TraceEvent E;
    E.Addr = static_cast<uint32_t>(
        Roll < 60 ? (Hot + Rng.nextBelow(8)) % AddressRange
                  : Rng.nextBelow(AddressRange));
    if (Roll == 99)
      Hot = static_cast<uint32_t>(Rng.nextBelow(AddressRange));
    E.IsWrite = Rng.nextBelow(4) == 0;
    E.Info.Bypass = Rng.nextBelow(10) == 0;
    E.Info.LastRef = !E.Info.Bypass && Rng.nextBelow(13) == 0;
    Trace.push_back(E);
  }
  return Trace;
}

std::vector<TraceEvent> strippedCopy(std::vector<TraceEvent> Trace) {
  for (TraceEvent &E : Trace) {
    E.Info.Bypass = false;
    E.Info.LastRef = false;
  }
  return Trace;
}

/// The worker counts bit-identity is pinned at: sequential, two, a
/// prime that divides nothing, and more workers than points.
const uint32_t WorkerCounts[] = {1, 2, 7, 64};

/// A mixed point set exercising every kernel: the two-way fast kernel,
/// the generic replayer (other associativities, write-through, FIFO),
/// and both hint views.
std::vector<SweepPoint> mixedPoints() {
  std::vector<SweepPoint> Points = {
      {config(128, 2), CachePolicy::LRU, false},
      {config(128, 2), CachePolicy::LRU, true},
      {config(16, 2), CachePolicy::LRU, false},
      {config(64, 4), CachePolicy::LRU, false},
      {config(64, 4), CachePolicy::LRU, true},
      {config(64, 2), CachePolicy::FIFO, false},
      {config(32, 2, 2), CachePolicy::LRU, false},
  };
  SweepPoint WriteThrough{config(64, 2), CachePolicy::LRU, false};
  WriteThrough.Config.Write = WritePolicy::WriteThrough;
  Points.push_back(WriteThrough);
  return Points;
}

std::vector<TraceEvent> tracedWorkloadRun(const Workload &W) {
  CompileOptions Options;
  Options.IRGen.ScalarLocalsInMemory = true;
  SimConfig Sim;
  Sim.Cache = config(128, 2);
  Sim.RecordTrace = true;
  DiagnosticEngine Diags;
  SimResult R = compileAndRun(W.Source, Options, Sim, Diags);
  EXPECT_TRUE(R.ok()) << W.Name << ": " << R.Error;
  EXPECT_FALSE(R.Trace.empty()) << W.Name;
  return std::move(R.Trace);
}

void expectParallelMatchesSequential(const std::vector<TraceEvent> &Trace,
                                     const std::vector<SweepPoint> &Points,
                                     ThreadPool &Pool,
                                     const std::string &Label) {
  const std::vector<CacheStats> Sequential =
      replaySweepPoints(Trace, Points);
  for (uint32_t Workers : WorkerCounts) {
    const std::vector<CacheStats> Parallel =
        replaySweepPoints(Trace, Points, Workers, &Pool);
    ASSERT_EQ(Parallel.size(), Sequential.size());
    for (size_t I = 0; I != Points.size(); ++I)
      EXPECT_EQ(Parallel[I], Sequential[I])
          << Label << ": workers=" << Workers << " point " << I;
  }
}

TEST(ShardedReplay, SixBenchmarksBitIdenticalAcrossShardCounts) {
  ThreadPool Pool(4);
  const std::vector<SweepPoint> Points = mixedPoints();
  for (const Workload &W : paperWorkloads()) {
    const std::vector<TraceEvent> Trace = tracedWorkloadRun(W);
    expectParallelMatchesSequential(Trace, Points, Pool, W.Name);
  }
}

TEST(ShardedReplay, FuzzHintedAndHintStrippedTraces) {
  ThreadPool Pool(4);
  // Beyond the mix: Random and MIN (whose state spans every set) and
  // fully-associative LRU, both views.
  std::vector<SweepPoint> Points = mixedPoints();
  Points.push_back({config(64, 2), CachePolicy::Random, false});
  Points.push_back({config(64, 2), CachePolicy::MIN, false});
  Points.push_back({config(64, 2), CachePolicy::MIN, true});
  Points.push_back({config(8, 8), CachePolicy::LRU, false});
  Points.push_back({config(32, 32), CachePolicy::LRU, false});
  Points.push_back({config(32, 32), CachePolicy::LRU, true});
  for (uint64_t Seed : {3u, 17u, 99u}) {
    const std::vector<TraceEvent> Hinted = hintedTrace(Seed, 30000, 700);
    expectParallelMatchesSequential(Hinted, Points, Pool,
                                    "hinted seed " + std::to_string(Seed));
    // A hint-stripped trace must agree too (and IgnoreHints points
    // then coincide with their hinted twins).
    expectParallelMatchesSequential(strippedCopy(Hinted), Points, Pool,
                                    "stripped seed " +
                                        std::to_string(Seed));
  }
}

TEST(ShardedReplay, StreamingChunkFeedMatchesBatch) {
  ThreadPool Pool(4);
  // No MIN (streaming-compatible set, as the engine's streaming branch
  // requires); stripped generic points share the per-chunk hint-stripped
  // copy across workers.
  std::vector<SweepPoint> Points = mixedPoints();
  Points.push_back({config(8, 8), CachePolicy::LRU, false});
  Points.push_back({config(64, 2), CachePolicy::Random, false});
  Points.push_back({config(64, 2), CachePolicy::LivenessBypass, true});
  const std::vector<TraceEvent> Trace = hintedTrace(21, 50000, 900);
  const std::vector<CacheStats> Sequential =
      replaySweepPoints(Trace, Points);
  for (uint32_t Workers : {2u, 7u}) {
    SweepPointStream Stream(Points, nullptr, /*AllowStackFastPath=*/true,
                            Workers, &Pool);
    Stream.reserve(Trace.size());
    size_t Offset = 0;
    for (size_t ChunkSize : {1ul, 97ul, 4096ul, 29999ul, 30000ul,
                             50000ul}) {
      size_t Count = std::min(ChunkSize, Trace.size() - Offset);
      Stream.feed(Trace.data() + Offset, Count);
      Offset += Count;
    }
    ASSERT_EQ(Offset, Trace.size());
    const std::vector<CacheStats> Parallel = Stream.finish();
    for (size_t I = 0; I != Points.size(); ++I)
      EXPECT_EQ(Parallel[I], Sequential[I])
          << "workers=" << Workers << " point " << I;
  }
}

TEST(ShardedReplay, StackWalkViewsMatchStackSweep) {
  const std::vector<TraceEvent> Trace = hintedTrace(5, 25000, 500);
  const std::vector<uint32_t> Sizes = {2, 4, 8, 16, 64, 256, 1024};
  ThreadPool Pool(4);
  // Both hint views in one point set: the two stack walks replay on
  // different workers.
  std::vector<SweepPoint> Points;
  for (bool IgnoreHints : {false, true})
    for (uint32_t S : Sizes)
      Points.push_back({config(S, S), CachePolicy::LRU, IgnoreHints});
  const std::vector<CacheStats> Got =
      replaySweepPoints(Trace, Points, 3, &Pool);
  for (bool IgnoreHints : {false, true}) {
    const std::vector<CacheStats> Expect =
        sweepLRUStackDistance(Trace, Sizes, IgnoreHints);
    for (size_t I = 0; I != Sizes.size(); ++I)
      EXPECT_EQ(Got[(IgnoreHints ? Sizes.size() : 0) + I], Expect[I])
          << "ignoreHints=" << IgnoreHints << " size " << Sizes[I];
  }
}

/// The engine-level integration: a parallel engine (streaming branch and
/// the materialized MIN branch both) returns the same point stats and
/// base results as the sequential oracle, for every worker request.
TEST(ShardedReplay, EngineShardsBitIdenticalToSequentialOracle) {
  const Workload *W = findWorkload("Queen");
  ASSERT_NE(W, nullptr);
  std::vector<SweepPoint> Streamable = mixedPoints();
  std::vector<SweepPoint> WithMin = mixedPoints();
  WithMin.push_back({config(128, 2), CachePolicy::MIN, false});

  auto runEngine = [&](uint32_t WorkerRequest,
                       const std::vector<SweepPoint> &Points) {
    ThreadPool Pool(4);
    SweepEngine Engine(&Pool);
    Engine.setReplayWorkers(WorkerRequest);
    SimConfig Base;
    Base.Cache = config(128, 2);
    Engine.schedule("exp", "grp", Base, Points,
                    [&](const SimConfig &Sim) {
                      DiagnosticEngine Diags;
                      return compileAndRun(W->Source,
                                           [] {
                                             CompileOptions O;
                                             O.IRGen.ScalarLocalsInMemory =
                                                 true;
                                             return O;
                                           }(),
                                           Sim, Diags);
                    });
    Engine.run();
    std::vector<CacheStats> Stats;
    for (size_t I = 0; I != Points.size(); ++I)
      Stats.push_back(Engine.point("exp", I));
    EXPECT_TRUE(Engine.base("exp").ok());
    return Stats;
  };

  for (const std::vector<SweepPoint> &Points : {Streamable, WithMin}) {
    const std::vector<CacheStats> Oracle = runEngine(1, Points);
    for (uint32_t Request : {0u, 4u, 7u}) {
      const std::vector<CacheStats> Parallel = runEngine(Request, Points);
      ASSERT_EQ(Parallel.size(), Oracle.size());
      for (size_t I = 0; I != Oracle.size(); ++I)
        EXPECT_EQ(Parallel[I], Oracle[I])
            << "workers=" << Request << " point " << I;
    }
  }
}

TEST(ShardedReplay, ResolveShardCount) {
  ThreadPool Pool(3);
  EXPECT_EQ(resolveReplayWorkers(0, Pool), 4u); // Threads + the caller.
  EXPECT_EQ(resolveReplayWorkers(1, Pool), 1u);
  EXPECT_EQ(resolveReplayWorkers(9, Pool), 9u);
  // The deprecated spellings forward unchanged.
  EXPECT_EQ(resolveShardCount(0, Pool), 4u);
  const std::vector<TraceEvent> Trace = hintedTrace(8, 4000, 300);
  const std::vector<SweepPoint> Points = mixedPoints();
  EXPECT_EQ(replaySweepPointsSharded(Trace, Points, 3, &Pool),
            replaySweepPoints(Trace, Points));
}

} // namespace

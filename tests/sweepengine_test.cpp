//===- sweepengine_test.cpp - Sweep-engine equivalence tests -------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// The sweep engine's whole contract is bit-identity: every stats-only
// shortcut (lock-step multi-replay, the two-way LRU kernel, the
// hole-extended stack-distance pass, hint-stripped conventional replay)
// must reproduce the exact counters of the slow path it replaces. These
// tests pin that down against CacheModel, live simulations and full
// conventional-scheme simulations.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/SweepEngine.h"

#include "urcm/driver/Driver.h"
#include "urcm/sim/CacheModel.h"
#include "urcm/sim/Simulator.h"
#include "urcm/sim/TraceStream.h"
#include "urcm/support/RNG.h"
#include "urcm/support/Telemetry.h"
#include "urcm/support/ThreadPool.h"
#include "urcm/workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <iterator>
#include <thread>

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

/// The policies the packed one-word kernel serves (all but MIN).
const CachePolicy PackedPolicies[] = {
    CachePolicy::LRU,      CachePolicy::FIFO,  CachePolicy::Random,
    CachePolicy::TreePLRU, CachePolicy::SRRIP, CachePolicy::LivenessBypass};

/// A fuzzed trace for the packed kernel. Besides a hot window and random
/// addresses it touches the extremes 0 and 0xFFFFFFFF, carries RefIds
/// from a small pool (MemRefInfo::NoRefId and an id past a 16-row
/// attribution table included), and has streaming references whose
/// lines are never reused, so LivenessBypass's predictor trains.
std::vector<TraceEvent> fuzzedTrace(uint64_t Seed, size_t N,
                                    uint32_t AddressRange) {
  SplitMix64 Rng(Seed);
  std::vector<TraceEvent> Trace;
  Trace.reserve(N);
  uint32_t Hot = 0;
  uint32_t Stream = 0;
  for (size_t I = 0; I != N; ++I) {
    const uint64_t Roll = Rng.nextBelow(100);
    TraceEvent E;
    if (Roll < 45) {
      E.Addr = static_cast<uint32_t>((Hot + Rng.nextBelow(8)) % AddressRange);
      E.RefId = static_cast<uint16_t>(4 + Rng.nextBelow(8));
    } else if (Roll < 65) {
      E.Addr = AddressRange + Stream++; // Never reused.
      E.RefId = static_cast<uint16_t>(Rng.nextBelow(4));
    } else if (Roll < 75) {
      E.Addr = static_cast<uint32_t>(Rng.nextBelow(AddressRange));
      E.RefId = MemRefInfo::NoRefId;
    } else if (Roll < 80) {
      E.Addr = 0;
      E.RefId = 40;
    } else if (Roll < 85) {
      E.Addr = 0xFFFFFFFFu - static_cast<uint32_t>(Rng.nextBelow(2) * 64);
      E.RefId = 12;
    } else {
      E.Addr = static_cast<uint32_t>(Rng.nextBelow(AddressRange));
      E.RefId = static_cast<uint16_t>(Rng.nextBelow(16));
    }
    if (Roll == 99)
      Hot = static_cast<uint32_t>(Rng.nextBelow(AddressRange));
    E.IsWrite = Rng.nextBelow(4) == 0;
    E.Info.Bypass = Rng.nextBelow(10) == 0;
    E.Info.LastRef = !E.Info.Bypass && Rng.nextBelow(13) == 0;
    Trace.push_back(E);
  }
  return Trace;
}

std::vector<TraceEvent> stripped(std::vector<TraceEvent> Trace) {
  for (TraceEvent &E : Trace) {
    E.Info.Bypass = false;
    E.Info.LastRef = false;
  }
  return Trace;
}

/// Per-point ground truth for a sweep point: single-config replay of
/// the (possibly hint-stripped) trace.
CacheStats groundTruth(const std::vector<TraceEvent> &Trace,
                       const SweepPoint &P) {
  return replayTrace(P.IgnoreHints ? stripped(Trace) : Trace, P.Config,
                     P.Policy);
}

SimResult runWorkload(const std::string &Name, const CompileOptions &O,
                      const SimConfig &Sim) {
  const Workload *W = findWorkload(Name);
  EXPECT_NE(W, nullptr);
  DiagnosticEngine Diags;
  SimResult R = compileAndRun(W->Source, O, Sim, Diags);
  EXPECT_TRUE(R.ok()) << R.Error;
  return R;
}

TEST(ReplayMulti, MatchesPerPointReplayAcrossConfigurations) {
  std::vector<TraceEvent> Trace = hintedTrace(7, 20000, 600);
  std::vector<SweepPoint> Points = {
      // Two-way LRU kernel candidates, hinted and stripped.
      {config(128, 2), CachePolicy::LRU, false},
      {config(16, 2), CachePolicy::LRU, false},
      {config(16, 2), CachePolicy::LRU, true},
      {config(1024, 2), CachePolicy::LRU, true},
      // General path: other associativities, multi-word lines,
      // write-through, non-LRU policies, Belady MIN.
      {config(64, 4), CachePolicy::LRU, false},
      {config(32, 2, 2), CachePolicy::LRU, false},
      {config(32, 2, 4), CachePolicy::LRU, true},
      {config(64, 2), CachePolicy::FIFO, false},
      {config(64, 2), CachePolicy::Random, false},
      {config(64, 2), CachePolicy::MIN, false},
      {config(64, 2), CachePolicy::MIN, true},
      {config(8, 8), CachePolicy::LRU, false},
  };
  SweepPoint WriteThrough{config(64, 2), CachePolicy::LRU, false};
  WriteThrough.Config.Write = WritePolicy::WriteThrough;
  Points.push_back(WriteThrough);

  std::vector<CacheStats> Got = replayTraceMulti(Trace, Points);
  ASSERT_EQ(Got.size(), Points.size());
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Got[I], groundTruth(Trace, Points[I])) << "point " << I;
}

TEST(ReplayMulti, TwoWayKernelOddTrafficPatterns) {
  // Dead-tag and bypass interplay at tiny sizes (constant eviction
  // pressure) and at sizes big enough that nothing evicts, on the
  // packed one-word kernel under every policy it serves.
  std::vector<TraceEvent> Trace = hintedTrace(21, 30000, 4000);
  std::vector<SweepPoint> Points;
  for (CachePolicy Policy : PackedPolicies)
    for (uint32_t Lines : {2u, 4u, 16u, 4096u})
      for (bool Ignore : {false, true})
        Points.push_back({config(Lines, 2), Policy, Ignore});
  std::vector<CacheStats> Got = replayTraceMulti(Trace, Points);
  for (size_t I = 0; I != Points.size(); ++I) {
    EXPECT_TRUE(packedReplayEligible(Points[I])) << "point " << I;
    EXPECT_EQ(Got[I], groundTruth(Trace, Points[I])) << "point " << I;
  }
}

//===----------------------------------------------------------------------===//
// The packed one-word kernel against its oracle, CacheModel.
//===----------------------------------------------------------------------===//

/// Every shape the packed kernel serves, at \p Sets sets.
std::vector<SweepPoint> packedPoints(uint32_t Sets) {
  std::vector<SweepPoint> Points;
  for (CachePolicy Policy : PackedPolicies)
    for (uint32_t Assoc : {1u, 2u, 4u, 8u})
      for (bool Ignore : {false, true}) {
        SweepPoint P{config(Sets * Assoc, Assoc), Policy, Ignore};
        P.Config.Policy = Policy;
        P.Config.Seed = 0x5eed + Sets + Assoc; // Distinct Random streams.
        Points.push_back(P);
      }
  return Points;
}

/// CacheModel's attribution table for \p P, fed the (possibly
/// hint-stripped) trace: the oracle for the kernel's tables.
RefAttribution oracleAttribution(const std::vector<TraceEvent> &Trace,
                                 const SweepPoint &P, CacheStats &Stats) {
  RefAttribution Table(P.AttributionRefs);
  CacheModel Model(P.Config, P.Policy);
  Model.setAttribution(&Table);
  const std::vector<TraceEvent> Fed = P.IgnoreHints ? stripped(Trace) : Trace;
  Model.feed(Fed.data(), Fed.size(), 0);
  Stats = Model.finish();
  return Table;
}

void expectSameTables(const RefAttribution &Got, const RefAttribution &Want,
                      const std::string &What) {
  ASSERT_EQ(Got.numRefs(), Want.numRefs()) << What;
  for (uint32_t R = 0; R <= Want.numRefs(); ++R)
    EXPECT_EQ(Got.row(R), Want.row(R)) << What << " row " << R;
}

TEST(PackedKernel, MatchesCacheModelOnEveryPolicyAndShape) {
  std::vector<TraceEvent> Trace = fuzzedTrace(31, 20000, 900);
  for (uint32_t Sets : {1u, 2u, 16u, 64u}) {
    std::vector<SweepPoint> Points = packedPoints(Sets);
    std::vector<CacheStats> Got = replayTraceMulti(Trace, Points);
    for (size_t I = 0; I != Points.size(); ++I) {
      const SweepPoint &P = Points[I];
      ASSERT_TRUE(packedReplayEligible(P));
      EXPECT_EQ(Got[I], groundTruth(Trace, P))
          << cachePolicyName(P.Policy) << " sets=" << Sets
          << " assoc=" << P.Config.Assoc << " ignore=" << P.IgnoreHints;
    }
  }
}

TEST(PackedKernel, LivenessPredictorEngagesOnTheFuzzedTrace) {
  // The fuzzed trace's streaming references must train the predictor,
  // or the LivenessBypass comparisons above would only test LRU.
  std::vector<TraceEvent> Trace = fuzzedTrace(31, 20000, 900);
  SweepPoint P{config(32, 2), CachePolicy::LivenessBypass, true};
  SweepPoint L{config(32, 2), CachePolicy::LRU, true};
  std::vector<CacheStats> Got = replayTraceMulti(Trace, {P, L});
  EXPECT_GT(Got[0].BypassReads + Got[0].BypassWrites, 100u);
  EXPECT_EQ(Got[1].BypassReads + Got[1].BypassWrites, 0u);
}

TEST(PackedKernel, AttributionTablesMatchCacheModelRowByRow) {
  std::vector<TraceEvent> Trace = fuzzedTrace(37, 20000, 900);
  std::vector<SweepPoint> Points = packedPoints(16);
  for (SweepPoint &P : Points)
    P.AttributionRefs = 16; // Ref 40 and NoRefId land in the overflow row.
  SweepPointStream Stream(Points);
  Stream.feed(Trace.data(), Trace.size());
  std::vector<CacheStats> Got = Stream.finish();
  for (size_t I = 0; I != Points.size(); ++I) {
    const SweepPoint &P = Points[I];
    const std::string What = std::string(cachePolicyName(P.Policy)) +
                             " assoc=" + std::to_string(P.Config.Assoc) +
                             " ignore=" + std::to_string(P.IgnoreHints);
    CacheStats Want;
    RefAttribution Table = oracleAttribution(Trace, P, Want);
    EXPECT_EQ(Got[I], Want) << What;
    expectSameTables(Stream.takeAttribution(I), Table, What);
  }
}

TEST(PackedKernel, ChunkSizesDoNotChangeCountersOrTables) {
  std::vector<TraceEvent> Trace = fuzzedTrace(41, 12000, 700);
  std::vector<SweepPoint> Points;
  for (const SweepPoint &P : packedPoints(8))
    if (P.Config.Assoc == 2 || P.Config.Assoc == 8)
      Points.push_back(P);
  for (size_t I = 0; I != Points.size(); I += 3)
    Points[I].AttributionRefs = 16; // Attribution on and off in one batch.
  std::vector<CacheStats> Want(Points.size());
  std::vector<RefAttribution> WantTables(Points.size());
  for (size_t I = 0; I != Points.size(); ++I) {
    if (Points[I].wantsAttribution())
      WantTables[I] = oracleAttribution(Trace, Points[I], Want[I]);
    else
      Want[I] = groundTruth(Trace, Points[I]);
  }
  for (size_t ChunkSize : {size_t(1), size_t(7), size_t(4096), Trace.size()}) {
    SweepPointStream Stream(Points);
    for (size_t At = 0; At < Trace.size(); At += ChunkSize)
      Stream.feed(Trace.data() + At, std::min(ChunkSize, Trace.size() - At));
    EXPECT_EQ(Stream.finish(), Want) << "chunk size " << ChunkSize;
    for (size_t I = 0; I != Points.size(); ++I)
      if (Points[I].wantsAttribution())
        expectSameTables(Stream.takeAttribution(I), WantTables[I],
                         "chunk size " + std::to_string(ChunkSize) +
                             " point " + std::to_string(I));
  }
}

TEST(PackedKernel, RoutingKeepsOtherPointsOnCacheModel) {
  SweepPoint MIN{config(128, 2), CachePolicy::MIN, false};
  SweepPoint MultiWord{config(32, 2, 4), CachePolicy::LRU, false};
  SweepPoint WriteThrough{config(128, 2), CachePolicy::FIFO, false};
  WriteThrough.Config.Write = WritePolicy::WriteThrough;
  SweepPoint OddSets{config(96, 2), CachePolicy::SRRIP, false}; // 48 sets.
  SweepPoint WideAssoc{config(64, 16), CachePolicy::LRU, false};
  SweepPoint OddAssoc{config(96, 3), CachePolicy::Random, false};
  SweepPoint Empty{config(0, 2), CachePolicy::LRU, false};
  std::vector<SweepPoint> Generic = {MIN,      MultiWord, WriteThrough,
                                     OddSets,  WideAssoc, OddAssoc};
  for (const SweepPoint &P : Generic)
    EXPECT_FALSE(packedReplayEligible(P))
        << cachePolicyName(P.Policy) << " " << P.Config.NumLines << "x"
        << P.Config.Assoc << "x" << P.Config.LineWords;
  EXPECT_FALSE(packedReplayEligible(Empty));
  for (uint32_t Assoc : {1u, 2u, 4u, 8u})
    for (CachePolicy Policy : PackedPolicies)
      EXPECT_TRUE(packedReplayEligible({config(16 * Assoc, Assoc), Policy}));

  // The CacheModel points honour IgnoreHints without a stripped copy.
  std::vector<TraceEvent> Trace = fuzzedTrace(43, 15000, 600);
  std::vector<SweepPoint> Points;
  for (SweepPoint P : Generic)
    for (bool Ignore : {false, true}) {
      P.IgnoreHints = Ignore;
      Points.push_back(P);
    }
  std::vector<CacheStats> Got = replayTraceMulti(Trace, Points);
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Got[I], groundTruth(Trace, Points[I])) << "point " << I;
}

//===----------------------------------------------------------------------===//
// Replay conservation laws.
//===----------------------------------------------------------------------===//

TEST(ReplayConservation, LawsHoldAcrossKernelsPoliciesAndConfigs) {
  std::vector<TraceEvent> Trace = fuzzedTrace(47, 15000, 600);
  std::vector<SweepPoint> Points = packedPoints(16);
  for (CachePolicy Policy :
       {CachePolicy::LRU, CachePolicy::FIFO, CachePolicy::Random,
        CachePolicy::MIN, CachePolicy::TreePLRU, CachePolicy::SRRIP,
        CachePolicy::LivenessBypass})
    for (bool Ignore : {false, true}) {
      Points.push_back({config(32, 2, 4), Policy, Ignore});
      SweepPoint WT{config(64, 4), Policy, Ignore};
      WT.Config.Write = WritePolicy::WriteThrough;
      Points.push_back(WT);
      Points.push_back({config(96, 2), Policy, Ignore});
    }
  SweepPointStream Stream(Points, &Trace);
  Stream.feed(Trace.data(), Trace.size());
  std::vector<CacheStats> Got = Stream.finish();
  for (size_t I = 0; I != Points.size(); ++I) {
    EXPECT_EQ(Stream.violatedLaw(I), nullptr) << "point " << I;
    EXPECT_EQ(replayConservationViolation(Got[I], Points[I].Config), nullptr)
        << "point " << I;
  }
  // And the stack walk's counters.
  const std::vector<uint32_t> Sizes = {1, 8, 100};
  for (bool Ignore : {false, true})
    for (const CacheStats &S : sweepLRUStackDistance(Trace, Sizes, Ignore))
      EXPECT_EQ(replayConservationViolation(S, config(8, 8)), nullptr);
}

TEST(ReplayConservation, BrokenCountersNameTheLaw) {
  CacheStats Ok;
  Ok.Reads = 10;
  Ok.Writes = 5;
  Ok.ReadHits = 6;
  Ok.WriteHits = 2;
  Ok.Fills = 7;
  Ok.Evictions = 4;
  Ok.WriteBacks = 3;
  Ok.WriteBackWords = 3;
  Ok.DeadFrees = 2;
  Ok.DeadWriteBacksAvoided = 1;
  const CacheConfig WB = config(64, 2);
  EXPECT_EQ(replayConservationViolation(Ok, WB), nullptr);
  auto Law = [&](auto Break, const CacheConfig &C = config(64, 2)) {
    CacheStats S = Ok;
    Break(S);
    const char *L = replayConservationViolation(S, C);
    return std::string(L ? L : "");
  };
  EXPECT_EQ(Law([](CacheStats &S) { S.ReadHits = 11; }), "ReadHits <= Reads");
  EXPECT_EQ(Law([](CacheStats &S) { S.WriteHits = 6; }),
            "WriteHits <= Writes");
  EXPECT_EQ(Law([](CacheStats &S) { S.Fills = 6; }),
            "Fills == misses (write-back)");
  CacheConfig WT = WB;
  WT.Write = WritePolicy::WriteThrough;
  EXPECT_EQ(Law([](CacheStats &S) { S.Fills = 6; }, WT), "");
  EXPECT_EQ(Law([](CacheStats &S) { S.WriteBacks = S.WriteBackWords = 5; }),
            "WriteBacks <= Evictions");
  EXPECT_EQ(Law([](CacheStats &S) { S.WriteBackWords = 3; },
                config(64, 2, 4)),
            "WriteBackWords == WriteBacks * LineWords");
  EXPECT_EQ(Law([](CacheStats &S) { S.DeadWriteBacksAvoided = 3; }),
            "DeadWriteBacksAvoided <= DeadFrees");
}

TEST(StackDistance, MatchesReplayAtEveryFullyAssociativeSize) {
  std::vector<TraceEvent> Trace = hintedTrace(11, 20000, 500);
  std::vector<uint32_t> Sizes = {1, 2, 3, 8, 32, 100, 512};
  for (bool Ignore : {false, true}) {
    std::vector<CacheStats> Got =
        sweepLRUStackDistance(Trace, Sizes, Ignore);
    ASSERT_EQ(Got.size(), Sizes.size());
    for (size_t I = 0; I != Sizes.size(); ++I) {
      SweepPoint P{config(Sizes[I], Sizes[I]), CachePolicy::LRU, Ignore};
      EXPECT_EQ(Got[I], groundTruth(Trace, P))
          << "size " << Sizes[I] << " ignore=" << Ignore;
    }
  }
}

TEST(StackDistance, ReplaySweepPointsDispatchesToIt) {
  std::vector<TraceEvent> Trace = hintedTrace(13, 15000, 300);
  std::vector<SweepPoint> Points;
  for (uint32_t S : {4u, 16u, 64u})
    Points.push_back({config(S, S), CachePolicy::LRU, false});
  Points.push_back({config(32, 32), CachePolicy::LRU, true});
  ASSERT_TRUE(std::all_of(Points.begin(), Points.end(),
                          stackDistanceEligible));
  std::vector<CacheStats> Got = replaySweepPoints(Trace, Points);
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Got[I], groundTruth(Trace, Points[I])) << "point " << I;
}

TEST(ReplayEquivalence, WorkloadTraceMatchesLiveSimulation) {
  // The traced base run's own counters must equal a replay of its
  // trace — this is what lets the engine reuse base stats for the
  // matching sweep point.
  CompileOptions O;
  O.IRGen.ScalarLocalsInMemory = true;
  SimConfig Sim;
  Sim.Cache = config(128, 2);
  Sim.RecordTrace = true;
  SimResult R = runWorkload("Queen", O, Sim);
  EXPECT_EQ(R.Cache, replayTrace(R.Trace, Sim.Cache, CachePolicy::LRU));

  // And every sweep geometry replayed from this trace matches a
  // dedicated per-point replay.
  std::vector<SweepPoint> Points;
  for (uint32_t Lines : {16u, 64u, 256u, 1024u})
    for (bool Ignore : {false, true})
      Points.push_back({config(Lines, 2), CachePolicy::LRU, Ignore});
  std::vector<CacheStats> Got = replayTraceMulti(R.Trace, Points);
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Got[I], groundTruth(R.Trace, Points[I])) << "point " << I;
}

TEST(ReplayEquivalence, HintStrippedReplayMatchesConventionalRun) {
  // The derived-conventional trick: the unified pass only flips hint
  // bits on an identical instruction stream, so replaying the unified
  // trace with hints ignored must reproduce the conventional scheme's
  // live cache counters exactly — at the traced geometry and at others.
  // urcm_report's era-baseline row rests on this at the paper geometry
  // (it is the Figure-5 hint-stripped LRU point, not a simulation of
  // its own), so every paper workload is checked, against a live
  // paranoid conventional run whose coherence check the row used to
  // carry. The engine streams each unified trace into the replay, so
  // none is materialized.
  CompileOptions Uni;
  Uni.IRGen.ScalarLocalsInMemory = true;
  Uni.Scheme = UnifiedOptions::unified();
  CompileOptions Conv = Uni;
  Conv.Scheme = UnifiedOptions::conventional();
  const uint32_t Lines[] = {128, 16};
  auto Producer = [](const Workload &W, const CompileOptions &O) {
    return [&W, O](const SimConfig &Sim) {
      DiagnosticEngine Diags;
      return compileAndRun(W.Source, O, Sim, Diags);
    };
  };
  SweepEngine Engine;
  for (const Workload &W : paperWorkloads()) {
    SimConfig Base;
    Base.Cache = config(Lines[0], 2);
    ASSERT_TRUE(Base.Paranoid);
    std::vector<SweepPoint> Stripped;
    for (uint32_t N : Lines) {
      Stripped.push_back(
          {config(N, 2), CachePolicy::LRU, /*IgnoreHints=*/true});
      SimConfig Sim = Base;
      Sim.Cache = config(N, 2);
      Engine.schedule(W.Name + "/conventional/" + std::to_string(N), W.Name,
                      Sim, {}, Producer(W, Conv));
    }
    Engine.schedule(W.Name + "/unified", W.Name, Base, Stripped,
                    Producer(W, Uni));
  }
  Engine.run();
  for (const Workload &W : paperWorkloads()) {
    const SimResult &U = Engine.base(W.Name + "/unified");
    ASSERT_TRUE(U.ok()) << W.Name << ": " << U.Error;
    EXPECT_EQ(U.CoherenceViolations, 0u) << W.Name;
    for (size_t I = 0; I != std::size(Lines); ++I) {
      const std::string What = W.Name + " lines " + std::to_string(Lines[I]);
      const SimResult &C =
          Engine.base(W.Name + "/conventional/" + std::to_string(Lines[I]));
      ASSERT_TRUE(C.ok()) << What << ": " << C.Error;
      EXPECT_EQ(C.CoherenceViolations, 0u) << What;
      EXPECT_EQ(C.Cache, Engine.point(W.Name + "/unified", I)) << What;
      EXPECT_EQ(C.Output, U.Output) << What;
      EXPECT_EQ(C.Steps, U.Steps) << What;
    }
  }
}

/// Enables telemetry from a clean slate for one test.
struct TelemetryGuard {
  TelemetryGuard() {
    telemetry::setEnabled(true);
    telemetry::reset();
  }
  ~TelemetryGuard() {
    telemetry::setEnabled(false);
    telemetry::reset();
  }
};

/// The current value of telemetry counter \p Name (0 if never bumped).
uint64_t counterValue(const char *Name) {
  std::string JSON = telemetry::snapshotJSON();
  std::string Key = std::string("\"") + Name + "\": ";
  size_t At = JSON.find(Key);
  if (At == std::string::npos)
    return 0;
  return std::strtoull(JSON.c_str() + At + Key.size(), nullptr, 10);
}

TEST(Engine, EquivalentPointsReplayOnce) {
  // TreePLRU at two ways and one-word lines is LRU
  // (canonicalReplayPolicy): such points share the base counters or one
  // replay. The 4-way and 4-word-line TreePLRU points are not LRU and
  // replay on their own; so do the attributed points and the MIN points.
  TelemetryGuard Guard;
  CompileOptions O;
  O.IRGen.ScalarLocalsInMemory = true;
  O.Scheme = UnifiedOptions::unified();
  DiagnosticEngine Diags;
  CompileResult Compiled =
      compileProgram(findWorkload("Queen")->Source, O, Diags);
  ASSERT_TRUE(Compiled.Ok) << Diags.str();
  auto Prog = std::make_shared<MachineProgram>(std::move(Compiled.Program));
  auto Producer = [Prog](const SimConfig &Sim) {
    Simulator S(Sim);
    return S.run(*Prog);
  };
  auto Point = [](CacheConfig C, CachePolicy Policy, bool IgnoreHints) {
    C.Policy = Policy;
    return SweepPoint{C, Policy, IgnoreHints};
  };
  const CachePolicy LRU = CachePolicy::LRU, PLRU = CachePolicy::TreePLRU;
  std::vector<SweepPoint> Points = {
      Point(config(128, 2), LRU, false),     // the base run's counters
      Point(config(128, 2), PLRU, false),    // the base run's counters
      Point(config(128, 2), LRU, true),      // replayed
      Point(config(128, 2), PLRU, true),     // shares point 2's replay
      Point(config(64, 4), LRU, false),      // replayed
      Point(config(64, 4), PLRU, false),     // replayed
      Point(config(32, 2, 4), LRU, false),   // replayed
      Point(config(32, 2, 4), PLRU, false),  // replayed
      Point(config(128, 2), PLRU, false),    // replayed, attributed
      Point(config(128, 2), PLRU, true),     // replayed, attributed
  };
  const size_t Attributed[] = {Points.size() - 2, Points.size() - 1};
  for (size_t I : Attributed)
    Points[I].AttributionRefs = static_cast<uint32_t>(Prog->RefTable.size());
  std::vector<SweepPoint> MINPoints(
      2, Point(config(128, 2), CachePolicy::MIN, true)); // both replayed
  SimConfig Base;
  Base.Cache = config(128, 2);
  SweepEngine Engine;
  Engine.schedule("queen", "Queen", Base, Points, Producer);
  Engine.schedule("queen/min", "Queen", Base, MINPoints, Producer);
  Engine.run();
  ASSERT_TRUE(Engine.base("queen").ok()) << Engine.base("queen").Error;
  ASSERT_TRUE(Engine.base("queen/min").ok());

  const uint64_t Scheduled = Points.size() + MINPoints.size();
  EXPECT_EQ(counterValue("sweep.points-reused"), 3u);
  EXPECT_EQ(counterValue("sweep.points-replayed"), Scheduled - 3);
  EXPECT_EQ(counterValue("check.replay.points"), Scheduled - 3);
  EXPECT_EQ(counterValue("sweep.points-reused") +
                counterValue("sweep.points-replayed"),
            Scheduled);
  EXPECT_EQ(counterValue("sim.policy.tree-plru"), 6u);

  SimConfig Traced = Base;
  Traced.RecordTrace = true;
  Simulator S(Traced);
  SimResult Fresh = S.run(*Prog);
  ASSERT_TRUE(Fresh.ok());
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Engine.point("queen", I), groundTruth(Fresh.Trace, Points[I]))
        << "point " << I;
  for (size_t I = 0; I != MINPoints.size(); ++I)
    EXPECT_EQ(Engine.point("queen/min", I),
              groundTruth(Fresh.Trace, MINPoints[I]))
        << "MIN point " << I;
  for (size_t I : Attributed) {
    CacheStats Want;
    RefAttribution Table = oracleAttribution(Fresh.Trace, Points[I], Want);
    EXPECT_EQ(Engine.point("queen", I), Want) << "point " << I;
    expectSameTables(Engine.attribution("queen", I), Table,
                     "attributed point " + std::to_string(I));
  }
}

TEST(Engine, CompileOnceServesEveryPointAndReusesBase) {
  ThreadPool Pool(2);
  SweepEngine Engine(&Pool);
  std::atomic<int> Runs{0};

  CompileOptions O;
  O.Scheme = UnifiedOptions::unified();
  SimConfig Base;
  Base.Cache = config(128, 2);
  std::vector<SweepPoint> Points = {
      {config(16, 2), CachePolicy::LRU, false},
      {config(128, 2), CachePolicy::LRU, false}, // == base geometry
      {config(16, 2), CachePolicy::LRU, true},
  };
  auto Producer = [&](const SimConfig &Sim) {
    ++Runs;
    // The engine must capture the trace one way or the other: streamed
    // through a sink (no MIN points here) or materialized.
    EXPECT_TRUE(Sim.Sink != nullptr || Sim.RecordTrace);
    const Workload *W = findWorkload("Queen");
    DiagnosticEngine Diags;
    return compileAndRun(W->Source, O, Sim, Diags);
  };
  Engine.schedule("queen", "Queen", Base, Points, Producer);
  Engine.schedule("queen", "Queen", Base, Points, Producer); // no-op
  Engine.run();

  EXPECT_EQ(Runs.load(), 1);
  ASSERT_TRUE(Engine.done("queen"));
  const SimResult &BaseRun = Engine.base("queen");
  EXPECT_TRUE(BaseRun.ok());
  // The trace is freed once the points are served.
  EXPECT_TRUE(BaseRun.Trace.empty());
  // The point matching the base geometry is the base run's own stats.
  EXPECT_EQ(Engine.point("queen", 1), BaseRun.Cache);
  // Ground truth for the others from an independent traced run.
  SimConfig Traced = Base;
  Traced.RecordTrace = true;
  SimResult Fresh = runWorkload("Queen", O, Traced);
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Engine.point("queen", I), groundTruth(Fresh.Trace, Points[I]))
        << "point " << I;

  // Scheduling after run() still works and runs exactly once more.
  Engine.schedule("queen2", "Queen", Base, Points, Producer);
  Engine.run();
  EXPECT_EQ(Runs.load(), 2);
  EXPECT_EQ(Engine.point("queen2", 0), Engine.point("queen", 0));
}

TEST(Engine, InvalidCacheConfigurationFailsTheExperiment) {
  // Every geometry validateCacheConfig rejects, as the base run's cache
  // or as a sweep point, fails the experiment with a diagnostic before
  // anything is simulated or replayed.
  CacheConfig Invalid[3] = {config(128, 3), config(0, 2), config(128, 2)};
  Invalid[2].LineWords = 8192; // Over the 4096-word line limit.
  std::atomic<int> Runs{0};
  auto Producer = [&](const SimConfig &Sim) {
    ++Runs;
    return runWorkload("Sieve", CompileOptions(), Sim);
  };
  for (const CacheConfig &Bad : Invalid) {
    SweepEngine Engine;
    SimConfig BadBase;
    BadBase.Cache = Bad;
    Engine.schedule("base", "g", BadBase,
                    {{config(16, 2), CachePolicy::LRU, false}}, Producer);
    SimConfig Base;
    Engine.schedule("point", "g", Base,
                    {{config(16, 2), CachePolicy::LRU, false},
                     {Bad, CachePolicy::LRU, false}},
                    Producer);
    Engine.run();
    for (const char *Key : {"base", "point"}) {
      ASSERT_TRUE(Engine.done(Key));
      EXPECT_FALSE(Engine.base(Key).ok()) << Key;
      EXPECT_EQ(Engine.base(Key).Error.rfind("invalid cache configuration: ",
                                             0),
                0u)
          << Engine.base(Key).Error;
    }
    EXPECT_NE(Engine.base("point").Error.find("sweep point 1"),
              std::string::npos)
        << Engine.base("point").Error;
  }
  // A replay-only policy is a fine sweep point but no live base.
  SweepEngine Engine;
  SimConfig MinBase;
  MinBase.Cache.Policy = CachePolicy::MIN;
  Engine.schedule("min", "g", MinBase, {}, Producer);
  Engine.run();
  EXPECT_NE(Engine.base("min").Error.find("replay-only"), std::string::npos)
      << Engine.base("min").Error;
  EXPECT_EQ(Runs.load(), 0);
}

TEST(Engine, ParallelExecutionIsDeterministic) {
  // The same experiment set run serially and across a pool must
  // produce identical counters (Random-policy replays are seeded per
  // point, so thread scheduling cannot leak in).
  CompileOptions O;
  O.Scheme = UnifiedOptions::unified();
  auto Schedule = [&](SweepEngine &Engine) {
    for (const char *Name : {"Queen", "Sieve"}) {
      SimConfig Base;
      Base.Cache = config(128, 2);
      std::vector<SweepPoint> Points = {
          {config(16, 2), CachePolicy::LRU, false},
          {config(64, 2), CachePolicy::Random, false},
          {config(64, 2), CachePolicy::MIN, true},
      };
      Engine.schedule(Name, Name, Base, Points,
                      [Name, O](const SimConfig &Sim) {
                        const Workload *W = findWorkload(Name);
                        DiagnosticEngine Diags;
                        return compileAndRun(W->Source, O, Sim, Diags);
                      });
    }
  };
  ThreadPool Serial(1), Wide(4);
  SweepEngine A(&Serial), B(&Wide);
  Schedule(A);
  Schedule(B);
  A.run();
  B.run();
  for (const char *Name : {"Queen", "Sieve"}) {
    EXPECT_EQ(A.base(Name).Cache, B.base(Name).Cache);
    for (size_t I = 0; I != 3; ++I)
      EXPECT_EQ(A.point(Name, I), B.point(Name, I)) << Name << " " << I;
  }
}

TEST(Engine, TraceReserveHintDoesNotChangeResults) {
  CompileOptions O;
  SimConfig Sim;
  Sim.Cache = config(128, 2);
  Sim.RecordTrace = true;
  SimResult Plain = runWorkload("Sieve", O, Sim);
  Sim.TraceSizeHint = 1 << 20;
  SimResult Hinted = runWorkload("Sieve", O, Sim);
  EXPECT_EQ(Plain.Cache, Hinted.Cache);
  EXPECT_EQ(Plain.Output, Hinted.Output);
  EXPECT_EQ(Plain.Trace.size(), Hinted.Trace.size());
  EXPECT_GE(Hinted.Trace.capacity(), size_t(1) << 20);
}

//===----------------------------------------------------------------------===//
// Repeat-filtered stripped replay: every filtered point must equal the
// same point replayed alone (no filter) and CacheModel, field for field.
//===----------------------------------------------------------------------===//

/// The policies whose stripped points replay over a repeat filter.
const CachePolicy FilteredPolicies[] = {CachePolicy::LRU, CachePolicy::FIFO,
                                        CachePolicy::Random,
                                        CachePolicy::TreePLRU,
                                        CachePolicy::SRRIP};

/// Every filtered policy at each of \p Assocs, all at \p Sets sets and
/// hint-stripped, each Random point on its own seed.
std::vector<SweepPoint> filteredPoints(uint32_t Sets,
                                       std::initializer_list<uint32_t> Assocs,
                                       uint64_t Seed) {
  std::vector<SweepPoint> Points;
  for (uint32_t Assoc : Assocs)
    for (CachePolicy Policy : FilteredPolicies) {
      SweepPoint P{config(Sets * Assoc, Assoc), Policy, /*IgnoreHints=*/true};
      P.Config.Seed = Seed + Sets * 16 + Assoc;
      Points.push_back(P);
    }
  return Points;
}

/// CacheModel's counters for \p P, honouring IgnoreHints itself (no
/// stripped copy of a workload trace).
CacheStats modelReplay(const std::vector<TraceEvent> &Trace,
                       const SweepPoint &P) {
  CacheModel Model(P.Config, P.Policy, nullptr, P.IgnoreHints);
  Model.feed(Trace.data(), Trace.size(), 0);
  return Model.finish();
}

/// \p P replayed alone: a filter needs two points to share it.
CacheStats loneReplay(const std::vector<TraceEvent> &Trace,
                      const SweepPoint &P) {
  SweepPointStream Stream({P});
  Stream.feed(Trace.data(), Trace.size());
  return Stream.finish().front();
}

/// Same-address runs that stress the repeat filter. Four runs are open
/// at once and interleave, each of 1-6 accesses to one address: all
/// reads, read-write-read, write-first, or random writes. Addresses
/// take one of 12 tags per set, so runs also conflict in one set and
/// break each other, and SRRIP, Random and tree victims depend on every
/// state change. Hint bits sit on some events; the stripped view must
/// ignore them.
std::vector<TraceEvent> runTrace(uint64_t Seed, size_t N, uint32_t Sets) {
  struct Run {
    uint32_t Addr = 0;
    uint32_t Left = 0;
    uint32_t Kind = 0;
    uint32_t At = 0;
  };
  SplitMix64 Rng(Seed);
  Run Open[4];
  std::vector<TraceEvent> Trace;
  Trace.reserve(N);
  while (Trace.size() != N) {
    Run &R = Open[Rng.nextBelow(4)];
    if (R.Left == 0) {
      R.Addr = static_cast<uint32_t>(Rng.nextBelow(Sets) +
                                     Sets * Rng.nextBelow(12));
      R.Left = static_cast<uint32_t>(1 + Rng.nextBelow(6));
      R.Kind = static_cast<uint32_t>(Rng.nextBelow(4));
      R.At = 0;
    }
    TraceEvent E;
    E.Addr = R.Addr;
    switch (R.Kind) {
    case 0:
      E.IsWrite = false;
      break;
    case 1:
      E.IsWrite = R.At % 2 == 1; // Read, write, read, ...
      break;
    case 2:
      E.IsWrite = R.At == 0;
      break;
    default:
      E.IsWrite = Rng.nextBelow(3) == 0;
    }
    E.RefId = static_cast<uint16_t>(R.Kind);
    E.Info.Bypass = Rng.nextBelow(10) == 0;
    E.Info.LastRef = !E.Info.Bypass && Rng.nextBelow(10) == 0;
    ++R.At;
    --R.Left;
    Trace.push_back(E);
  }
  return Trace;
}

/// Each point of \p Points replayed alone and on CacheModel (on
/// \p Pool), which must agree; the filtered replays are compared with
/// the result.
std::vector<CacheStats> oracleStats(const std::vector<TraceEvent> &Trace,
                                    const std::vector<SweepPoint> &Points,
                                    ThreadPool &Pool) {
  std::vector<CacheStats> Want(Points.size()), Lone(Points.size());
  Pool.parallelFor(2 * Points.size(), [&](size_t J) {
    const size_t I = J / 2;
    if (J % 2)
      Lone[I] = loneReplay(Trace, Points[I]);
    else
      Want[I] = modelReplay(Trace, Points[I]);
  });
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Lone[I], Want[I])
        << cachePolicyName(Points[I].Policy) << " "
        << Points[I].Config.NumLines << "x" << Points[I].Config.Assoc;
  return Want;
}

/// Replays \p Points over \p Trace in \p Chunk-event chunks on
/// \p Workers workers, checks that the filters engaged, and compares
/// each point with \p Want (oracleStats).
void expectFilteredMatchesOracles(const std::vector<TraceEvent> &Trace,
                                  const std::vector<SweepPoint> &Points,
                                  size_t Chunk, uint32_t Workers,
                                  ThreadPool &Pool,
                                  const std::vector<CacheStats> &Want,
                                  const std::string &Label) {
  telemetry::reset();
  SweepPointStream Stream(Points, nullptr, /*AllowStackFastPath=*/true,
                          Workers, &Pool);
  for (size_t At = 0; At < Trace.size(); At += Chunk)
    Stream.feed(Trace.data() + At, std::min(Chunk, Trace.size() - At));
  const std::vector<CacheStats> Got = Stream.finish();
  const std::string What = Label + " chunk " + std::to_string(Chunk) +
                           " workers " + std::to_string(Workers);
  EXPECT_EQ(counterValue("sweep.filter.points"), Points.size()) << What;
  EXPECT_LT(counterValue("sweep.filter.events-kept"),
            counterValue("sweep.filter.events-in"))
      << What;
  for (size_t I = 0; I != Points.size(); ++I) {
    const SweepPoint &P = Points[I];
    const std::string Point = What + " " + cachePolicyName(P.Policy) +
                              " sets " +
                              std::to_string(P.Config.NumLines /
                                             P.Config.Assoc) +
                              " assoc " + std::to_string(P.Config.Assoc);
    EXPECT_EQ(Stream.violatedLaw(I), nullptr) << Point;
    EXPECT_EQ(Got[I], Want[I]) << Point;
  }
}

TEST(RepeatFilter, SyntheticRunsMatchLoneReplayAndCacheModel) {
  // Several set counts in one stream (one filter each), every
  // associativity, runs crossing chunk boundaries (chunks of 1 and 7)
  // and one whole chunk, sequential and parallel.
  TelemetryGuard Guard;
  ThreadPool Pool(4);
  const uint32_t SetCounts[] = {1, 4, 64};
  for (uint64_t Seed : {1u, 2u, 3u}) {
    const uint32_t TraceSets = SetCounts[Seed - 1];
    const std::vector<TraceEvent> Trace = runTrace(Seed, 12000, TraceSets);
    std::vector<SweepPoint> Points;
    for (uint32_t Sets : SetCounts)
      for (const SweepPoint &P : filteredPoints(Sets, {1, 2, 4, 8}, Seed))
        Points.push_back(P);
    const std::vector<CacheStats> Want = oracleStats(Trace, Points, Pool);
    for (size_t Chunk : {size_t(1), size_t(7), size_t(1) << 16})
      for (uint32_t Workers : {1u, 5u})
        expectFilteredMatchesOracles(Trace, Points, Chunk, Workers, Pool,
                                     Want,
                                     "seed " + std::to_string(Seed));
  }
}

TEST(RepeatFilter, StrippedWorkloadTracesMatchLoneReplayAndCacheModel) {
  // The report's hint-stripped points on the six paper workloads'
  // unified traces (Figure 5's geometry, 64 sets), plus a 4-way set.
  TelemetryGuard Guard;
  ThreadPool Pool(4);
  CompileOptions O;
  O.IRGen.ScalarLocalsInMemory = true;
  O.Scheme = UnifiedOptions::unified();
  SimConfig Sim;
  Sim.Cache = config(128, 2);
  Sim.RecordTrace = true;
  const std::vector<SweepPoint> Points = filteredPoints(64, {2, 4}, 7);
  for (const Workload &W : paperWorkloads()) {
    const std::vector<TraceEvent> Trace =
        runWorkload(W.Name, O, Sim).Trace;
    ASSERT_FALSE(Trace.empty()) << W.Name;
    const std::vector<CacheStats> Want = oracleStats(Trace, Points, Pool);
    for (uint32_t Workers : {1u, 5u})
      expectFilteredMatchesOracles(Trace, Points, size_t(1) << 16, Workers,
                                   Pool, Want, W.Name);
  }
}

TEST(RepeatFilter, OnlyStrippedPointsSharingASetCountAreFiltered) {
  // LivenessBypass, attribution, hinted, lone, generic and MIN points
  // replay unfiltered next to the filtered ones, over the batch
  // wrappers' slices.
  TelemetryGuard Guard;
  const std::vector<TraceEvent> Trace = runTrace(9, 150000, 64);
  std::vector<SweepPoint> Points = {
      {config(128, 2), CachePolicy::LRU, true},   // filtered, 64 sets
      {config(64, 1), CachePolicy::FIFO, true},   // filtered, 64 sets
      {config(256, 4), CachePolicy::SRRIP, true}, // filtered, 64 sets
      {config(128, 2), CachePolicy::LivenessBypass, true},
      {config(128, 2), CachePolicy::Random, false},
      {config(128, 2), CachePolicy::Random, true}, // attributed below
      {config(64, 2), CachePolicy::LRU, true},     // alone at 32 sets
      {config(32, 2, 4), CachePolicy::LRU, true},  // generic model
      {config(128, 2), CachePolicy::MIN, true},
  };
  Points[5].AttributionRefs = 8;
  const std::vector<CacheStats> Got = replayTraceMulti(Trace, Points);
  EXPECT_EQ(counterValue("sweep.filter.points"), 3u);
  EXPECT_EQ(counterValue("sweep.filter.events-in"), Trace.size());
  EXPECT_LT(counterValue("sweep.filter.events-kept"), Trace.size());
  EXPECT_EQ(counterValue("check.replay.violations"), 0u);
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Got[I], groundTruth(Trace, Points[I])) << "point " << I;

  // A lone eligible point builds no filter.
  telemetry::reset();
  (void)replaySweepPoints(Trace, {Points[0]});
  EXPECT_EQ(counterValue("sweep.filter.points"), 0u);
  EXPECT_EQ(counterValue("sweep.filter.events-in"), 0u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Streaming pipeline: chunk-fed replay and the producer/consumer stream
// must be bit-identical to the materialize-then-replay path.
//===----------------------------------------------------------------------===//

TEST(Streaming, ChunkedFeedMatchesBatchKernels) {
  std::vector<TraceEvent> Trace = hintedTrace(21, 30000, 700);
  std::vector<SweepPoint> Points = {
      {config(128, 2), CachePolicy::LRU, false},
      {config(16, 2), CachePolicy::LRU, true},
      {config(64, 4), CachePolicy::LRU, false},
      {config(32, 2, 2), CachePolicy::LRU, true},
      {config(64, 2), CachePolicy::FIFO, false},
      {config(8, 8), CachePolicy::LRU, false},
  };
  std::vector<CacheStats> Batch = replaySweepPoints(Trace, Points);
  // Awkward chunk sizes: prime-sized, single-event, and a short tail.
  for (size_t ChunkSize : {1u, 97u, 4096u, 29999u, 30000u, 50000u}) {
    SweepPointStream Stream(Points);
    for (size_t At = 0; At < Trace.size(); At += ChunkSize)
      Stream.feed(Trace.data() + At,
                  std::min(ChunkSize, Trace.size() - At));
    EXPECT_EQ(Stream.finish(), Batch) << "chunk size " << ChunkSize;
  }
}

TEST(Streaming, ChunkedFeedMatchesBatchStackDistance) {
  // All points stack-eligible: the streaming path uses the growable
  // Fenwick trees with no up-front reserve (geometric growth).
  std::vector<TraceEvent> Trace = hintedTrace(22, 30000, 500);
  std::vector<SweepPoint> Points;
  for (uint32_t Lines : {2u, 8u, 32u, 100u, 256u, 1024u}) {
    Points.push_back({config(Lines, Lines), CachePolicy::LRU, false});
    Points.push_back({config(Lines, Lines), CachePolicy::LRU, true});
  }
  ASSERT_TRUE(std::all_of(Points.begin(), Points.end(),
                          stackDistanceEligible));
  std::vector<CacheStats> Batch = replaySweepPoints(Trace, Points);
  for (size_t ChunkSize : {63u, 7000u}) {
    SweepPointStream Stream(Points);
    for (size_t At = 0; At < Trace.size(); At += ChunkSize)
      Stream.feed(Trace.data() + At,
                  std::min(ChunkSize, Trace.size() - At));
    EXPECT_EQ(Stream.finish(), Batch) << "chunk size " << ChunkSize;
  }
  // Per-point ground truth too (not just batch-vs-stream agreement).
  SweepPointStream Stream(Points);
  Stream.feed(Trace.data(), Trace.size());
  std::vector<CacheStats> Out = Stream.finish();
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Out[I], groundTruth(Trace, Points[I])) << "point " << I;
}

TEST(Streaming, StreamTraceMatchesBufferedRun) {
  // streamTrace must deliver exactly the trace RecordTrace would have
  // materialized — same events, same order, same SimResult — across
  // chunk-boundary shapes (including a short final chunk).
  CompileOptions O;
  O.Scheme = UnifiedOptions::unified();
  SimConfig Buffered;
  Buffered.Cache = config(128, 2);
  Buffered.RecordTrace = true;
  SimResult Base = runWorkload("Queen", O, Buffered);
  ASSERT_FALSE(Base.Trace.empty());

  const Workload *W = findWorkload("Queen");
  for (uint32_t ChunkEvents : {7u, 1024u, 1u << 20}) {
    SimConfig Streamed = Buffered;
    Streamed.TraceChunkEvents = ChunkEvents;
    std::vector<TraceEvent> Collected;
    uint64_t Events = 0;
    SimResult R = streamTrace(
        Streamed,
        [&](const SimConfig &Sim) {
          EXPECT_NE(Sim.Sink, nullptr);
          EXPECT_FALSE(Sim.RecordTrace);
          DiagnosticEngine Diags;
          return compileAndRun(W->Source, O, Sim, Diags);
        },
        [&](const TraceEvent *E, size_t N) {
          Collected.insert(Collected.end(), E, E + N);
        },
        /*QueueDepth=*/2, &Events);
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_TRUE(R.Trace.empty()); // Streamed, not materialized.
    EXPECT_EQ(R.Output, Base.Output);
    EXPECT_EQ(R.Steps, Base.Steps);
    EXPECT_EQ(R.Cache, Base.Cache);
    EXPECT_EQ(Events, Base.Trace.size());
    ASSERT_EQ(Collected.size(), Base.Trace.size())
        << "chunk " << ChunkEvents;
    for (size_t I = 0; I != Collected.size(); ++I) {
      ASSERT_EQ(Collected[I].Addr, Base.Trace[I].Addr) << "event " << I;
      ASSERT_EQ(Collected[I].IsWrite, Base.Trace[I].IsWrite)
          << "event " << I;
      ASSERT_EQ(Collected[I].Info.Bypass, Base.Trace[I].Info.Bypass)
          << "event " << I;
      ASSERT_EQ(Collected[I].Info.LastRef, Base.Trace[I].Info.LastRef)
          << "event " << I;
    }
  }
}

TEST(Streaming, ProducerWaitIsBilledToItsOwnSpan) {
  // A one-slot queue and a consumer that sleeps on its first chunks:
  // the producer must block, and every blocking push falls inside a
  // trace.producer-wait span whose time trace.producer-wait-ns counts.
  TelemetryGuard Guard;
  CompileOptions O;
  SimConfig Sim;
  Sim.Cache = config(64, 2);
  Sim.TraceChunkEvents = 64;
  const Workload *W = findWorkload("Queen");
  int Seen = 0;
  SimResult R = streamTrace(
      Sim,
      [&](const SimConfig &Cfg) {
        DiagnosticEngine Diags;
        return compileAndRun(W->Source, O, Cfg, Diags);
      },
      [&](const TraceEvent *, size_t) {
        if (Seen++ < 3)
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
      },
      /*QueueDepth=*/1);
  ASSERT_TRUE(R.ok()) << R.Error;
  const uint64_t Stalls = counterValue("trace.producer-stalls");
  const uint64_t WaitNs = counterValue("trace.producer-wait-ns");
  uint64_t Spans = 0, SpanNs = 0;
  for (const telemetry::PhaseTotals &T : telemetry::phaseTotals())
    if (T.Name == "trace.producer-wait") {
      Spans = T.Count;
      SpanNs = T.TotalNs;
    }
  EXPECT_GE(Stalls, 1u);
  EXPECT_GE(Spans, Stalls);
  EXPECT_GT(WaitNs, 0u);
  EXPECT_LE(WaitNs, SpanNs);
}

TEST(Streaming, ConsumerWaitIsBilledToItsOwnSpan) {
  // A producer that sleeps before simulating: the consumer must find the
  // queue empty, and every such pop falls inside a trace.consumer-wait
  // span whose time trace.consumer-wait-ns counts.
  TelemetryGuard Guard;
  CompileOptions O;
  SimConfig Sim;
  Sim.Cache = config(64, 2);
  Sim.TraceChunkEvents = 64;
  const Workload *W = findWorkload("Queen");
  SimResult R = streamTrace(
      Sim,
      [&](const SimConfig &Cfg) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        DiagnosticEngine Diags;
        return compileAndRun(W->Source, O, Cfg, Diags);
      },
      [&](const TraceEvent *, size_t) {},
      /*QueueDepth=*/4);
  ASSERT_TRUE(R.ok()) << R.Error;
  const uint64_t Stalls = counterValue("trace.consumer-stalls");
  const uint64_t WaitNs = counterValue("trace.consumer-wait-ns");
  uint64_t Spans = 0, SpanNs = 0;
  for (const telemetry::PhaseTotals &T : telemetry::phaseTotals())
    if (T.Name == "trace.consumer-wait") {
      Spans = T.Count;
      SpanNs = T.TotalNs;
    }
  EXPECT_GE(Stalls, 1u);
  EXPECT_GE(Spans, Stalls);
  EXPECT_GT(WaitNs, 0u);
  EXPECT_LE(WaitNs, SpanNs);
}

TEST(Streaming, ConsumerExceptionPropagatesWithoutDeadlock) {
  CompileOptions O;
  SimConfig Sim;
  Sim.Cache = config(64, 2);
  Sim.TraceChunkEvents = 64; // Many chunks with a tiny queue.
  const Workload *W = findWorkload("Queen");
  EXPECT_THROW(
      streamTrace(
          Sim,
          [&](const SimConfig &Cfg) {
            DiagnosticEngine Diags;
            return compileAndRun(W->Source, O, Cfg, Diags);
          },
          [&](const TraceEvent *, size_t) {
            throw std::runtime_error("consumer failed");
          },
          /*QueueDepth=*/1),
      std::runtime_error);
}

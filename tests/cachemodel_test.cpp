//===- cachemodel_test.cpp - Unified cache-model differential tests ------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// The unified CacheModel's contract, pinned here from four directions:
//
//  1. live agreement — for every live-eligible policy (LRU, FIFO,
//     Random, TreePLRU, SRRIP) the live form's counters are
//     bit-identical to replaying the same reference stream, hints
//     included, and on the paper geometry they also equal the
//     independent two-way fast path (TwoWayWB1Cache);
//  2. mode agreement — for every policy, sequential replay, parallel
//     replay at several worker counts, and warm trace-store serving all
//     produce bit-identical CacheStats and attribution tables, over all
//     six paper benchmarks and adversarial fuzz traces;
//  3. policy properties — the TreePLRU tree bits never victimize the
//     most recently touched way (and pointing a way makes it the
//     victim), and SRRIP's aging scan terminates with every RRPV within
//     its 2-bit bound;
//  4. store invariance — the replacement policy and RNG seed are
//     observers of the recorded trace: changing either never changes
//     the content hash (one stored trace serves the whole policy grid),
//     and a warm engine under a different base policy still serves the
//     correct counters without invoking the producer.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/CacheModel.h"

#include "urcm/driver/Driver.h"
#include "urcm/sim/SweepEngine.h"
#include "urcm/sim/TraceStore.h"
#include "urcm/support/RNG.h"
#include "urcm/support/ThreadPool.h"
#include "urcm/workloads/Workloads.h"

#include <atomic>
#include <filesystem>
#include <gtest/gtest.h>
#include <memory>

using namespace urcm;

namespace {

CacheConfig config(uint32_t Lines, uint32_t Assoc,
                   uint32_t LineWords = 1) {
  CacheConfig C;
  C.NumLines = Lines;
  C.Assoc = Assoc;
  C.LineWords = LineWords;
  return C;
}

/// Every policy the unified model implements.
const CachePolicy AllPolicies[] = {
    CachePolicy::LRU,      CachePolicy::FIFO,
    CachePolicy::Random,   CachePolicy::MIN,
    CachePolicy::TreePLRU, CachePolicy::SRRIP,
    CachePolicy::LivenessBypass,
};

/// A deterministic trace with locality, writes, hint bits, and
/// reference ids (the LivenessBypass predictor trains per RefId, so
/// id-free traces would leave it untested).
std::vector<TraceEvent> hintedTrace(uint64_t Seed, size_t N,
                                    uint32_t AddressRange) {
  SplitMix64 Rng(Seed);
  std::vector<TraceEvent> Trace;
  Trace.reserve(N);
  uint32_t Hot = 0;
  uint16_t Ref = 0;
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
    if (Roll < 70)
      Ref = static_cast<uint16_t>((Ref + 1) % 200);
    else if (Roll < 85)
      Ref = static_cast<uint16_t>(Rng.nextBelow(200));
    E.RefId = Roll < 95 ? Ref : MemRefInfo::NoRefId;
    Trace.push_back(E);
  }
  return Trace;
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

/// The full policy grid at mixed geometries, hinted and hint-stripped.
/// TreePLRU rows keep power-of-two associativities.
std::vector<SweepPoint> policyGridPoints() {
  std::vector<SweepPoint> Points;
  for (CachePolicy P : AllPolicies)
    for (bool IgnoreHints : {false, true}) {
      SweepPoint Pt{config(128, 2), P, IgnoreHints};
      Pt.Config.Policy = P;
      Points.push_back(Pt);
    }
  // Off-diagonal geometries for the new policies: higher
  // associativity, multi-word lines, write-through.
  for (CachePolicy P : {CachePolicy::TreePLRU, CachePolicy::SRRIP,
                        CachePolicy::LivenessBypass}) {
    SweepPoint Pt{config(64, 4), P, false};
    Pt.Config.Policy = P;
    Points.push_back(Pt);
    Pt.Config = config(32, 2, 2);
    Pt.Config.Policy = P;
    Points.push_back(Pt);
    Pt.Config = config(64, 2);
    Pt.Config.Policy = P;
    Pt.Config.Write = WritePolicy::WriteThrough;
    Points.push_back(Pt);
  }
  return Points;
}

/// Fresh scratch directory per test case, removed on destruction.
struct ScratchDir {
  std::filesystem::path Path;
  explicit ScratchDir(const char *Name) {
    Path = std::filesystem::temp_directory_path() /
           (std::string("urcm_cachemodel_") + Name + "." +
            std::to_string(::getpid()));
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Policy properties: TreePLRU tree bits and SRRIP aging.
//===----------------------------------------------------------------------===//

TEST(CacheModelProperties, TreePLRUVictimNeverMostRecentlyTouched) {
  SplitMix64 Rng(7);
  for (uint32_t Assoc : {2u, 4u, 8u, 16u, 32u, 64u}) {
    uint64_t Bits = 0;
    for (int Step = 0; Step != 2000; ++Step) {
      uint32_t Way = static_cast<uint32_t>(Rng.nextBelow(Assoc));
      Bits = detail::treePLRUTouch(Bits, Assoc, Way);
      uint32_t Victim = detail::treePLRUVictimWay(Bits, Assoc);
      ASSERT_LT(Victim, Assoc) << "assoc " << Assoc;
      EXPECT_NE(Victim, Way)
          << "assoc " << Assoc << ": just-touched way chosen as victim";
    }
  }
}

TEST(CacheModelProperties, TreePLRUPointAtMakesWayTheVictim) {
  SplitMix64 Rng(8);
  for (uint32_t Assoc : {2u, 4u, 8u, 16u, 64u}) {
    uint64_t Bits = Rng.next();
    for (int Step = 0; Step != 500; ++Step) {
      uint32_t Way = static_cast<uint32_t>(Rng.nextBelow(Assoc));
      Bits = detail::treePLRUPointAt(Bits, Assoc, Way);
      EXPECT_EQ(detail::treePLRUVictimWay(Bits, Assoc), Way)
          << "assoc " << Assoc;
      // Unrelated touches along a different path must not re-protect it.
      Bits = detail::treePLRUTouch(Bits, Assoc, Way);
      EXPECT_NE(detail::treePLRUVictimWay(Bits, Assoc), Way);
    }
  }
}

TEST(CacheModelProperties, TreePLRUIsExactlyLRUAtTwoWays) {
  // A one-node tree is a single LRU bit: the two policies must agree
  // bit for bit at associativity 2 (the paper's cache geometry) as long
  // as lines are one word. Multi-word dead frees demote instead of
  // invalidating, and a demotion tie (both ways at LastUsed 0) is
  // broken by scan order under LRU but by the last pointed way under
  // the tree, so the exact correspondence is deliberately not claimed
  // for multi-word lines. The sweep engine shares one replay between
  // such points (canonicalReplayPolicy), hinted and hint-stripped, on
  // whichever kernel serves them: the packed one-word kernel for
  // write-back, the generic model for write-through.
  CacheConfig WriteThrough = config(64, 2);
  WriteThrough.Write = WritePolicy::WriteThrough;
  for (uint64_t Seed : {3u, 44u}) {
    auto Trace = hintedTrace(Seed, 20000, 700);
    for (auto Geometry :
         {config(128, 2), config(16, 2), config(64, 2), WriteThrough}) {
      const std::string What = "seed " + std::to_string(Seed) + " lines " +
                               std::to_string(Geometry.NumLines) +
                               (Geometry == WriteThrough ? " write-through"
                                                         : "");
      EXPECT_EQ(canonicalReplayPolicy(Geometry, CachePolicy::TreePLRU),
                CachePolicy::LRU)
          << What;
      const CacheStats Hinted =
          replayTrace(Trace, Geometry, CachePolicy::TreePLRU);
      EXPECT_EQ(Hinted, replayTrace(Trace, Geometry, CachePolicy::LRU))
          << What;
      for (bool IgnoreHints : {false, true}) {
        std::vector<SweepPoint> Points = {
            {Geometry, CachePolicy::TreePLRU, IgnoreHints},
            {Geometry, CachePolicy::LRU, IgnoreHints}};
        EXPECT_EQ(packedReplayEligible(Points[0]), !(Geometry == WriteThrough))
            << What;
        std::vector<CacheStats> Got = replaySweepPoints(Trace, Points);
        EXPECT_EQ(Got[0], Got[1]) << What << " ignore=" << IgnoreHints;
        if (!IgnoreHints)
          EXPECT_EQ(Got[0], Hinted) << What;
      }
    }
  }
  // Everywhere else every policy is its own canonical form.
  for (CachePolicy P : AllPolicies)
    for (auto Geometry : {config(64, 4), config(32, 2, 4), config(8, 1)})
      EXPECT_EQ(canonicalReplayPolicy(Geometry, P), P)
          << cachePolicyName(P) << " " << Geometry.NumLines << "x"
          << Geometry.Assoc << "x" << Geometry.LineWords;
  for (CachePolicy P : AllPolicies)
    if (P != CachePolicy::TreePLRU)
      EXPECT_EQ(canonicalReplayPolicy(config(128, 2), P), P)
          << cachePolicyName(P);
}

namespace {
struct RRPVLine {
  uint8_t RRPV = 0;
};
} // namespace

TEST(CacheModelProperties, SRRIPAgingBoundsAndTermination) {
  SplitMix64 Rng(9);
  for (uint32_t Assoc : {2u, 4u, 8u, 16u}) {
    std::vector<RRPVLine> Ways(Assoc);
    for (int Step = 0; Step != 3000; ++Step) {
      uint32_t Victim = detail::srripVictimWay(Ways.data(), Assoc);
      ASSERT_LT(Victim, Assoc);
      EXPECT_GE(Ways[Victim].RRPV, SRRIPMaxRRPV)
          << "victim not at distant-future RRPV";
      for (uint32_t W = 0; W != Assoc; ++W)
        EXPECT_LE(Ways[W].RRPV, SRRIPMaxRRPV)
            << "aging overflowed the 2-bit RRPV bound";
      // Simulate install on the victim and a random hit, as the model
      // does, then scan again from the mutated state.
      Ways[Victim].RRPV = SRRIPInsertRRPV;
      Ways[Rng.nextBelow(Assoc)].RRPV =
          static_cast<uint8_t>(Rng.nextBelow(SRRIPMaxRRPV + 1));
    }
  }
  // From all-zero state the scan ages every way to the bound, then
  // picks the first way.
  std::vector<RRPVLine> Fresh(4);
  EXPECT_EQ(detail::srripVictimWay(Fresh.data(), 4), 0u);
  for (const RRPVLine &L : Fresh)
    EXPECT_EQ(L.RRPV, SRRIPMaxRRPV);
}

//===----------------------------------------------------------------------===//
// Live agreement: the live form == replay for every live-eligible
// policy, and == the two-way fast path on the paper geometry.
//===----------------------------------------------------------------------===//

TEST(CacheModelLive, LiveFormMatchesReplayForEveryLivePolicy) {
  for (CachePolicy P : AllPolicies) {
    if (!cachePolicyLiveEligible(P))
      continue;
    for (auto Geometry :
         {config(16, 4), config(128, 2), config(32, 2, 2), config(8, 8)}) {
      Geometry.Policy = P;
      for (uint64_t Seed : {11u, 31u}) {
        auto Trace = hintedTrace(Seed, 8000, 300);
        MainMemory Mem(4096), FastMem(4096);
        CacheModel Live(Geometry, Mem);
        const bool Fast = TwoWayWB1Cache::eligible(Geometry);
        TwoWayWB1Cache FastPath(Fast ? Geometry : config(128, 2), FastMem);
        int64_t Value = 0;
        for (const TraceEvent &E : Trace) {
          if (E.IsWrite) {
            ++Value;
            Live.write(E.Addr, Value, E.Info);
            if (Fast)
              FastPath.write(E.Addr, Value, E.Info);
          } else {
            const int64_t Got = Live.read(E.Addr, E.Info);
            if (Fast) {
              ASSERT_EQ(Got, FastPath.read(E.Addr, E.Info))
                  << cachePolicyName(P) << " seed " << Seed;
            }
          }
        }
        Live.flush();
        const CacheStats Replayed = replayTrace(Trace, Geometry, P);
        EXPECT_EQ(Live.stats(), Replayed)
            << cachePolicyName(P) << " seed " << Seed << " lines "
            << Geometry.NumLines << "x" << Geometry.Assoc << "x"
            << Geometry.LineWords;
        if (Fast) {
          FastPath.flush();
          EXPECT_EQ(FastPath.stats(), Replayed) << "seed " << Seed;
          for (uint64_t A = 0; A != 4096; ++A)
            ASSERT_EQ(Mem.read(A), FastMem.read(A)) << "word " << A;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The model as oracle: its IgnoreHints flag, and the packed one-word
// replay kernel on real workload traces.
//===----------------------------------------------------------------------===//

TEST(CacheModelOracle, IgnoreHintsFlagEqualsStrippedTrace) {
  const std::vector<TraceEvent> Trace = hintedTrace(19, 20000, 600);
  std::vector<TraceEvent> Stripped = Trace;
  for (TraceEvent &E : Stripped) {
    E.Info.Bypass = false;
    E.Info.LastRef = false;
  }
  for (const SweepPoint &Pt : policyGridPoints()) {
    std::shared_ptr<const std::vector<uint64_t>> Next, Copy;
    if (Pt.Policy == CachePolicy::MIN) {
      Next = computeNextLineUses(Trace, Pt.Config.LineWords,
                                 /*IgnoreHints=*/true);
      Copy = computeNextLineUses(Stripped, Pt.Config.LineWords);
      EXPECT_EQ(*Next, *Copy);
    }
    CacheModel Flagged(Pt.Config, Pt.Policy, Next, /*IgnoreHints=*/true);
    CacheModel Copied(Pt.Config, Pt.Policy, Copy);
    Flagged.feed(Trace.data(), Trace.size(), 0);
    Copied.feed(Stripped.data(), Stripped.size(), 0);
    EXPECT_EQ(Flagged.finish(), Copied.finish())
        << cachePolicyName(Pt.Policy) << " " << Pt.Config.NumLines << "x"
        << Pt.Config.Assoc << "x" << Pt.Config.LineWords;
  }
}

TEST(CacheModelOracle, PackedKernelMatchesModelOnWorkloadTraces) {
  // The sweep engine replays these points on the packed one-word
  // kernel; this model, fed the (hint-stripped) trace, is its oracle.
  std::vector<SweepPoint> Points;
  for (CachePolicy P : AllPolicies)
    for (uint32_t Assoc : {2u, 4u})
      for (bool IgnoreHints : {false, true}) {
        SweepPoint Pt{config(128, Assoc), P, IgnoreHints};
        Pt.Config.Policy = P;
        if (P != CachePolicy::MIN)
          Points.push_back(Pt);
      }
  for (const char *Name : {"Queen", "Sieve", "Bubble", "Intmm"}) {
    const std::vector<TraceEvent> Trace =
        tracedWorkloadRun(*findWorkload(Name));
    std::vector<TraceEvent> Stripped = Trace;
    for (TraceEvent &E : Stripped) {
      E.Info.Bypass = false;
      E.Info.LastRef = false;
    }
    const std::vector<CacheStats> Got = replayTraceMulti(Trace, Points);
    for (size_t I = 0; I != Points.size(); ++I) {
      const SweepPoint &Pt = Points[I];
      ASSERT_TRUE(packedReplayEligible(Pt));
      EXPECT_EQ(Got[I], replayTrace(Pt.IgnoreHints ? Stripped : Trace,
                                    Pt.Config, Pt.Policy))
          << Name << ": " << cachePolicyName(Pt.Policy) << " assoc "
          << Pt.Config.Assoc << " ignore=" << Pt.IgnoreHints;
    }
  }
}

//===----------------------------------------------------------------------===//
// Mode agreement: sequential == parallel == warm store, per policy.
//===----------------------------------------------------------------------===//

TEST(CacheModelModes, SixBenchmarksPolicyGridShardBitIdentical) {
  ThreadPool Pool(4);
  const std::vector<SweepPoint> Points = policyGridPoints();
  for (const Workload &W : paperWorkloads()) {
    const std::vector<TraceEvent> Trace = tracedWorkloadRun(W);
    const std::vector<CacheStats> Sequential =
        replaySweepPoints(Trace, Points);
    for (uint32_t Workers : {2u, 7u}) {
      const std::vector<CacheStats> Parallel =
          replaySweepPoints(Trace, Points, Workers, &Pool);
      ASSERT_EQ(Parallel.size(), Sequential.size());
      for (size_t I = 0; I != Points.size(); ++I)
        EXPECT_EQ(Parallel[I], Sequential[I])
            << W.Name << ": workers=" << Workers << " policy="
            << cachePolicyName(Points[I].Policy) << " point " << I;
    }
  }
}

TEST(CacheModelModes, FuzzedTracesPolicyGridShardBitIdentical) {
  ThreadPool Pool(4);
  const std::vector<SweepPoint> Points = policyGridPoints();
  for (uint64_t Seed : {5u, 23u, 77u}) {
    const std::vector<TraceEvent> Trace = hintedTrace(Seed, 30000, 700);
    const std::vector<CacheStats> Sequential =
        replaySweepPoints(Trace, Points);
    for (uint32_t Workers : {2u, 7u}) {
      const std::vector<CacheStats> Parallel =
          replaySweepPoints(Trace, Points, Workers, &Pool);
      for (size_t I = 0; I != Points.size(); ++I)
        EXPECT_EQ(Parallel[I], Sequential[I])
            << "seed " << Seed << ": workers=" << Workers << " policy="
            << cachePolicyName(Points[I].Policy) << " point " << I;
    }
  }
}

TEST(CacheModelModes, AttributionTablesMatchAcrossModes) {
  ThreadPool Pool(4);
  const std::vector<TraceEvent> Trace = hintedTrace(13, 25000, 500);
  const uint32_t NumRefs = 200;
  for (CachePolicy P : AllPolicies) {
    SweepPoint Pt{config(64, 2), P, false};
    Pt.Config.Policy = P;
    Pt.AttributionRefs = NumRefs;
    const std::vector<SweepPoint> Points = {Pt};

    // Sequential oracle straight through the model.
    std::shared_ptr<const std::vector<uint64_t>> NextUses;
    if (P == CachePolicy::MIN)
      NextUses = computeNextLineUses(Trace, Pt.Config.LineWords);
    CacheModel Model(Pt.Config, P, NextUses);
    RefAttribution Oracle(NumRefs);
    Model.setAttribution(&Oracle);
    Model.feed(Trace.data(), Trace.size(), 0);
    CacheStats OracleStats = Model.finish();

    SweepPointStream Seq(Points, &Trace);
    Seq.feed(Trace.data(), Trace.size());
    EXPECT_EQ(Seq.finish()[0], OracleStats) << cachePolicyName(P);
    EXPECT_EQ(Seq.takeAttribution(0), Oracle) << cachePolicyName(P);

    // Attributing alongside a second point, so the parallel stream
    // has two units to spread.
    std::vector<SweepPoint> Pair = Points;
    Pair.push_back({config(32, 4), P, true});
    Pair.back().Config.Policy = P;
    for (uint32_t Workers : {2u, 7u}) {
      SweepPointStream Parallel(Pair, &Trace, /*AllowStackFastPath=*/true,
                                Workers, &Pool);
      Parallel.feed(Trace.data(), Trace.size());
      EXPECT_EQ(Parallel.finish()[0], OracleStats)
          << cachePolicyName(P) << " workers " << Workers;
      EXPECT_EQ(Parallel.takeAttribution(0), Oracle)
          << cachePolicyName(P) << " workers " << Workers;
    }
  }
}

//===----------------------------------------------------------------------===//
// Store invariance: policy and seed are observers of the content hash.
//===----------------------------------------------------------------------===//

namespace {

struct CountedProducer {
  std::shared_ptr<MachineProgram> Prog;
  std::shared_ptr<std::atomic<int>> Calls =
      std::make_shared<std::atomic<int>>(0);

  explicit CountedProducer(const std::string &Name) {
    const Workload *W = findWorkload(Name);
    EXPECT_NE(W, nullptr);
    DiagnosticEngine Diags;
    CompileOptions Options;
    CompileResult R = compileProgram(W->Source, Options, Diags);
    EXPECT_TRUE(R.Ok) << Diags.str();
    Prog = std::make_shared<MachineProgram>(std::move(R.Program));
  }

  SweepEngine::Producer producer() const {
    auto P = Prog;
    auto C = Calls;
    return [P, C](const SimConfig &Config) {
      C->fetch_add(1);
      Simulator S(Config);
      return S.run(*P);
    };
  }
};

} // namespace

TEST(CacheModelStore, PolicyAndSeedNeverChangeTheContentHash) {
  CountedProducer Queen("Queen");
  SimConfig Sim;
  const uint64_t H = traceContentHash(*Queen.Prog, Sim);

  // The data cache observes the reference stream: any replacement
  // policy or RNG seed must map to the same stored trace.
  for (CachePolicy P : AllPolicies) {
    SimConfig Alt = Sim;
    Alt.Cache.Policy = P;
    EXPECT_EQ(H, traceContentHash(*Queen.Prog, Alt))
        << "policy " << cachePolicyName(P) << " caused a store miss";
    Alt.Cache.Seed = 0xDEADBEEF;
    EXPECT_EQ(H, traceContentHash(*Queen.Prog, Alt))
        << "seed change caused a store miss";
  }

  // The instruction cache's counters live in the stored summary, so its
  // configuration (policy included) must stay salted.
  SimConfig WithICache = Sim;
  WithICache.ModelICache = true;
  const uint64_t HI = traceContentHash(*Queen.Prog, WithICache);
  SimConfig AltICache = WithICache;
  AltICache.ICache.Policy = CachePolicy::FIFO;
  EXPECT_NE(HI, traceContentHash(*Queen.Prog, AltICache));
}

TEST(CacheModelStore, WarmServesDifferentBasePolicyCorrectly) {
  // Record under LRU, then run a FIFO-base experiment against the store:
  // no record answers FIFO, so it simulates once, matches a live FIFO
  // run, and re-records. After that both bases are served without the
  // producer: FIFO from the new summary, LRU from the old summary row,
  // which the re-recorded file keeps as a record.
  ScratchDir Dir("policy");
  CountedProducer Sieve("Sieve");
  SimConfig LruBase;
  SimConfig FifoBase;
  FifoBase.Cache.Policy = CachePolicy::FIFO;
  const uint64_t Hash = traceContentHash(*Sieve.Prog, LruBase);
  ASSERT_EQ(Hash, traceContentHash(*Sieve.Prog, FifoBase));

  DiagnosticEngine ColdDiags;
  SweepEngine Cold;
  Cold.setTraceStore(Dir.str(), &ColdDiags);
  Cold.schedule("exp", "g", LruBase, {}, Sieve.producer(), Hash);
  Cold.run();
  ASSERT_TRUE(Cold.base("exp").ok());
  EXPECT_EQ(Sieve.Calls->load(), 1);
  EXPECT_FALSE(ColdDiags.hasErrors()) << ColdDiags.str();

  // The live FIFO oracle (no store involved).
  SweepEngine Live;
  Live.schedule("exp", "g", FifoBase, {}, Sieve.producer(), 0);
  Live.run();
  ASSERT_TRUE(Live.base("exp").ok());
  EXPECT_EQ(Sieve.Calls->load(), 2);

  DiagnosticEngine MissDiags;
  SweepEngine Miss;
  Miss.setTraceStore(Dir.str(), &MissDiags);
  Miss.schedule("exp", "g", FifoBase, {}, Sieve.producer(), Hash);
  Miss.run();
  EXPECT_EQ(Sieve.Calls->load(), 3) << "no record answers the FIFO base";
  EXPECT_FALSE(MissDiags.hasErrors()) << MissDiags.str();
  ASSERT_TRUE(Miss.base("exp").ok());
  EXPECT_EQ(Miss.base("exp").Cache, Live.base("exp").Cache);

  for (const SweepEngine *Expected : {&Live, &Cold}) {
    const SimConfig &Base = Expected == &Live ? FifoBase : LruBase;
    DiagnosticEngine WarmDiags;
    SweepEngine Warm;
    Warm.setTraceStore(Dir.str(), &WarmDiags);
    Warm.schedule("exp", "g", Base, {}, Sieve.producer(), Hash);
    Warm.run();
    const char *Name = cachePolicyName(Base.Cache.Policy);
    EXPECT_EQ(Sieve.Calls->load(), 3)
        << Name << ": warm serve ran the producer";
    EXPECT_FALSE(WarmDiags.hasErrors()) << Name << ": " << WarmDiags.str();
    ASSERT_TRUE(Warm.base("exp").ok()) << Name;
    EXPECT_EQ(Warm.base("exp").Cache, Expected->base("exp").Cache)
        << Name << ": warm base counters diverge from the live run";
    EXPECT_EQ(Warm.base("exp").Steps, Expected->base("exp").Steps) << Name;
    EXPECT_EQ(Warm.base("exp").Output, Expected->base("exp").Output) << Name;
  }
}

TEST(CacheModelStore, WarmPolicyGridMatchesColdAndPlain) {
  ScratchDir Dir("grid");
  CountedProducer Queen("Queen");
  const std::vector<SweepPoint> Points = policyGridPoints();
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Queen.Prog, Base);

  SweepEngine Plain;
  Plain.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Plain.run();

  DiagnosticEngine ColdDiags;
  SweepEngine Cold;
  Cold.setTraceStore(Dir.str(), &ColdDiags);
  Cold.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Cold.run();
  EXPECT_FALSE(ColdDiags.hasErrors()) << ColdDiags.str();

  for (uint32_t Workers : {1u, 7u, 0u}) {
    DiagnosticEngine WarmDiags;
    SweepEngine Warm;
    Warm.setReplayWorkers(Workers);
    Warm.setTraceStore(Dir.str(), &WarmDiags);
    Warm.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
    Warm.run();
    EXPECT_FALSE(WarmDiags.hasErrors()) << WarmDiags.str();
    for (size_t I = 0; I != Points.size(); ++I) {
      EXPECT_EQ(Warm.point("exp", I), Plain.point("exp", I))
          << "warm workers=" << Workers << " policy="
          << cachePolicyName(Points[I].Policy) << " point " << I;
      EXPECT_EQ(Cold.point("exp", I), Plain.point("exp", I))
          << "cold policy=" << cachePolicyName(Points[I].Policy)
          << " point " << I;
    }
  }
  EXPECT_EQ(Queen.Calls->load(), 2) << "plain + cold; warm runs served";
}

//===----------------------------------------------------------------------===//
// LivenessBypass predictor semantics.
//===----------------------------------------------------------------------===//

TEST(CacheModelPredictor, LearnsDeadOnArrivalReferences) {
  // One static reference streams over fresh lines and never reuses
  // them; after two dead evictions its counter saturates and further
  // misses stop allocating (bypass accounting), modulo the 1-in-16
  // retraining probe.
  std::vector<TraceEvent> Trace;
  for (uint32_t I = 0; I != 4096; ++I) {
    TraceEvent E;
    E.Addr = I;
    E.RefId = 7;
    Trace.push_back(E);
  }
  CacheStats Bypass =
      replayTrace(Trace, config(8, 8), CachePolicy::LivenessBypass);
  CacheStats Lru = replayTrace(Trace, config(8, 8), CachePolicy::LRU);

  EXPECT_EQ(Lru.BypassReads, 0u);
  EXPECT_GT(Bypass.BypassReads, 3000u)
      << "predictor never engaged on a pure streaming reference";
  EXPECT_LT(Bypass.Fills, Lru.Fills / 4)
      << "predicted-dead misses still allocate";
  EXPECT_GT(Bypass.Fills, 0u) << "retraining probe never allocates";
  // Accounting conservation: every access is either through-cache or
  // predictor-bypassed.
  EXPECT_EQ(Bypass.Reads + Bypass.BypassReads, Lru.Reads);
}

TEST(CacheModelPredictor, ReusedReferencesAreNeverBypassed) {
  // A hot loop over a small working set reuses every line: the
  // predictor must stay untrained and the counters must degenerate to
  // plain LRU.
  std::vector<TraceEvent> Trace;
  for (uint32_t Round = 0; Round != 500; ++Round)
    for (uint32_t A = 0; A != 8; ++A) {
      TraceEvent E;
      E.Addr = A;
      E.RefId = static_cast<uint16_t>(A);
      Trace.push_back(E);
    }
  CacheStats Bypass =
      replayTrace(Trace, config(16, 2), CachePolicy::LivenessBypass);
  CacheStats Lru = replayTrace(Trace, config(16, 2), CachePolicy::LRU);
  EXPECT_EQ(Bypass, Lru)
      << "a fully-reused working set must not trigger the predictor";
}

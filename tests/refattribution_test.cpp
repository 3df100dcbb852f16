//===- refattribution_test.cpp - Per-reference attribution tests ---------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// The attribution profiler's contract, pinned here:
//
//  1. worker invariance — per-RefId tables from parallel replay
//     reproduce the sequential tables bit for bit, for every worker
//     count, on all six paper benchmarks and on synthetic traces
//     covering every kernel family;
//  2. serving invariance — the engine produces bit-identical tables
//     with no store, a cold store, and a warm store (where the trace is
//     decoded from disk and the Simulator never runs);
//  3. live equivalence — the replayed table equals the live cache's
//     (SimConfig::Attribution) for the same geometry and hints;
//  4. conservation — attribution rows sum to the aggregate CacheStats
//     (hits, misses, bypasses, dead write-backs, evictions), so no
//     event is double-charged or dropped, and unnumbered events land in
//     the overflow row;
//  5. the profile renderings (JSON, annotate) are deterministic and
//     flag prediction mismatches where the counters say they happened.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/RefProfile.h"

#include "urcm/driver/Driver.h"
#include "urcm/sim/SweepEngine.h"
#include "urcm/sim/TraceStore.h"
#include "urcm/support/RNG.h"
#include "urcm/support/Telemetry.h"
#include "urcm/support/ThreadPool.h"
#include "urcm/workloads/Workloads.h"

#include <filesystem>
#include <gtest/gtest.h>
#include <memory>
#include <unistd.h>

using namespace urcm;

namespace {

CacheConfig config(uint32_t Lines, uint32_t Assoc, uint32_t LineWords = 1) {
  CacheConfig C;
  C.NumLines = Lines;
  C.Assoc = Assoc;
  C.LineWords = LineWords;
  return C;
}

/// Fresh scratch directory per test case, removed on destruction.
struct ScratchDir {
  std::filesystem::path Path;
  explicit ScratchDir(const char *Name) {
    Path = std::filesystem::temp_directory_path() /
           (std::string("urcm_refattr_") + Name + "." +
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

/// A deterministic trace over \p NumRefs static references: sequential
/// id runs, loop-style back jumps, unnumbered stretches, hint bits.
std::vector<TraceEvent> numberedTrace(uint64_t Seed, size_t N,
                                      uint16_t NumRefs) {
  SplitMix64 Rng(Seed);
  std::vector<TraceEvent> Trace;
  Trace.reserve(N);
  uint32_t Hot = 0;
  uint16_t Ref = 0;
  for (size_t I = 0; I != N; ++I) {
    uint64_t Roll = Rng.nextBelow(100);
    TraceEvent E;
    E.Addr = static_cast<uint32_t>(Roll < 60
                                       ? (Hot + Rng.nextBelow(8)) % 700
                                       : Rng.nextBelow(700));
    if (Roll == 99)
      Hot = static_cast<uint32_t>(Rng.nextBelow(700));
    E.IsWrite = Rng.nextBelow(4) == 0;
    E.Info.Bypass = Rng.nextBelow(10) == 0;
    E.Info.LastRef = !E.Info.Bypass && Rng.nextBelow(13) == 0;
    if (Roll < 70)
      Ref = static_cast<uint16_t>((Ref + 1) % NumRefs);
    else if (Roll < 85)
      Ref = static_cast<uint16_t>(Rng.nextBelow(NumRefs));
    E.RefId = Roll < 95 ? Ref : MemRefInfo::NoRefId;
    Trace.push_back(E);
  }
  return Trace;
}

/// Every kernel family, all requesting attribution over \p NumRefs:
/// the two-way fast kernel, the generic replayer (4-way, FIFO,
/// write-through, multi-word lines), fully-associative LRU (which
/// attribution reroutes from the stack walk to per-event replay),
/// Random and Belady MIN, hinted and hint-stripped views.
std::vector<SweepPoint> attributingPoints(uint32_t NumRefs) {
  std::vector<SweepPoint> Points = {
      {config(128, 2), CachePolicy::LRU, false},
      {config(128, 2), CachePolicy::LRU, true},
      {config(16, 2), CachePolicy::LRU, false},
      {config(64, 4), CachePolicy::LRU, false},
      {config(64, 2), CachePolicy::FIFO, false},
      {config(32, 2, 2), CachePolicy::LRU, false},
      {config(32, 32), CachePolicy::LRU, false},
      {config(64, 2), CachePolicy::Random, false},
      {config(64, 2), CachePolicy::MIN, false},
  };
  SweepPoint WriteThrough{config(64, 2), CachePolicy::LRU, false};
  WriteThrough.Config.Write = WritePolicy::WriteThrough;
  Points.push_back(WriteThrough);
  for (SweepPoint &P : Points)
    P.AttributionRefs = NumRefs;
  return Points;
}

struct StreamRun {
  std::vector<CacheStats> Stats;
  std::vector<RefAttribution> Attrib;
  std::vector<const char *> Laws; ///< SweepPointStream::violatedLaw.
};

StreamRun runStream(const std::vector<TraceEvent> &Trace,
                    const std::vector<SweepPoint> &Points,
                    uint32_t Workers = 1, ThreadPool *Pool = nullptr) {
  SweepPointStream Stream(Points, &Trace, /*AllowStackFastPath=*/true,
                          Workers, Pool);
  Stream.reserve(Trace.size());
  Stream.feed(Trace.data(), Trace.size());
  StreamRun R;
  R.Stats = Stream.finish();
  for (size_t I = 0; I != Points.size(); ++I) {
    R.Attrib.push_back(Stream.takeAttribution(I));
    R.Laws.push_back(Stream.violatedLaw(I));
  }
  return R;
}

uint64_t sumField(const RefAttribution &A,
                  uint64_t RefCounters::*Field) {
  uint64_t Sum = 0;
  for (uint32_t I = 0; I <= A.numRefs(); ++I)
    Sum += A.row(I).*Field;
  return Sum;
}

} // namespace

//===----------------------------------------------------------------------===//
// Merge invariant and conservation on synthetic traces
//===----------------------------------------------------------------------===//

TEST(RefAttribution, ShardedTablesBitIdenticalToSequential) {
  ThreadPool Pool(4);
  constexpr uint16_t NumRefs = 37;
  const std::vector<SweepPoint> Points = attributingPoints(NumRefs);
  for (uint64_t Seed : {3u, 17u, 99u}) {
    const std::vector<TraceEvent> Trace =
        numberedTrace(Seed, 30000, NumRefs);
    const StreamRun Sequential = runStream(Trace, Points);
    for (uint32_t Workers : {2u, 7u, 64u}) {
      const StreamRun Parallel = runStream(Trace, Points, Workers, &Pool);
      ASSERT_EQ(Parallel.Attrib.size(), Sequential.Attrib.size());
      for (size_t I = 0; I != Points.size(); ++I) {
        EXPECT_EQ(Parallel.Stats[I], Sequential.Stats[I])
            << "seed " << Seed << " workers " << Workers << " point " << I;
        EXPECT_EQ(Parallel.Attrib[I], Sequential.Attrib[I])
            << "seed " << Seed << " workers " << Workers << " point " << I;
      }
    }
  }
}

TEST(RefAttribution, RowsSumToAggregateStats) {
  constexpr uint16_t NumRefs = 23;
  const std::vector<TraceEvent> Trace = numberedTrace(7, 40000, NumRefs);
  const std::vector<SweepPoint> Points = attributingPoints(NumRefs);
  const StreamRun R = runStream(Trace, Points);
  for (size_t I = 0; I != Points.size(); ++I) {
    const CacheStats &S = R.Stats[I];
    const RefAttribution &A = R.Attrib[I];
    // Every through-cache access is exactly one hit or one miss; every
    // bypass-hinted access is exactly one bypass (memory-served or
    // hit-migrated); dead write-backs and evictions match the
    // aggregate counters one for one.
    EXPECT_EQ(sumField(A, &RefCounters::Hits), S.ReadHits + S.WriteHits)
        << "point " << I;
    EXPECT_EQ(sumField(A, &RefCounters::Misses),
              S.Reads + S.Writes - S.ReadHits - S.WriteHits)
        << "point " << I;
    EXPECT_EQ(sumField(A, &RefCounters::Bypasses),
              S.BypassReads + S.BypassWrites + S.BypassHitMigrations)
        << "point " << I;
    EXPECT_EQ(sumField(A, &RefCounters::DeadWriteBacksSuppressed),
              S.DeadWriteBacksAvoided)
        << "point " << I;
    // Every replacement eviction has exactly one causer and one
    // installer-victim (flush write-backs at end of trace charge
    // nobody, and they are not Evictions).
    EXPECT_EQ(sumField(A, &RefCounters::EvictionsCaused),
              sumField(A, &RefCounters::EvictionsSuffered))
        << "point " << I;
  }
}

TEST(RefAttribution, ConservationLawCatchesATamperedRow) {
  // attributionConservationViolation holds for every kernel family, and
  // one count moved in one row, the overflow row included, breaks it.
  constexpr uint16_t NumRefs = 23;
  const std::vector<TraceEvent> Trace = numberedTrace(7, 40000, NumRefs);
  const std::vector<SweepPoint> Points = attributingPoints(NumRefs);
  const StreamRun R = runStream(Trace, Points);
  const struct {
    uint64_t RefCounters::*Field;
    const char *Law;
  } Fields[] = {
      {&RefCounters::Hits, "attributed Hits"},
      {&RefCounters::Misses, "attributed Misses"},
      {&RefCounters::Bypasses, "attributed Bypasses"},
      {&RefCounters::DeadWriteBacksSuppressed,
       "attributed DeadWriteBacksSuppressed"},
      {&RefCounters::EvictionsCaused, "attributed EvictionsCaused"},
      {&RefCounters::EvictionsSuffered, "attributed EvictionsSuffered"},
  };
  for (size_t I = 0; I != Points.size(); ++I) {
    EXPECT_EQ(R.Laws[I], nullptr) << "point " << I << ": " << R.Laws[I];
    EXPECT_EQ(attributionConservationViolation(R.Attrib[I], R.Stats[I]),
              nullptr)
        << "point " << I;
    for (const auto &F : Fields)
      for (uint32_t Row : {3u, uint32_t(NumRefs)}) {
        RefAttribution Tampered = R.Attrib[I];
        ++(Tampered.row(Row).*F.Field);
        const char *Law =
            attributionConservationViolation(Tampered, R.Stats[I]);
        ASSERT_NE(Law, nullptr) << "point " << I << " row " << Row;
        EXPECT_EQ(std::string(Law).rfind(F.Law, 0), 0u)
            << "point " << I << " row " << Row << ": " << Law;
      }
  }
}

TEST(RefAttribution, UnnumberedEventsLandInOverflowRow) {
  std::vector<TraceEvent> Trace = numberedTrace(5, 5000, 11);
  for (TraceEvent &E : Trace)
    E.RefId = MemRefInfo::NoRefId; // Strip all numbering.
  std::vector<SweepPoint> Points = {
      {config(128, 2), CachePolicy::LRU, false}};
  Points[0].AttributionRefs = 11;
  const StreamRun R = runStream(Trace, Points);
  const RefAttribution &A = R.Attrib[0];
  for (uint32_t I = 0; I != A.numRefs(); ++I)
    EXPECT_EQ(A.row(I), RefCounters()) << "row " << I;
  EXPECT_EQ(A.overflow().Hits + A.overflow().Misses +
                A.overflow().Bypasses,
            static_cast<uint64_t>(Trace.size()));
  // Out-of-range ids clamp into the overflow row rather than indexing
  // out of bounds.
  EXPECT_EQ(&A.row(11), &A.overflow());
  EXPECT_EQ(&A.row(0xFFFF), &A.overflow());
}

//===----------------------------------------------------------------------===//
// The acceptance grid: six paper benchmarks, engine-served attribution,
// workers {1, 7, auto} x {no store, cold, warm}, bit-identical — and
// equal to the live cache's table for the same geometry.
//===----------------------------------------------------------------------===//

namespace {

std::shared_ptr<MachineProgram> compileEraUnified(const Workload &W) {
  CompileOptions Options;
  Options.IRGen.ScalarLocalsInMemory = true;
  Options.Scheme = UnifiedOptions::unified();
  DiagnosticEngine Diags;
  CompileResult R = compileProgram(W.Source, Options, Diags);
  EXPECT_TRUE(R.Ok) << W.Name << ": " << Diags.str();
  return std::make_shared<MachineProgram>(std::move(R.Program));
}

/// One engine run; \p StoreDir empty disables the store.
std::vector<RefAttribution>
engineAttribution(std::shared_ptr<MachineProgram> Prog,
                  const std::vector<SweepPoint> &Points, uint32_t Workers,
                  const std::string &StoreDir, ThreadPool &Pool) {
  SweepEngine Engine(&Pool);
  Engine.setReplayWorkers(Workers);
  DiagnosticEngine Diags;
  if (!StoreDir.empty())
    Engine.setTraceStore(StoreDir, &Diags);
  SimConfig Base;
  Base.Cache = config(128, 2);
  uint64_t Hash = StoreDir.empty() ? 0 : traceContentHash(*Prog, Base);
  Engine.schedule("exp", "g", Base, Points,
                  [Prog](const SimConfig &Sim) {
                    Simulator S(Sim);
                    return S.run(*Prog);
                  },
                  Hash);
  Engine.run();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_TRUE(Engine.base("exp").ok());
  std::vector<RefAttribution> Out;
  for (size_t I = 0; I != Points.size(); ++I)
    Out.push_back(Engine.attribution("exp", I));
  return Out;
}

} // namespace

TEST(RefAttribution, SixBenchmarksAcrossShardsAndStoreModes) {
  ThreadPool Pool(4);
  for (const Workload &W : paperWorkloads()) {
    std::shared_ptr<MachineProgram> Prog = compileEraUnified(W);
    const uint32_t NumRefs =
        static_cast<uint32_t>(Prog->RefTable.size());
    ASSERT_GT(NumRefs, 0u) << W.Name;
    std::vector<SweepPoint> Points = {
        {config(128, 2), CachePolicy::LRU, false},
        {config(128, 2), CachePolicy::LRU, true},
        {config(16, 2), CachePolicy::LRU, false},
    };
    for (SweepPoint &P : Points)
      P.AttributionRefs = NumRefs;

    // The oracle: sequential, no store.
    const std::vector<RefAttribution> Oracle =
        engineAttribution(Prog, Points, 1, "", Pool);
    // The hinted point must see the hint machinery in action somewhere
    // across the benchmarks; spot-check it is not all-zero here.
    uint64_t Accesses = 0;
    for (uint32_t R = 0; R <= Oracle[0].numRefs(); ++R)
      Accesses += Oracle[0].row(R).accesses();
    EXPECT_GT(Accesses, 0u) << W.Name;

    ScratchDir Dir(W.Name.c_str());
    auto expectMatch = [&](const std::vector<RefAttribution> &Got,
                           const char *Label) {
      ASSERT_EQ(Got.size(), Oracle.size());
      for (size_t I = 0; I != Oracle.size(); ++I)
        EXPECT_EQ(Got[I], Oracle[I])
            << W.Name << " " << Label << " point " << I;
    };
    // No store, parallel.
    expectMatch(engineAttribution(Prog, Points, 7, "", Pool),
                "no-store/workers=7");
    // Cold store (records), sequential.
    expectMatch(engineAttribution(Prog, Points, 1, Dir.str(), Pool),
                "cold/workers=1");
    // Warm store (trace decoded from disk, no Simulator), parallel and
    // auto.
    expectMatch(engineAttribution(Prog, Points, 7, Dir.str(), Pool),
                "warm/workers=7");
    expectMatch(engineAttribution(Prog, Points, 0, Dir.str(), Pool),
                "warm/workers=auto");
  }
}

TEST(RefAttribution, LiveSimulatorMatchesEngineReplay) {
  const Workload *W = findWorkload("Towers");
  ASSERT_NE(W, nullptr);
  std::shared_ptr<MachineProgram> Prog = compileEraUnified(*W);
  const uint32_t NumRefs = static_cast<uint32_t>(Prog->RefTable.size());

  // Live: the data cache accumulates attribution during simulation.
  RefAttribution Live(NumRefs);
  SimConfig Sim;
  Sim.Cache = config(128, 2);
  Sim.Attribution = &Live;
  Simulator S(Sim);
  SimResult R = S.run(*Prog);
  ASSERT_TRUE(R.ok()) << R.Error;

  // Replayed: the engine's hinted point at the same geometry.
  ThreadPool Pool(4);
  std::vector<SweepPoint> Points = {
      {config(128, 2), CachePolicy::LRU, false}};
  Points[0].AttributionRefs = NumRefs;
  const std::vector<RefAttribution> Replayed =
      engineAttribution(Prog, Points, 7, "", Pool);
  EXPECT_EQ(Replayed[0], Live);
}

TEST(RefAttribution, LiveRunWithATamperedTableFails) {
  // A live run checks its table against its counters: a table handed in
  // with one count already in a row fails the run, naming the law, and
  // counts in check.live.violations.
  const Workload *W = findWorkload("Queen");
  ASSERT_NE(W, nullptr);
  std::shared_ptr<MachineProgram> Prog = compileEraUnified(*W);
  RefAttribution Attr(static_cast<uint32_t>(Prog->RefTable.size()));
  Attr.row(0).Misses = 1;
  SimConfig Sim;
  Sim.Cache = config(128, 2);
  Sim.Attribution = &Attr;
  telemetry::setEnabled(true);
  telemetry::reset();
  SimResult R = Simulator(Sim).run(*Prog);
  const std::string JSON = telemetry::snapshotJSON();
  telemetry::setEnabled(false);
  telemetry::reset();
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("conservation law 'attributed Misses == misses'"),
            std::string::npos)
      << R.Error;
  EXPECT_NE(JSON.find("\"check.live.violations\": 1"), std::string::npos);

  // The same run with a zeroed table passes.
  Attr = RefAttribution(static_cast<uint32_t>(Prog->RefTable.size()));
  SimResult Clean = Simulator(Sim).run(*Prog);
  EXPECT_TRUE(Clean.ok()) << Clean.Error;
}

//===----------------------------------------------------------------------===//
// Profile renderings
//===----------------------------------------------------------------------===//

TEST(RefProfile, JSONAndAnnotateRenderTowers) {
  const Workload *W = findWorkload("Towers");
  ASSERT_NE(W, nullptr);
  std::shared_ptr<MachineProgram> Prog = compileEraUnified(*W);
  RefAttribution Attr(static_cast<uint32_t>(Prog->RefTable.size()));
  SimConfig Sim;
  Sim.Cache = config(128, 2);
  Sim.Attribution = &Attr;
  Simulator S(Sim);
  SimResult R = S.run(*Prog);
  ASSERT_TRUE(R.ok()) << R.Error;

  // The JSON totals must reconcile with the run's cache counters.
  std::vector<RefProfileRow> Rows = buildRefProfile(*Prog, Attr);
  ASSERT_EQ(Rows.size(), Prog->RefTable.size());
  RefCounters Total;
  for (const RefProfileRow &Row : Rows)
    Total += Row.Counters;
  Total += Attr.overflow();
  EXPECT_EQ(Total.Hits, R.Cache.ReadHits + R.Cache.WriteHits);
  EXPECT_EQ(Total.Bypasses, R.Cache.BypassReads + R.Cache.BypassWrites +
                                R.Cache.BypassHitMigrations);
  EXPECT_EQ(Total.DeadWriteBacksSuppressed,
            R.Cache.DeadWriteBacksAvoided);

  std::string JSON = refProfileJSON(*Prog, Attr, "Towers");
  EXPECT_NE(JSON.find("\"workload\": \"Towers\""), std::string::npos);
  EXPECT_NE(JSON.find("\"form\": \"UmAm_LOAD\""), std::string::npos);
  EXPECT_NE(JSON.find("\"class\": \"unambiguous\""), std::string::npos);
  EXPECT_NE(JSON.find("\"overflow\""), std::string::npos);

  std::string Annotate = refProfileAnnotate(*Prog, Attr, W->Source);
  EXPECT_NE(Annotate.find("ref profile:"), std::string::npos);
  EXPECT_NE(Annotate.find("| source"), std::string::npos);
  // Determinism: rendering twice from the same table is byte-identical
  // (the golden comparison in scripts/check.sh --profile relies on it).
  EXPECT_EQ(Annotate, refProfileAnnotate(*Prog, Attr, W->Source));
  EXPECT_EQ(JSON, refProfileJSON(*Prog, Attr, "Towers"));
}

TEST(RefProfile, MismatchFlagsFollowTheCounters) {
  // A fabricated two-ref program rendering: one bypass-classified ref
  // that still misses (!bypass-miss) and one dead-tagged ref whose
  // lines were evicted (!dead-evicted).
  const char *Source = "a = b;\nc = d;\n";
  MachineProgram Prog;
  MachineFunction F;
  F.Name = "f";
  F.EntryIndex = 0;
  F.CodeSize = 2;
  Prog.Functions.push_back(F);
  for (uint32_t I = 0; I != 2; ++I) {
    MInst MI;
    MI.Op = I == 0 ? MOpcode::Ld : MOpcode::St;
    MI.MemInfo.Class = RefClass::Unambiguous;
    MI.MemInfo.Bypass = I == 0;
    MI.MemInfo.LastRef = I == 1;
    MI.MemInfo.RefId = static_cast<uint16_t>(I);
    Prog.Code.push_back(MI);
    MachineProgram::StaticRef Ref;
    Ref.CodeIndex = I;
    Ref.Loc = SourceLoc(I + 1, 1);
    Prog.RefTable.push_back(Ref);
  }
  RefAttribution Attr(2);
  Attr.row(0).Bypasses = 10;
  Attr.row(0).Misses = 4; // Bypass-classified, yet missing.
  Attr.row(1).Hits = 5;
  Attr.row(1).EvictionsSuffered = 2; // Dead-tagged, yet evicted.

  std::vector<RefProfileRow> Rows = buildRefProfile(Prog, Attr);
  ASSERT_EQ(Rows.size(), 2u);
  EXPECT_STREQ(Rows[0].Form, "UmAm_LOAD");
  EXPECT_STREQ(Rows[1].Form, "AmSp_STORE");
  EXPECT_FALSE(Rows[0].deadEvicted());
  EXPECT_TRUE(Rows[1].deadEvicted());

  std::string Annotate = refProfileAnnotate(Prog, Attr, Source);
  size_t Line1 = Annotate.find("| a = b;");
  size_t Line2 = Annotate.find("| c = d;");
  ASSERT_NE(Line1, std::string::npos) << Annotate;
  ASSERT_NE(Line2, std::string::npos) << Annotate;
  size_t Flag1 = Annotate.find("!bypass-miss", Line1);
  size_t Flag2 = Annotate.find("!dead-evicted", Line2);
  EXPECT_LT(Flag1, Line2) << Annotate; // Flag sits on the first line.
  EXPECT_NE(Flag2, std::string::npos) << Annotate;

  std::string JSON = refProfileJSON(Prog, Attr, "synthetic");
  EXPECT_NE(JSON.find("\"dead_evicted\": true"), std::string::npos);
}

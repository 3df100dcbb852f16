//===- SweepEngine.cpp - Compile-once/replay-many sweeps -----------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The stack-distance fast path implemented here extends Mattson's
// one-pass algorithm [Mattson et al., IBM Sys. J. 1970] to the paper's
// hint semantics. The classic algorithm exploits LRU inclusion: lines
// ordered by recency form a stack, an access at stack depth d hits in
// every fully-associative LRU cache with more than d lines and misses in
// the rest, so one walk yields hit counts for all sizes.
//
// Dead-tag frees and bypass migrations break the textbook version: a
// freed line leaves a free slot in every cache that held it, and caches
// of different sizes disagree about which lines they hold. Deleting the
// freed line from the stack is wrong — it would promote every deeper
// line by one position, turning later misses into phantom hits for
// intermediate sizes. Instead a freed line's stack slot is kept as a
// *hole*: depth arithmetic still counts it, and the number of holes
// among the top S entries is exactly the number of free slots in the
// size-S cache. The update rules (derived positionally, asserted
// bit-identical to TraceReplayer by tests/sweepengine_test.cpp):
//
//  * free (dead tag / bypass migration): the line's entry becomes a
//    hole in place;
//  * miss everywhere: the new line pushes on top and consumes the
//    topmost hole, if any — sizes that see the hole fill a free slot,
//    sizes above the hole evict their own per-size LRU victim (the
//    entry at stack position S, which simply slides out of the top-S
//    window);
//  * hit at depth d with a hole above: the line moves to the top and
//    the topmost hole moves down into the vacated slot, recording that
//    every size small enough to miss but deep enough to contain the
//    hole consumed its free slot, while hitting sizes keep theirs.
//
// Dirtiness is also size-dependent (a size that missed refetches the
// line clean), captured by a per-line DirtyMin = smallest size whose
// copy is dirty: a write sets it to 1, a read at depth d raises it to
// max(DirtyMin, d+1) because sizes <= d refill clean.
//
// Two Fenwick trees over the timestamp domain (all entries / holes
// only) give O(log n) depth, topmost-hole and per-size victim queries.
//
// Every replay kernel here (the packed one-word kernel, the generic
// CacheModel, the stack-distance sweep) is written as a
// chunk-fed stream — construct, feed(events), finish() — and the batch
// entry points (replayTraceMulti, sweepLRUStackDistance,
// replaySweepPoints) are one-chunk wrappers, so the streaming pipeline
// (urcm/sim/TraceStream.h) and the materialized-trace path execute the
// same per-event code and cannot diverge. The stack-distance stream's
// Fenwick trees grow geometrically because a streaming consumer does
// not know the trace length up front; the batch wrapper pre-sizes them
// to the exact domain.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/SweepEngine.h"

#include "ReplayKernels.h"

#include "urcm/sim/TraceStore.h"
#include "urcm/sim/TraceStream.h"
#include "urcm/support/CacheAlign.h"
#include "urcm/support/Diagnostics.h"
#include "urcm/support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <map>
#include <numeric>
#include <type_traits>
#include <utility>
#include <variant>

using namespace urcm;

URCM_STAT(NumSweepExperiments, "sweep.experiments",
          "Sweep experiments executed (compile+simulate+replay)");
URCM_STAT(NumSweepMemoHits, "sweep.memo-hits",
          "schedule() calls deduplicated by the experiment memo");
URCM_STAT(NumSweepPointsReplayed, "sweep.points-replayed",
          "Sweep points answered by trace replay");
URCM_STAT(NumSweepPointsReused, "sweep.points-reused",
          "Sweep points answered without a replay of their own (the base "
          "run's or an equivalent point's counters)");
URCM_STAT(NumSweepTraceEvents, "sweep.trace-events",
          "Trace events generated across all experiments");
URCM_STAT(NumSweepBytesFreed, "sweep.trace-bytes-freed",
          "Bytes of materialized trace released after replay");
URCM_STAT(SweepReplayNs, "sweep.replay-ns",
          "Nanoseconds spent replaying trace chunks (consumer side)");
URCM_STAT(NumStoreSummaryServed, "sim.store.summary-served",
          "Warm experiments whose base counters came from the stored "
          "summary (no base-config replay)");
URCM_STAT(NumStorePointsServed, "sim.store.points-served",
          "Sweep points answered from a stored point record (no decode, "
          "no replay)");
URCM_STAT(NumParallelStreams, "sweep.parallel.streams",
          "Point sets replayed by more than one worker");
URCM_STAT(NumParallelUnits, "sweep.parallel.units",
          "Replay units (kernels) in point-parallel streams");
URCM_STAT(NumParallelWorkers, "sweep.parallel.workers",
          "Workers used, summed over point-parallel streams");
URCM_STAT(NumReplayCheckedPoints, "check.replay.points",
          "Replayed or stored sweep points whose counters were checked "
          "against the replay conservation laws");
URCM_STAT(NumReplayViolations, "check.replay.violations",
          "Replayed or stored sweep points that broke a conservation law");
URCM_STAT(NumPolicyLRUPoints, "sim.policy.lru",
          "Sweep points answered under the LRU policy");
URCM_STAT(NumPolicyFIFOPoints, "sim.policy.fifo",
          "Sweep points answered under the FIFO policy");
URCM_STAT(NumPolicyRandomPoints, "sim.policy.random",
          "Sweep points answered under the Random policy");
URCM_STAT(NumPolicyMINPoints, "sim.policy.min",
          "Sweep points answered under the Belady MIN policy");
URCM_STAT(NumPolicyTreePLRUPoints, "sim.policy.tree-plru",
          "Sweep points answered under the tree-PLRU policy");
URCM_STAT(NumPolicySRRIPPoints, "sim.policy.srrip",
          "Sweep points answered under the SRRIP policy");
URCM_STAT(NumPolicyBypassPoints, "sim.policy.liveness-bypass",
          "Sweep points answered under the liveness-bypass predictor");

namespace {
/// One counter per policy so `--stats` shows how a sweep's points were
/// distributed across the policy axis (reused and replayed alike).
void countPolicyPoint(CachePolicy Policy) {
  switch (Policy) {
  case CachePolicy::LRU:
    NumPolicyLRUPoints.add();
    break;
  case CachePolicy::FIFO:
    NumPolicyFIFOPoints.add();
    break;
  case CachePolicy::Random:
    NumPolicyRandomPoints.add();
    break;
  case CachePolicy::MIN:
    NumPolicyMINPoints.add();
    break;
  case CachePolicy::TreePLRU:
    NumPolicyTreePLRUPoints.add();
    break;
  case CachePolicy::SRRIP:
    NumPolicySRRIPPoints.add();
    break;
  case CachePolicy::LivenessBypass:
    NumPolicyBypassPoints.add();
    break;
  }
}
} // namespace

//===----------------------------------------------------------------------===//
// SweepPointStream: independent replay units, fanned out per chunk.
//===----------------------------------------------------------------------===//

namespace {

/// One independent replay job: a kernel plus the sweep points it
/// answers. A stack walk answers every size of one hint view; the other
/// kernels answer one point each. Every kernel honours IgnoreHints
/// itself, so all of them read the same chunk. Padded to its own cache
/// lines because CacheModel bumps its counters in place: two units
/// sharing a line would ping-pong it between the workers replaying them.
struct alignas(DestructiveInterferenceSize) ReplayUnit {
  std::variant<detail::StackDistanceStream, detail::PackedOneWordStream,
               CacheModel>
      Kernel;
  std::vector<size_t> PointIdx;
};

/// Relative per-event cost of a point's kernel, for the parallel claim
/// order: the generic model, then the packed kernel's costlier shapes,
/// then its two-way LRU (the cheapest and most common point).
int kernelCost(const SweepPoint &P) {
  if (!detail::PackedOneWordStream::eligible(P))
    return 2;
  return P.Policy != CachePolicy::LRU || P.Config.Assoc > 2 ? 1 : 0;
}

} // namespace

struct SweepPointStream::Impl {
  std::vector<SweepPoint> Points;
  /// Costliest kernels first, so the parallel claim order balances.
  std::vector<ReplayUnit> Units;
  uint32_t Workers = 1;
  ThreadPool *Pool = nullptr;
  uint64_t RunningIndex = 0; // Trace position of the next chunk.
  /// Per point, the conservation law its counters broke (null: none);
  /// filled by finish().
  std::vector<const char *> Violated;
  /// Per-point attribution tables, parallel to Points (default-empty
  /// rows for points that did not request attribution); the kernels
  /// accumulate into these in place and takeAttribution moves them out.
  std::vector<RefAttribution> Attrib;
};

bool SweepPointStream::streamable(const std::vector<SweepPoint> &Points) {
  return std::none_of(Points.begin(), Points.end(), [](const SweepPoint &P) {
    return P.Policy == TracePolicy::MIN;
  });
}

SweepPointStream::SweepPointStream(
    std::vector<SweepPoint> Points,
    const std::vector<TraceEvent> *FullTrace, bool AllowStackFastPath,
    uint32_t Workers, ThreadPool *Pool)
    : P(std::make_unique<Impl>()) {
  assert(Workers >= 1 && "pass resolveReplayWorkers' result");
  P->Points = std::move(Points);
  P->Workers = Workers;
  if (Workers > 1)
    P->Pool = Pool ? Pool : &ThreadPool::global();
  const std::vector<SweepPoint> &Pts = P->Points;
  P->Attrib.resize(Pts.size());
  std::vector<ReplayUnit> &Units = P->Units;
  // Attribution pins a point to the per-event kernels: the positional
  // stack walk shares state across all sizes and cannot charge events
  // to references, so one attributing point demotes the whole batch.
  const bool UseStack =
      AllowStackFastPath && !Pts.empty() &&
      std::all_of(Pts.begin(), Pts.end(), stackDistanceEligible) &&
      std::none_of(Pts.begin(), Pts.end(), [](const SweepPoint &Pt) {
        return Pt.wantsAttribution();
      });
  if (UseStack) {
    // One stack walk per hint view (the walk itself covers all sizes).
    for (bool IgnoreHints : {false, true}) {
      std::vector<uint32_t> Sizes;
      std::vector<size_t> Idx;
      for (size_t I = 0; I != Pts.size(); ++I)
        if (Pts[I].IgnoreHints == IgnoreHints) {
          Sizes.push_back(Pts[I].Config.NumLines);
          Idx.push_back(I);
        }
      if (!Idx.empty())
        Units.push_back({detail::StackDistanceStream(std::move(Sizes),
                                                     IgnoreHints),
                         std::move(Idx)});
    }
    return;
  }
  // One kernel per point: the packed one-word kernel where the point is
  // eligible, the policy-generic model otherwise. Each requesting
  // point's table is allocated in Attrib, which was sized above and is
  // never resized again, so the kernels' table pointers stay valid.
  auto Attribute = [&](auto &Kernel, size_t I) {
    if (!Pts[I].wantsAttribution())
      return;
    P->Attrib[I] = RefAttribution(Pts[I].AttributionRefs);
    Kernel.setAttribution(&P->Attrib[I]);
  };
  // MIN points with the same line size and hint view share one next-use
  // index.
  std::map<std::pair<uint32_t, bool>,
           std::shared_ptr<const std::vector<uint64_t>>>
      NextUses;
  // Costliest kernels first, so the parallel claim order balances.
  std::vector<size_t> Order(Pts.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::stable_sort(Order.begin(), Order.end(), [&](size_t L, size_t R) {
    return kernelCost(Pts[L]) > kernelCost(Pts[R]);
  });
  for (size_t I : Order) {
    const SweepPoint &Pt = Pts[I];
    if (detail::PackedOneWordStream::eligible(Pt)) {
      detail::PackedOneWordStream Packed(Pt);
      Attribute(Packed, I);
      Units.push_back({std::move(Packed), {I}});
      continue;
    }
    std::shared_ptr<const std::vector<uint64_t>> Next;
    if (Pt.Policy == TracePolicy::MIN) {
      assert(FullTrace && "MIN points require the materialized trace");
      auto &Slot = NextUses[{Pt.Config.LineWords, Pt.IgnoreHints}];
      if (!Slot)
        Slot = computeNextLineUses(*FullTrace, Pt.Config.LineWords,
                                   Pt.IgnoreHints);
      Next = Slot;
    }
    CacheModel Model(Pt.Config, Pt.Policy, std::move(Next),
                     Pt.IgnoreHints);
    Attribute(Model, I);
    Units.push_back({std::move(Model), {I}});
  }
}

SweepPointStream::~SweepPointStream() = default;

void SweepPointStream::reserve(uint64_t ExpectedEvents) {
  for (ReplayUnit &U : P->Units)
    if (auto *Stack = std::get_if<detail::StackDistanceStream>(&U.Kernel))
      Stack->reserve(ExpectedEvents);
}

void SweepPointStream::feed(const TraceEvent *Events, size_t Count) {
  if (Count == 0)
    return;
  Impl &I = *P;
  const uint64_t Base = I.RunningIndex;
  I.RunningIndex += Count;
  auto Replay = [&](ReplayUnit &U) {
    std::visit(
        [&](auto &K) {
          if constexpr (std::is_same_v<std::decay_t<decltype(K)>,
                                       CacheModel>)
            K.feed(Events, Count, Base);
          else
            K.feed(Events, Count);
        },
        U.Kernel);
  };
  const size_t Lanes = std::min<size_t>(I.Workers, I.Units.size());
  if (Lanes <= 1) {
    for (ReplayUnit &U : I.Units)
      Replay(U);
    return;
  }
  // Up to Workers threads claim units until none are left.
  std::atomic<size_t> Next{0};
  I.Pool->parallelFor(Lanes, [&](size_t) {
    for (size_t U; (U = Next.fetch_add(1, std::memory_order_relaxed)) <
                   I.Units.size();)
      Replay(I.Units[U]);
  });
}

std::vector<CacheStats> SweepPointStream::finish() {
  std::vector<CacheStats> Out(P->Points.size());
  for (ReplayUnit &U : P->Units)
    std::visit(
        [&](auto &K) {
          if constexpr (std::is_same_v<std::decay_t<decltype(K)>,
                                       detail::StackDistanceStream>) {
            std::vector<CacheStats> Part = K.finish();
            for (size_t J = 0; J != U.PointIdx.size(); ++J)
              Out[U.PointIdx[J]] = Part[J];
          } else {
            Out[U.PointIdx.front()] = K.finish();
          }
        },
        U.Kernel);
  if (P->Pool && P->Units.size() > 1) {
    NumParallelStreams.add();
    NumParallelUnits.add(P->Units.size());
    NumParallelWorkers.add(std::min<size_t>(P->Workers, P->Units.size()));
  }
  P->Violated.assign(Out.size(), nullptr);
  for (size_t I = 0; I != Out.size(); ++I) {
    P->Violated[I] =
        replayConservationViolation(Out[I], P->Points[I].Config);
    if (P->Violated[I])
      NumReplayViolations.add();
  }
  NumReplayCheckedPoints.add(Out.size());
  return Out;
}

const char *SweepPointStream::violatedLaw(size_t PointIndex) const {
  assert(PointIndex < P->Violated.size() && "call after finish()");
  return P->Violated[PointIndex];
}

RefAttribution SweepPointStream::takeAttribution(size_t PointIndex) {
  assert(PointIndex < P->Attrib.size() &&
         "sweep point index out of range");
  return std::move(P->Attrib[PointIndex]);
}

//===----------------------------------------------------------------------===//
// Batch wrappers: one chunk, then finish.
//===----------------------------------------------------------------------===//

std::vector<CacheStats>
urcm::replayTraceMulti(const std::vector<TraceEvent> &Trace,
                       const std::vector<SweepPoint> &Points) {
  SweepPointStream Stream(Points, &Trace, /*AllowStackFastPath=*/false);
  Stream.feed(Trace.data(), Trace.size());
  return Stream.finish();
}

bool urcm::packedReplayEligible(const SweepPoint &Point) {
  return detail::PackedOneWordStream::eligible(Point);
}

const char *urcm::replayConservationViolation(const CacheStats &S,
                                              const CacheConfig &Config) {
  if (S.ReadHits > S.Reads)
    return "ReadHits <= Reads";
  if (S.WriteHits > S.Writes)
    return "WriteHits <= Writes";
  if (Config.Write == WritePolicy::WriteBack && S.Fills != S.misses())
    return "Fills == misses (write-back)";
  if (S.WriteBacks > S.Evictions)
    return "WriteBacks <= Evictions";
  if (S.WriteBackWords != S.WriteBacks * Config.LineWords)
    return "WriteBackWords == WriteBacks * LineWords";
  if (S.DeadWriteBacksAvoided > S.DeadFrees)
    return "DeadWriteBacksAvoided <= DeadFrees";
  return nullptr;
}

bool urcm::stackDistanceEligible(const SweepPoint &Point) {
  return Point.Policy == TracePolicy::LRU &&
         Point.Config.Write == WritePolicy::WriteBack &&
         Point.Config.LineWords == 1 &&
         Point.Config.Assoc == Point.Config.NumLines &&
         Point.Config.NumLines > 0;
}

std::vector<CacheStats>
urcm::sweepLRUStackDistance(const std::vector<TraceEvent> &Trace,
                            const std::vector<uint32_t> &NumLines,
                            bool IgnoreHints) {
  detail::StackDistanceStream Stream(NumLines, IgnoreHints);
  Stream.reserve(Trace.size());
  Stream.feed(Trace.data(), Trace.size());
  return Stream.finish();
}

uint32_t urcm::resolveReplayWorkers(uint32_t Requested,
                                   const ThreadPool &Pool) {
  if (Requested != 0)
    return Requested;
  return Pool.size() + 1; // parallelFor's caller participates.
}

std::vector<CacheStats>
urcm::replaySweepPoints(const std::vector<TraceEvent> &Trace,
                        const std::vector<SweepPoint> &Points,
                        uint32_t Workers, ThreadPool *Pool) {
  SweepPointStream Stream(Points, &Trace, /*AllowStackFastPath=*/true,
                          Workers, Pool);
  Stream.reserve(Trace.size());
  Stream.feed(Trace.data(), Trace.size());
  return Stream.finish();
}

namespace {

/// A sweep point's canonical configuration and hint view: the replay
/// policy mapped through canonicalReplayPolicy and written into
/// Config.Policy (which replay ignores). Points with equal keys replay
/// identically, so the engine shares one replay between them and the
/// store keys its point records on it.
using PointKey = std::pair<CacheConfig, bool>;

PointKey pointKey(CacheConfig C, CachePolicy Policy, bool IgnoreHints) {
  C.Policy = canonicalReplayPolicy(C, Policy);
  return PointKey(C, IgnoreHints);
}

/// The stored record answering \p Key, or null.
const StoredPoint *findStoredPoint(const std::vector<StoredPoint> &Records,
                                   const PointKey &Key) {
  for (const StoredPoint &R : Records)
    if (R.Config == Key.first && R.IgnoreHints == Key.second)
      return &R;
  return nullptr;
}

/// "FIFO, 128 lines, 2-way, 1-word lines, write-back, hints stripped".
std::string describePoint(const SweepPoint &P) {
  const CacheConfig &C = P.Config;
  return std::string(cachePolicyName(P.Policy)) + ", " +
         std::to_string(C.NumLines) + " lines, " + std::to_string(C.Assoc) +
         "-way, " + std::to_string(C.LineWords) + "-word lines, " +
         (C.Write == WritePolicy::WriteBack ? "write-back" : "write-through") +
         (P.IgnoreHints ? ", hints stripped" : ", hinted");
}

/// Extracts what a finished stream holds besides its counters: the
/// attribution tables of every requesting point into \p Attrib
/// (parallel to \p Points; default rows elsewhere), and a diagnostic
/// naming the first point that broke a replay conservation law into
/// \p Violation (left empty when none did). Shared by the streaming,
/// store-serve and materialized paths.
void collectStreamResults(SweepPointStream &Stream,
                          const std::vector<SweepPoint> &Points,
                          std::vector<RefAttribution> &Attrib,
                          std::string &Violation) {
  Attrib.assign(Points.size(), RefAttribution());
  for (size_t R = 0; R != Points.size(); ++R) {
    if (Points[R].wantsAttribution())
      Attrib[R] = Stream.takeAttribution(R);
    if (const char *Law = Stream.violatedLaw(R); Law && Violation.empty())
      Violation = "replay conservation law '" + std::string(Law) +
                  "' violated by sweep point (" + describePoint(Points[R]) +
                  ")";
  }
}

/// Materialized-trace replay (the Belady MIN path): replaySweepPoints
/// plus the extras collectStreamResults extracts.
std::vector<CacheStats>
replayMaterialized(const std::vector<TraceEvent> &Trace,
                   const std::vector<SweepPoint> &Points, uint32_t Workers,
                   ThreadPool *Pool, std::vector<RefAttribution> &Attrib,
                   std::string &Violation) {
  SweepPointStream Stream(Points, &Trace, /*AllowStackFastPath=*/true,
                          Workers, Pool);
  Stream.reserve(Trace.size());
  Stream.feed(Trace.data(), Trace.size());
  std::vector<CacheStats> Out = Stream.finish();
  collectStreamResults(Stream, Points, Attrib, Violation);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// SweepEngine
//===----------------------------------------------------------------------===//

SweepEngine &SweepEngine::global() {
  static SweepEngine Engine;
  return Engine;
}

void SweepEngine::schedule(const std::string &Key,
                           const std::string &HintGroup,
                           const SimConfig &Base,
                           std::vector<SweepPoint> Points, Producer Run,
                           uint64_t ContentHash) {
  std::lock_guard<std::mutex> Lock(M);
  auto [It, Inserted] = Experiments.try_emplace(Key);
  if (!Inserted) {
    NumSweepMemoHits.add();
    return;
  }
  Experiment &E = It->second;
  E.HintGroup = HintGroup;
  E.Base = Base;
  E.Points = std::move(Points);
  E.Run = std::move(Run);
  E.ContentHash = ContentHash;
}

void SweepEngine::forwardStoreDiags(const DiagnosticEngine &Local) {
  if (!StoreDiags || Local.diagnostics().empty())
    return;
  std::lock_guard<std::mutex> Lock(M);
  for (const Diagnostic &D : Local.diagnostics())
    StoreDiags->report(D.Severity, D.Loc, D.Message);
}

bool SweepEngine::serveFromStore(Experiment &E,
                                 const std::vector<SweepPoint> &Rest,
                                 uint32_t Workers,
                                 uint64_t &TraceEvents,
                                 std::vector<CacheStats> &Replayed,
                                 std::vector<RefAttribution> &ReplayedAttrib,
                                 std::string &Violation) {
  DiagnosticEngine OpenDiags;
  TraceStoreReader Reader;
  const std::string Path = traceStorePath(StoreDir, E.ContentHash);
  const TraceStoreReader::OpenStatus Status =
      Reader.open(Path, E.ContentHash, OpenDiags);
  forwardStoreDiags(OpenDiags);
  if (Status != TraceStoreReader::OpenStatus::Ok)
    return false;

  // Warm hit: the Simulator is never invoked (no sim.run span on this
  // path; asserted by tests and check.sh). The store's content hash
  // deliberately ignores the data-cache policy and seed (the recorded
  // trace is policy-independent, so one stored trace serves the whole
  // policy grid). The summary records the policy and seed its cache row
  // was measured under: when they are the base configuration's, that
  // row is the base counters. Otherwise a synthetic point at the base
  // configuration joins the work below and its counters replace the
  // stored row.
  const std::optional<SummaryCachePolicy> &Measured =
      Reader.summaryCachePolicy();
  const bool SummaryServes = Measured && Measured->measures(E.Base.Cache);
  std::vector<SweepPoint> Work = Rest;
  if (!SummaryServes) {
    SweepPoint BasePt;
    BasePt.Config = E.Base.Cache;
    BasePt.Policy = E.Base.Cache.Policy;
    Work.push_back(BasePt);
  }

  // A point with a stored record reads its counters from it; the rest
  // (points the recording run did not replay, and every point that
  // wants attribution, whose table is not stored) decode and replay.
  // The writer never stores counters that break a conservation law, so
  // a CRC-valid record that does is hand-made or corrupt: the whole
  // file is rejected before anything is decoded.
  std::vector<CacheStats> Stats(Work.size());
  std::vector<SweepPoint> Live;
  std::vector<size_t> LiveIndex;
  for (size_t W = 0; W != Work.size(); ++W) {
    const SweepPoint &Pt = Work[W];
    const StoredPoint *Record =
        Pt.wantsAttribution()
            ? nullptr
            : findStoredPoint(Reader.storedPoints(),
                              pointKey(Pt.Config, Pt.Policy, Pt.IgnoreHints));
    if (!Record) {
      Live.push_back(Pt);
      LiveIndex.push_back(W);
      continue;
    }
    NumReplayCheckedPoints.add();
    if (const char *Law = replayConservationViolation(Record->Stats,
                                                      Pt.Config)) {
      NumReplayViolations.add();
      DiagnosticEngine Local;
      Local.error({}, "trace store: rejecting '" + Path +
                          "': stored sweep point (" + describePoint(Pt) +
                          ") breaks replay conservation law '" + Law +
                          "' (falling back to live simulation)");
      forwardStoreDiags(Local);
      return false;
    }
    Stats[W] = Record->Stats;
  }
  NumStorePointsServed.add(Work.size() - Live.size());

  telemetry::ScopedPhase Serve("sweep.store-serve",
                               Work.empty()   ? "summary"
                               : Live.empty() ? "points"
                               : Workers > 1  ? "parallel"
                                              : "streaming");
  bool Ok = true;
  std::vector<CacheStats> LiveStats;
  std::vector<RefAttribution> LiveAttrib;
  if (Live.empty()) {
    // Every counter came from the summary and its records: no decode
    // thread, no replay.
  } else if (SweepPointStream::streamable(Live)) {
    // Same shape as the live streaming path: decode overlaps replay
    // through the recycled-buffer SPSC pipeline, peak memory O(chunk).
    SweepPointStream Stream(Live, nullptr, /*AllowStackFastPath=*/true,
                            Workers, Pool);
    Stream.reserve(Reader.eventCount());
    const bool Metered = telemetry::enabled();
    uint64_t ReplayNs = 0;
    Ok = streamStoredTrace(
        Reader, [&](const TraceEvent *Events, size_t Count) {
          if (!Metered) {
            Stream.feed(Events, Count);
            return;
          }
          uint64_t T0 = telemetry::nowNanos();
          Stream.feed(Events, Count);
          ReplayNs += telemetry::nowNanos() - T0;
        });
    if (Ok) {
      uint64_t T0 = Metered ? telemetry::nowNanos() : 0;
      LiveStats = Stream.finish();
      if (T0)
        ReplayNs += telemetry::nowNanos() - T0;
      collectStreamResults(Stream, Live, LiveAttrib, Violation);
    }
    SweepReplayNs.add(ReplayNs);
  } else {
    // Belady MIN: materialize the decoded trace for its backward
    // next-use pass, exactly as the live path materializes its own.
    std::vector<TraceEvent> Trace;
    Ok = Reader.readAll(Trace);
    if (Ok) {
      telemetry::ScopedPhase Replay("sweep.replay");
      uint64_t T0 = telemetry::enabled() ? telemetry::nowNanos() : 0;
      LiveStats = replayMaterialized(Trace, Live, Workers, Pool, LiveAttrib,
                                     Violation);
      if (T0)
        SweepReplayNs.add(telemetry::nowNanos() - T0);
      NumSweepBytesFreed.add(Trace.capacity() * sizeof(TraceEvent));
    }
  }
  if (!Ok) {
    // Decode failed after a fully-validated open: the file changed
    // under us. The replay consumers saw a prefix, so their state is
    // unusable — report, discard, and let the caller run live.
    DiagnosticEngine Local;
    Local.error({}, "trace store: decode failed mid-stream for '" + Path +
                        "'; falling back to live simulation");
    forwardStoreDiags(Local);
    Violation.clear();
    return false;
  }
  // Merge the replayed points back into work order.
  ReplayedAttrib.assign(Work.size(), RefAttribution());
  for (size_t L = 0; L != Live.size(); ++L) {
    Stats[LiveIndex[L]] = LiveStats[L];
    ReplayedAttrib[LiveIndex[L]] = std::move(LiveAttrib[L]);
  }
  Replayed = std::move(Stats);
  E.Result = Reader.summary();
  if (SummaryServes) {
    NumStoreSummaryServed.add();
  } else {
    // The trailing synthetic point carries the base configuration's
    // counters; the stored summary keeps everything that really is
    // policy-invariant (ICache stats, occupancy, instruction counts).
    E.Result.Cache = Replayed.back();
    Replayed.pop_back();
    ReplayedAttrib.pop_back();
  }
  TraceEvents = Reader.eventCount();
  return true;
}

void SweepEngine::run() {
  // Snapshot the pending set; schedule() must not be called while run()
  // is in flight.
  std::vector<Experiment *> Pending;
  {
    std::lock_guard<std::mutex> Lock(M);
    for (auto &[Key, E] : Experiments)
      if (!E.Done)
        Pending.push_back(&E);
  }

  const uint32_t Workers = resolveReplayWorkers(ReplayWorkers, *Pool);

  Pool->parallelFor(Pending.size(), [&](size_t I) {
    Experiment &E = *Pending[I];
    telemetry::ScopedPhase ExpPhase("sweep.experiment");
    NumSweepExperiments.add();
    SimConfig Config = E.Base;

    // Each distinct cache behaviour replays once. Points compare by
    // pointKey (canonical configuration and hint view). A hinted point
    // equal to the base run's configuration reuses the base counters
    // (replay is bit-identical, so this is pure reuse); a point equal to
    // an earlier replayed one copies its counters; everything else
    // replays. The partition
    // depends only on configurations, so it is computed up front and
    // shared by both trace modes. Attribution points always replay —
    // no other counters come with their table — and so do MIN points.
    const PointKey BaseKey =
        pointKey(Config.Cache, Config.Cache.Policy, /*IgnoreHints=*/false);
    std::vector<SweepPoint> Rest;
    std::vector<PointKey> RestKey;
    std::vector<size_t> RestIndex, ReusedIndex;
    /// (point, index into Rest) for points answered by another's replay.
    std::vector<std::pair<size_t, size_t>> SharedIndex;
    for (size_t P = 0; P != E.Points.size(); ++P) {
      const SweepPoint &Pt = E.Points[P];
      countPolicyPoint(Pt.Policy);
      const PointKey Key = pointKey(Pt.Config, Pt.Policy, Pt.IgnoreHints);
      if (!Pt.wantsAttribution() && Pt.Policy != CachePolicy::MIN) {
        if (Key == BaseKey) {
          ReusedIndex.push_back(P);
          continue;
        }
        auto Same = std::find(RestKey.begin(), RestKey.end(), Key);
        if (Same != RestKey.end()) {
          SharedIndex.emplace_back(P, Same - RestKey.begin());
          continue;
        }
      }
      Rest.push_back(Pt);
      RestKey.push_back(Key);
      RestIndex.push_back(P);
    }

    uint64_t TraceEvents = 0;
    std::vector<CacheStats> Replayed;
    std::vector<RefAttribution> ReplayedAttrib;
    std::string Violation;
    const bool StoreEnabled = !StoreDir.empty() && E.ContentHash != 0;
    const bool Served =
        StoreEnabled && serveFromStore(E, Rest, Workers, TraceEvents,
                                       Replayed, ReplayedAttrib, Violation);

    // On a store miss the live run tees its trace into a writer so the
    // next process (or a rerun) is served warm. The writer observes; it
    // can never fail the experiment (open failure leaves it closed and
    // every call below a no-op).
    TraceStoreWriter Writer;
    if (!Served && StoreEnabled) {
      DiagnosticEngine WriterDiags;
      Writer.open(StoreDir, E.ContentHash, WriterDiags);
      forwardStoreDiags(WriterDiags);
    }

    if (Served) {
      // Nothing to simulate: base result and points came from the store.
    } else if (SweepPointStream::streamable(Rest)) {
      // Streaming mode: replay overlaps generation chunk by chunk and
      // the trace is never materialized — peak trace memory drops from
      // O(trace) to O(chunk), which is what lets the sweep methodology
      // scale to much larger workloads.
      if (Rest.empty()) {
        if (Writer.isOpen()) {
          // No replay consumers, but the trace is still worth
          // recording: stream it straight into the store.
          TraceRecordSink Record(Writer);
          Config.Sink = &Record;
          E.Result = E.Run(Config);
          Config.Sink = nullptr;
          TraceEvents = Writer.eventCount();
        } else {
          E.Result = E.Run(Config); // No replay consumers at all.
        }
      } else {
        // The span covers the whole streamed pipeline (replay overlaps
        // generation on this thread); SweepReplayNs meters the replay
        // kernels' active time alone. With several workers, each chunk's
        // feed() fans the points out across the pool via nested
        // parallelFor.
        telemetry::ScopedPhase Replay(
            "sweep.replay", Workers > 1 ? "parallel" : "streaming");
        uint64_t SizeHint = 0;
        {
          std::lock_guard<std::mutex> Lock(M);
          auto It = Hints.find(E.HintGroup);
          if (It != Hints.end())
            SizeHint = It->second;
        }
        // Replay work is interleaved with generation on this thread, so
        // it is metered by accumulated intervals rather than one span.
        // Recording rides the producer thread: the tap sees each chunk
        // before it is queued for replay, so a store miss costs one
        // encode pass overlapped with replay, not an extra trace walk.
        std::function<void(const TraceEvent *, size_t)> RecordTap;
        if (Writer.isOpen())
          RecordTap = [&Writer](const TraceEvent *Events, size_t Count) {
            Writer.append(Events, Count);
          };
        SweepPointStream Stream(Rest, nullptr, /*AllowStackFastPath=*/true,
                                Workers, Pool);
        if (SizeHint)
          Stream.reserve(SizeHint);
        const bool Metered = telemetry::enabled();
        uint64_t ReplayNs = 0;
        E.Result = streamTrace(
            Config, E.Run,
            [&](const TraceEvent *Events, size_t Count) {
              if (!Metered) {
                Stream.feed(Events, Count);
                return;
              }
              uint64_t T0 = telemetry::nowNanos();
              Stream.feed(Events, Count);
              ReplayNs += telemetry::nowNanos() - T0;
            },
            /*QueueDepth=*/4, &TraceEvents, RecordTap);
        if (E.Result.ok()) {
          uint64_t T0 = Metered ? telemetry::nowNanos() : 0;
          Replayed = Stream.finish();
          if (T0)
            ReplayNs += telemetry::nowNanos() - T0;
          collectStreamResults(Stream, Rest, ReplayedAttrib, Violation);
        }
        SweepReplayNs.add(ReplayNs);
      }
    } else {
      // Belady MIN needs the whole trace (backward next-use pass):
      // materialize it, replay, and drop it before the next experiment.
      Config.RecordTrace = true;
      {
        std::lock_guard<std::mutex> Lock(M);
        auto It = Hints.find(E.HintGroup);
        if (It != Hints.end())
          Config.TraceSizeHint = It->second;
      }
      E.Result = E.Run(Config);
      if (E.Result.ok()) {
        TraceEvents = E.Result.Trace.size();
        if (Writer.isOpen())
          Writer.append(E.Result.Trace.data(), E.Result.Trace.size());
        if (!Rest.empty()) {
          telemetry::ScopedPhase Replay("sweep.replay");
          uint64_t T0 = telemetry::enabled() ? telemetry::nowNanos() : 0;
          Replayed = replayMaterialized(E.Result.Trace, Rest, Workers,
                                        Pool, ReplayedAttrib, Violation);
          if (T0)
            SweepReplayNs.add(telemetry::nowNanos() - T0);
        }
      }
      NumSweepBytesFreed.add(E.Result.Trace.capacity() *
                             sizeof(TraceEvent));
      E.Result.Trace.clear();
      E.Result.Trace.shrink_to_fit();
    }

    // Counters that break a conservation law fail the experiment, like a
    // coherence violation fails a live run (and never reach the store).
    if (E.Result.ok() && !Violation.empty())
      E.Result.Error = Violation;

    if (Writer.isOpen()) {
      if (E.Result.ok()) {
        // Every replayed point's counters ride along, so the next run
        // asking for the same points reads them instead of replaying.
        // Attribution points are left out: their tables are not stored.
        std::vector<StoredPoint> Records;
        for (size_t R = 0; R != Rest.size(); ++R)
          if (!Rest[R].wantsAttribution() &&
              !findStoredPoint(Records, RestKey[R]))
            Records.push_back({RestKey[R].first, RestKey[R].second,
                               Replayed[R]});
        DiagnosticEngine CommitDiags;
        Writer.commit(E.Result, Config.Cache, CommitDiags, Records);
        forwardStoreDiags(CommitDiags);
      } else {
        Writer.discard(); // Never publish a failed run's trace.
      }
    }

    if (E.Result.ok()) {
      {
        std::lock_guard<std::mutex> Lock(M);
        uint64_t &Hint = Hints[E.HintGroup];
        Hint = std::max<uint64_t>(Hint, TraceEvents);
      }
      NumSweepTraceEvents.add(TraceEvents);
      NumSweepPointsReused.add(ReusedIndex.size() + SharedIndex.size());
      NumSweepPointsReplayed.add(RestIndex.size());
      E.Stats.resize(E.Points.size());
      for (size_t P : ReusedIndex)
        E.Stats[P] = E.Result.Cache;
      for (auto [P, R] : SharedIndex)
        E.Stats[P] = Replayed[R];
      E.Attrib.resize(E.Points.size());
      for (size_t R = 0; R != RestIndex.size(); ++R) {
        E.Stats[RestIndex[R]] = Replayed[R];
        if (R < ReplayedAttrib.size())
          E.Attrib[RestIndex[R]] = std::move(ReplayedAttrib[R]);
      }
    }
    std::lock_guard<std::mutex> Lock(M);
    E.Done = true;
  });
}

const SweepEngine::Experiment &
SweepEngine::finished(const std::string &Key) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Experiments.find(Key);
  assert(It != Experiments.end() && It->second.Done &&
         "experiment was not scheduled/run");
  return It->second;
}

bool SweepEngine::done(const std::string &Key) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Experiments.find(Key);
  return It != Experiments.end() && It->second.Done;
}

const SimResult &SweepEngine::base(const std::string &Key) const {
  return finished(Key).Result;
}

const CacheStats &SweepEngine::point(const std::string &Key,
                                     size_t Index) const {
  const Experiment &E = finished(Key);
  assert(Index < E.Stats.size() && "sweep point index out of range");
  return E.Stats[Index];
}

const RefAttribution &SweepEngine::attribution(const std::string &Key,
                                               size_t Index) const {
  const Experiment &E = finished(Key);
  assert(Index < E.Attrib.size() && "sweep point index out of range");
  assert(E.Points[Index].wantsAttribution() &&
         "point did not request attribution (set "
         "SweepPoint::AttributionRefs)");
  return E.Attrib[Index];
}

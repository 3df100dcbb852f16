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
// bit-identical to CacheModel by tests/sweepengine_test.cpp):
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
// replaySweepPoints) are wrappers that feed the trace in chunk-sized
// slices, so the streaming pipeline (urcm/sim/TraceStream.h) and the
// materialized-trace path execute the same per-event code and cannot
// diverge. The stack-distance stream's
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
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <new>
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
URCM_STAT(NumStoreHits, "sim.store.hits",
          "Experiments served whole from the persistent trace store");
URCM_STAT(NumStoreMisses, "sim.store.misses",
          "Experiments that consulted the trace store and ran live (no "
          "file, a rejected file, or a point without a record)");
URCM_STAT(NumStoreSummaryServed, "sim.store.summary-served",
          "Warm experiments whose base counters came from the stored "
          "summary (no base-config replay)");
URCM_STAT(NumStorePointsServed, "sim.store.points-served",
          "Sweep points answered from a stored point record (no decode, "
          "no replay)");
URCM_STAT(NumFilterEventsIn, "sweep.filter.events-in",
          "Trace events fed to repeat filters (one count per filter)");
URCM_STAT(NumFilterEventsKept, "sweep.filter.events-kept",
          "Trace events repeat filters kept for their points to replay");
URCM_STAT(NumFilterPoints, "sweep.filter.points",
          "Hint-stripped sweep points replayed over a repeat filter's kept "
          "events");
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
/// itself, so all of them read the same chunk, except a unit fed by a
/// repeat filter (Stage), which reads that filter's kept events. Padded
/// to its own cache lines because CacheModel bumps its counters in
/// place: two units sharing a line would ping-pong it between the
/// workers replaying them.
struct alignas(DestructiveInterferenceSize) ReplayUnit {
  std::variant<detail::StackDistanceStream, detail::PackedOneWordStream,
               CacheModel>
      Kernel;
  std::vector<size_t> PointIdx;
  size_t Stage = 0; // Index into Impl::Stages; read for filtered units only.
};

struct FreeDeleter {
  void operator()(void *Ptr) const { std::free(Ptr); }
};

/// A repeat filter (detail::RepeatFilter) and its two kept-event
/// buffers. It filters chunk k into Kept[k & 1] while its units replay
/// Kept[(k - 1) & 1], so the filter and its units are independent jobs
/// of one fan-out. The buffers are malloc'd, not zero-filled: only the
/// pages the filter writes become resident.
struct alignas(DestructiveInterferenceSize) FilterStage {
  explicit FilterStage(uint32_t Sets) : Filter(Sets) {}

  detail::RepeatFilter Filter;
  std::unique_ptr<TraceEvent, FreeDeleter> Kept[2];
  size_t Capacity[2] = {0, 0};
  size_t KeptCount[2] = {0, 0};
  uint64_t EventsIn = 0;
  uint64_t EventsKept = 0;
  size_t Points = 0;

  /// Makes Kept[Buf] hold at least \p Count events (its contents are
  /// dead: the units finished reading it a fan-out ago).
  void reserve(unsigned Buf, size_t Count) {
    if (Count <= Capacity[Buf])
      return;
    Kept[Buf].reset();
    Kept[Buf].reset(
        static_cast<TraceEvent *>(std::malloc(Count * sizeof(TraceEvent))));
    if (!Kept[Buf])
      throw std::bad_alloc();
    Capacity[Buf] = Count;
  }

  void filter(unsigned Buf, const TraceEvent *Events, size_t Count) {
    KeptCount[Buf] = Filter.filter(Events, Count, Kept[Buf].get());
    EventsIn += Count;
    EventsKept += KeptCount[Buf];
  }
};

/// Relative per-event cost of a point's kernel, for the parallel claim
/// order: the generic model, then the packed kernel's costlier shapes,
/// then its two-way LRU (the cheapest and most common point).
int kernelCost(const SweepPoint &P) {
  if (!detail::PackedOneWordStream::eligible(P))
    return 2;
  return P.Policy != CachePolicy::LRU || P.Config.Assoc > 2 ? 1 : 0;
}

/// Advances \p U over \p Count events starting at trace position \p Base.
void replayUnit(ReplayUnit &U, const TraceEvent *Events, size_t Count,
                uint64_t Base) {
  std::visit(
      [&](auto &K) {
        if constexpr (std::is_same_v<std::decay_t<decltype(K)>, CacheModel>)
          K.feed(Events, Count, Base);
        else
          K.feed(Events, Count);
      },
      U.Kernel);
}

} // namespace

struct SweepPointStream::Impl {
  std::vector<SweepPoint> Points;
  /// Units[0, RawUnits) read the chunk, costliest first, so the parallel
  /// claim order balances; the rest read a filter stage's kept events.
  std::vector<ReplayUnit> Units;
  size_t RawUnits = 0;
  std::vector<FilterStage> Stages;
  uint64_t Chunks = 0; // Chunks fed so far; picks the stages' buffers.
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

  /// Runs Job(0) .. Job(Jobs - 1): up to Workers threads claim them in
  /// order until none are left.
  template <typename Fn> void fanOut(size_t Jobs, const Fn &Job) {
    const size_t Lanes = std::min<size_t>(Workers, Jobs);
    if (Lanes <= 1) {
      for (size_t J = 0; J != Jobs; ++J)
        Job(J);
      return;
    }
    std::atomic<size_t> Next{0};
    Pool->parallelFor(Lanes, [&](size_t) {
      for (size_t J; (J = Next.fetch_add(1, std::memory_order_relaxed)) <
                     Jobs;)
        Job(J);
    });
  }
};

bool SweepPointStream::streamable(const std::vector<SweepPoint> &Points) {
  return std::none_of(Points.begin(), Points.end(), [](const SweepPoint &P) {
    return P.Policy == CachePolicy::MIN;
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
    P->RawUnits = Units.size();
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
  // Filter-eligible points sharing a set count share one repeat filter;
  // a filter pays only where at least two points share it.
  std::map<uint32_t, size_t> FilterShare;
  for (const SweepPoint &Pt : Pts)
    if (detail::RepeatFilter::eligible(Pt))
      ++FilterShare[detail::RepeatFilter::sets(Pt)];
  std::map<uint32_t, size_t> StageOf;
  for (auto [Sets, Count] : FilterShare)
    if (Count >= 2) {
      StageOf[Sets] = P->Stages.size();
      P->Stages.emplace_back(Sets);
    }
  std::vector<ReplayUnit> Filtered;
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
      if (detail::RepeatFilter::eligible(Pt)) {
        auto Stage = StageOf.find(detail::RepeatFilter::sets(Pt));
        if (Stage != StageOf.end()) {
          ++P->Stages[Stage->second].Points;
          Filtered.push_back({std::move(Packed), {I}, Stage->second});
          continue;
        }
      }
      Attribute(Packed, I);
      Units.push_back({std::move(Packed), {I}});
      continue;
    }
    std::shared_ptr<const std::vector<uint64_t>> Next;
    if (Pt.Policy == CachePolicy::MIN) {
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
  P->RawUnits = Units.size();
  std::move(Filtered.begin(), Filtered.end(), std::back_inserter(Units));
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
  const unsigned Cur = I.Chunks++ & 1, Prev = Cur ^ 1;
  for (FilterStage &S : I.Stages)
    S.reserve(Cur, Count);
  // One fan-out: the raw units replay this chunk, each filter filters
  // it, and the filtered units replay the previous chunk's kept events
  // (finish() drains the last).
  const size_t Raw = I.RawUnits, Filters = Raw + I.Stages.size();
  I.fanOut(I.Units.size() + I.Stages.size(), [&](size_t J) {
    if (J < Raw) {
      replayUnit(I.Units[J], Events, Count, Base);
    } else if (J < Filters) {
      I.Stages[J - Raw].filter(Cur, Events, Count);
    } else {
      ReplayUnit &U = I.Units[J - I.Stages.size()];
      const FilterStage &S = I.Stages[U.Stage];
      replayUnit(U, S.Kept[Prev].get(), S.KeptCount[Prev], 0);
    }
  });
}

std::vector<CacheStats> SweepPointStream::finish() {
  Impl &I = *P;
  if (I.Chunks != 0) {
    const unsigned Last = (I.Chunks - 1) & 1;
    I.fanOut(I.Units.size() - I.RawUnits, [&](size_t J) {
      ReplayUnit &U = I.Units[I.RawUnits + J];
      const FilterStage &S = I.Stages[U.Stage];
      replayUnit(U, S.Kept[Last].get(), S.KeptCount[Last], 0);
    });
  }
  std::vector<CacheStats> Out(I.Points.size());
  for (ReplayUnit &U : I.Units)
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
  if (I.Pool && I.Units.size() > 1) {
    NumParallelStreams.add();
    NumParallelUnits.add(I.Units.size());
    NumParallelWorkers.add(std::min<size_t>(I.Workers, I.Units.size()));
  }
  I.Violated.assign(Out.size(), nullptr);
  // A filtered point hits on every access its filter dropped; the
  // filter must account for every event it was fed.
  for (auto U = I.Units.begin() + I.RawUnits; U != I.Units.end(); ++U) {
    const FilterStage &S = I.Stages[U->Stage];
    const uint64_t Reads = S.Filter.droppedReads();
    const uint64_t Writes = S.Filter.droppedWrites();
    const size_t Pt = U->PointIdx.front();
    Out[Pt].Reads += Reads;
    Out[Pt].ReadHits += Reads;
    Out[Pt].Writes += Writes;
    Out[Pt].WriteHits += Writes;
    if (S.EventsKept + Reads + Writes != S.EventsIn)
      I.Violated[Pt] = "kept + dropped reads + dropped writes == events in";
  }
  for (size_t Pt = 0; Pt != Out.size(); ++Pt) {
    if (!I.Violated[Pt])
      I.Violated[Pt] =
          replayConservationViolation(Out[Pt], I.Points[Pt].Config);
    if (!I.Violated[Pt] && I.Points[Pt].wantsAttribution())
      I.Violated[Pt] = attributionConservationViolation(I.Attrib[Pt], Out[Pt]);
  }
  for (const FilterStage &S : I.Stages) {
    NumFilterEventsIn.add(S.EventsIn);
    NumFilterEventsKept.add(S.EventsKept);
    NumFilterPoints.add(S.Points);
  }
  for (const char *Law : I.Violated)
    if (Law)
      NumReplayViolations.add();
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
// Batch wrappers: the trace in streamed-chunk slices, then finish.
//===----------------------------------------------------------------------===//

namespace {

/// Feeds \p Trace in slices of the streaming pipeline's chunk size, so a
/// batch replay pipelines its repeat filters as a streamed one does
/// (one whole-trace chunk would leave every kept event to finish(), in
/// a buffer as large as the trace).
void feedSlices(SweepPointStream &Stream,
                const std::vector<TraceEvent> &Trace) {
  const size_t Slice = SimConfig().TraceChunkEvents;
  for (size_t At = 0; At < Trace.size(); At += Slice)
    Stream.feed(Trace.data() + At, std::min(Slice, Trace.size() - At));
}

} // namespace

std::vector<CacheStats>
urcm::replayTraceMulti(const std::vector<TraceEvent> &Trace,
                       const std::vector<SweepPoint> &Points) {
  SweepPointStream Stream(Points, &Trace, /*AllowStackFastPath=*/false);
  feedSlices(Stream, Trace);
  return Stream.finish();
}

bool urcm::packedReplayEligible(const SweepPoint &Point) {
  return detail::PackedOneWordStream::eligible(Point);
}

bool urcm::stackDistanceEligible(const SweepPoint &Point) {
  return Point.Policy == CachePolicy::LRU &&
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
  feedSlices(Stream, Trace);
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
/// \p Violation (left empty when none did). Shared by the streaming and
/// materialized paths.
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
  feedSlices(Stream, Trace);
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
  // A cache no kernel can build fails the experiment here, before any
  // simulation or replay could trip over it; run() skips it.
  std::string Error = liveCacheConfigError(Base);
  for (size_t I = 0; I != E.Points.size() && Error.empty(); ++I)
    if (const char *Bad =
            validateCacheConfig(E.Points[I].Config, E.Points[I].Policy))
      Error = "invalid cache configuration: sweep point " +
              std::to_string(I) + " (" + describePoint(E.Points[I]) +
              "): " + Bad;
  if (!Error.empty()) {
    E.Result.Error = std::move(Error);
    E.Done = true;
  }
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
                                 std::vector<CacheStats> &Stats,
                                 std::vector<bool> &FromRecord,
                                 std::vector<StoredPoint> &Carried) {
  DiagnosticEngine OpenDiags;
  TraceStoreReader Reader;
  const std::string Path = traceStorePath(StoreDir, E.ContentHash);
  TraceStoreReader::OpenStatus Status;
  {
    // Validation is store work, billed to the store layer.
    telemetry::ScopedPhase Validate("sweep.store-serve", "validate");
    Status = Reader.open(Path, E.ContentHash, OpenDiags);
  }
  forwardStoreDiags(OpenDiags);
  if (Status != TraceStoreReader::OpenStatus::Ok)
    return false;

  // The store's content hash deliberately ignores the data-cache policy
  // and seed (the program's reference stream is policy-independent, so
  // one file serves the whole policy grid). The summary records the
  // policy and seed its cache row was measured under: when they are the
  // base configuration's, that row is the base counters. Otherwise a
  // record for the base configuration must supply them.
  const std::optional<SummaryCachePolicy> &Measured =
      Reader.summaryCachePolicy();
  const bool SummaryServes = Measured && Measured->measures(E.Base.Cache);
  std::vector<SweepPoint> Work = Rest;
  std::vector<StoredPoint> Records = Reader.storedPoints();
  if (!SummaryServes) {
    SweepPoint BasePt;
    BasePt.Config = E.Base.Cache;
    BasePt.Policy = E.Base.Cache.Policy;
    Work.push_back(BasePt);
    // A row measured under another policy or seed is the record of its
    // own configuration (the geometry is salted into the hash), so runs
    // with different base policies do not keep displacing each other.
    if (Measured) {
      CacheConfig Row = E.Base.Cache;
      Row.Policy = Measured->Policy;
      Row.Seed = Measured->Seed;
      const PointKey Key = pointKey(Row, Row.Policy, /*IgnoreHints=*/false);
      if (!findStoredPoint(Records, Key))
        Records.push_back({Key.first, Key.second, Reader.summary().Cache});
    }
  }

  // Attribution points never have a record: their tables are not
  // stored. The writer never stores counters that break a conservation
  // law, so a CRC-valid record that does is hand-made or corrupt: the
  // whole file is rejected and nothing of it is used or carried.
  std::vector<const StoredPoint *> Found(Work.size());
  for (size_t W = 0; W != Work.size(); ++W) {
    const SweepPoint &Pt = Work[W];
    const StoredPoint *Record =
        Pt.wantsAttribution()
            ? nullptr
            : findStoredPoint(Records,
                              pointKey(Pt.Config, Pt.Policy, Pt.IgnoreHints));
    if (!Record)
      continue;
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
    Found[W] = Record;
  }
  size_t Answered = 0;
  for (size_t R = 0; R != Rest.size(); ++R)
    if (Found[R]) {
      Stats[R] = Found[R]->Stats;
      FromRecord[R] = true;
      ++Answered;
    }
  if (std::find(Found.begin(), Found.end(), nullptr) != Found.end()) {
    // A partial miss: the live run replays only the points without a
    // record and re-records the file with these records kept.
    NumStorePointsServed.add(Answered);
    Carried = std::move(Records);
    return false;
  }

  // Warm hit: the Simulator is never invoked (no sim.run span on this
  // path; asserted by tests and check.sh).
  telemetry::ScopedPhase Serve("sweep.store-serve",
                               Work.empty() ? "summary" : "points");
  // Scheduled points only: a base answered by a record instead of the
  // summary is not one, so reused + replayed + served = scheduled.
  NumStorePointsServed.add(Rest.size());
  E.Result = Reader.summary();
  if (SummaryServes) {
    NumStoreSummaryServed.add();
  } else {
    // The base configuration's record replaces the stored row; the rest
    // of the summary is policy-invariant (ICache stats, occupancy,
    // instruction counts).
    E.Result.Cache = Found.back()->Stats;
  }
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

  // The store directory is checked once per run: one that cannot be used
  // (a file, a path that cannot be created) is one diagnostic and a
  // store-less run, not a reader and a writer error per experiment.
  bool StoreUsable =
      !StoreDir.empty() &&
      std::any_of(Pending.begin(), Pending.end(),
                  [](const Experiment *E) { return E->ContentHash != 0; });
  if (StoreUsable) {
    std::error_code EC;
    std::filesystem::create_directories(StoreDir, EC);
    if (EC || !std::filesystem::is_directory(StoreDir, EC)) {
      DiagnosticEngine DirDiags;
      DirDiags.error({}, "trace store: cannot use '" + StoreDir + "': " +
                             (EC ? EC.message() : "not a directory") +
                             " (running without the store)");
      forwardStoreDiags(DirDiags);
      StoreUsable = false;
    }
  }

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

    // A store file answers the whole experiment, or some of its points:
    // those take the file's counters and only the others replay live.
    uint64_t TraceEvents = 0;
    std::vector<CacheStats> Replayed(Rest.size());
    std::vector<RefAttribution> ReplayedAttrib(Rest.size());
    std::vector<bool> FromRecord(Rest.size(), false);
    std::vector<StoredPoint> Carried;
    std::string Violation;
    const bool StoreEnabled = StoreUsable && E.ContentHash != 0;
    const bool Served =
        StoreEnabled && serveFromStore(E, Rest, Replayed, FromRecord, Carried);
    if (StoreEnabled)
      (Served ? NumStoreHits : NumStoreMisses).add();
    std::vector<SweepPoint> Live;
    std::vector<size_t> LiveIndex;
    for (size_t R = 0; R != Rest.size() && !Served; ++R)
      if (!FromRecord[R]) {
        Live.push_back(Rest[R]);
        LiveIndex.push_back(R);
      }
    std::vector<CacheStats> LiveStats;
    std::vector<RefAttribution> LiveAttrib;

    if (Served) {
      // Nothing to simulate: base result and points came from the store.
    } else if (Live.empty()) {
      E.Result = E.Run(Config); // No replay consumers at all.
    } else if (SweepPointStream::streamable(Live)) {
      // Streaming mode: replay overlaps generation chunk by chunk and
      // the trace is never materialized — peak trace memory drops from
      // O(trace) to O(chunk), which is what lets the sweep methodology
      // scale to much larger workloads. The span covers the whole
      // streamed pipeline (replay overlaps generation on this thread);
      // SweepReplayNs meters the replay kernels' active time alone. With
      // several workers, each chunk's feed() fans the points out across
      // the pool via nested parallelFor.
      telemetry::ScopedPhase Replay("sweep.replay",
                                    Workers > 1 ? "parallel" : "streaming");
      uint64_t SizeHint = 0;
      {
        std::lock_guard<std::mutex> Lock(M);
        auto It = Hints.find(E.HintGroup);
        if (It != Hints.end())
          SizeHint = It->second;
      }
      // Replay work is interleaved with generation on this thread, so it
      // is metered by accumulated intervals rather than one span.
      SweepPointStream Stream(Live, nullptr, /*AllowStackFastPath=*/true,
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
          /*QueueDepth=*/4, &TraceEvents);
      if (E.Result.ok()) {
        uint64_t T0 = Metered ? telemetry::nowNanos() : 0;
        LiveStats = Stream.finish();
        if (T0)
          ReplayNs += telemetry::nowNanos() - T0;
        collectStreamResults(Stream, Live, LiveAttrib, Violation);
      }
      SweepReplayNs.add(ReplayNs);
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
        telemetry::ScopedPhase Replay("sweep.replay");
        uint64_t T0 = telemetry::enabled() ? telemetry::nowNanos() : 0;
        LiveStats = replayMaterialized(E.Result.Trace, Live, Workers, Pool,
                                       LiveAttrib, Violation);
        if (T0)
          SweepReplayNs.add(telemetry::nowNanos() - T0);
      }
      NumSweepBytesFreed.add(E.Result.Trace.capacity() *
                             sizeof(TraceEvent));
      E.Result.Trace.clear();
      E.Result.Trace.shrink_to_fit();
    }
    for (size_t L = 0; L != LiveStats.size(); ++L) {
      Replayed[LiveIndex[L]] = LiveStats[L];
      ReplayedAttrib[LiveIndex[L]] = std::move(LiveAttrib[L]);
    }

    // Counters that break a conservation law fail the experiment, like a
    // coherence violation fails a live run (and never reach the store).
    if (E.Result.ok() && !Violation.empty())
      E.Result.Error = Violation;

    // A live run records its summary and the counters of every point it
    // needed, next to the records a valid file already held, so the next
    // run asking for any of them is served warm. Attribution points are
    // left out: their tables are not stored. The store is an observer:
    // writing can never fail the experiment. Nothing is recorded over a
    // directory at the store path: the rename cannot replace one, and
    // the reader has already reported it.
    std::error_code EC;
    if (!Served && StoreEnabled && E.Result.ok() &&
        !std::filesystem::is_directory(
            traceStorePath(StoreDir, E.ContentHash), EC)) {
      std::vector<StoredPoint> Records = std::move(Carried);
      for (size_t R = 0; R != Rest.size(); ++R)
        if (!Rest[R].wantsAttribution() &&
            !findStoredPoint(Records, RestKey[R]))
          Records.push_back({RestKey[R].first, RestKey[R].second,
                             Replayed[R]});
      DiagnosticEngine WriterDiags;
      TraceStoreWriter Writer;
      if (Writer.open(StoreDir, E.ContentHash, WriterDiags))
        Writer.commit(E.Result, Config.Cache, WriterDiags, Records);
      forwardStoreDiags(WriterDiags);
    }

    if (E.Result.ok()) {
      {
        std::lock_guard<std::mutex> Lock(M);
        uint64_t &Hint = Hints[E.HintGroup];
        Hint = std::max<uint64_t>(Hint, TraceEvents);
      }
      NumSweepTraceEvents.add(TraceEvents);
      NumSweepPointsReused.add(ReusedIndex.size() + SharedIndex.size());
      NumSweepPointsReplayed.add(Live.size());
      E.Stats.resize(E.Points.size());
      for (size_t P : ReusedIndex)
        E.Stats[P] = E.Result.Cache;
      for (auto [P, R] : SharedIndex)
        E.Stats[P] = Replayed[R];
      E.Attrib.resize(E.Points.size());
      for (size_t R = 0; R != RestIndex.size(); ++R) {
        E.Stats[RestIndex[R]] = Replayed[R];
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

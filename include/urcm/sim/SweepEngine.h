//===- urcm/sim/SweepEngine.h - Compile-once/replay-many sweeps -*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sweep engine that powers the paper-reproduction experiment grids
/// (cache-size sweep E10, replacement policies E8, line-size sweep E9,
/// the urcm_report tool). A sweep evaluates one workload at many cache
/// geometries/policies; the recorded data-reference trace of a program
/// is independent of cache geometry (the cache is an observer — control
/// flow never consults it), so the engine runs the expensive functional
/// Simulator exactly once per compiled program and serves every sweep
/// point from cheap stats-only replay. Three layers:
///
///  1. compile-once/replay-many: SweepEngine memoizes one traced base
///     run per experiment key and frees each trace as soon as its sweep
///     points are served (traces run to hundreds of MB);
///  2. chunked multi-configuration replay: SweepPointStream advances
///     every requested configuration over each trace chunk while the
///     chunk is hot; sweepLRUStackDistance is a Mattson-style stack-
///     distance pass that produces exact LRU counters for *every*
///     fully-associative size in one walk, extended with hole-based
///     bookkeeping so the paper's bypass and last-reference (dead-tag)
///     hints remain exact (a freed line leaves a "hole" at its stack
///     depth, which encodes precisely the set of capacities that
///     gained a free slot);
///  3. a thread pool (urcm/support/ThreadPool.h) runs independent
///     experiments concurrently, and the points of one experiment
///     replay concurrently too (point-parallel replay).
///
/// Replay counters are bit-identical to a live run's (every kernel is
/// pinned against CacheModel, which is also the live cache for every
/// geometry but the paper's two-way fast path; asserted by
/// tests/sweepengine_test.cpp), so exhibits that moved from
/// re-simulation to replay print unchanged numbers.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_SWEEPENGINE_H
#define URCM_SIM_SWEEPENGINE_H

#include "urcm/sim/RefAttribution.h"
#include "urcm/sim/CacheModel.h"
#include "urcm/support/ThreadPool.h"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace urcm {

class DiagnosticEngine;
struct StoredPoint;

/// One sweep point: a cache geometry plus the replacement policy to
/// replay it under — any CachePolicy, including the replay-only MIN
/// and LivenessBypass (urcm/sim/CachePolicy.h).
///
/// IgnoreHints replays the point with every bypass/last-reference hint
/// bit cleared — the conventional scheme's view of the same reference
/// stream. The unified-management pass only flips hint bits on an
/// otherwise identical instruction stream (see fig5_traffic_reduction),
/// so a hint-stripped replay of a unified-scheme trace equals a run of
/// the conventionally-compiled program: one traced simulation serves
/// both schemes.
struct SweepPoint {
  CacheConfig Config;
  CachePolicy Policy = CachePolicy::LRU;
  bool IgnoreHints = false;
  /// Non-zero requests per-static-reference attribution
  /// (urcm/sim/RefAttribution.h) for this point; the value is the
  /// program's static reference count (MachineProgram::RefTable.size()),
  /// which sizes the table. Attribution pins the point to the
  /// per-event replay kernels — the stack-distance fast path answers
  /// many capacities from shared positional state and cannot attribute
  /// — and disables the engine's counter sharing (base reuse and
  /// equivalent points), so it costs replay time; zero (the default)
  /// keeps every fast path.
  uint32_t AttributionRefs = 0;

  bool wantsAttribution() const { return AttributionRefs != 0; }
};

/// Replays every point with the per-event kernels (never the
/// stack-distance fast path). Counters are identical to calling
/// replayTrace per point (each point's state is independent). MIN
/// points sharing a line size share one next-use precomputation.
std::vector<CacheStats>
replayTraceMulti(const std::vector<TraceEvent> &Trace,
                 const std::vector<SweepPoint> &Points);

/// True if \p Point replays on the packed one-word kernel rather than
/// the generic CacheModel: one-word lines, write-back, a power-of-two
/// set count, associativity 1, 2, 4 or 8, and any policy but MIN.
bool packedReplayEligible(const SweepPoint &Point);

/// True if \p Point can be served by the stack-distance fast path:
/// fully-associative LRU, write-back, one-word lines (the paper's
/// preferred line size).
bool stackDistanceEligible(const SweepPoint &Point);

/// Exact one-pass Mattson sweep: returns, for each entry of
/// \p NumLines, the counters of a fully-associative LRU write-back
/// cache with that many one-word lines — byte-identical to
/// replayTrace on the same geometry. Bypass and last-reference hints
/// are honoured exactly via hole-based stack bookkeeping; with
/// \p IgnoreHints they are stripped instead (every event is a plain
/// through-cache access).
std::vector<CacheStats>
sweepLRUStackDistance(const std::vector<TraceEvent> &Trace,
                      const std::vector<uint32_t> &NumLines,
                      bool IgnoreHints = false);

/// Resolves a replay worker-count request: 0 ("auto") becomes the
/// pool's thread count plus one (the parallelFor caller works too),
/// anything else is taken as given. Always >= 1.
uint32_t resolveReplayWorkers(uint32_t Requested, const ThreadPool &Pool);

/// Replays \p Points from \p Trace, dispatching to the stack-distance
/// fast path when every point is eligible and to the per-point kernels
/// otherwise. \p Workers > 1 replays disjoint subsets of the points
/// concurrently on \p Pool (null: the global pool). Results are
/// identical either way.
std::vector<CacheStats>
replaySweepPoints(const std::vector<TraceEvent> &Trace,
                  const std::vector<SweepPoint> &Points,
                  uint32_t Workers = 1, ThreadPool *Pool = nullptr);

/// Chunk-driven replay of a set of sweep points: the streaming form of
/// replaySweepPoints, advanced one trace chunk at a time so replay can
/// start before generation finishes (see urcm/sim/TraceStream.h).
/// Counters do not depend on how the trace is cut into chunks, and the
/// batch entry points are wrappers over this class (fed in 64 Ki-event
/// slices), so the two modes cannot diverge. Internally dispatches to
/// the same kernels: the
/// hole-extended Mattson stack-distance sweep (one walk per hint view)
/// when every point is eligible (unless \p AllowStackFastPath is false,
/// which pins the per-point kernels — that is replayTraceMulti's
/// contract), else one kernel per point: the packed one-word kernel
/// (packedReplayEligible) or the policy-generic CacheModel.
///
/// Point-parallel replay: sweep points never share state, so with
/// \p Workers > 1 each feed() fans the kernels out across up to that
/// many threads of \p Pool, every thread reading the same chunk. The
/// costliest kernels are claimed first. Every point is replayed by
/// exactly one kernel in trace order, so counters and attribution
/// tables are bit-identical for every worker count.
///
/// Repeat filter: hint-stripped packed points under LRU, FIFO, Random,
/// TreePLRU or SRRIP without attribution, at least two of them at one
/// set count, share a filter that drops the third and later accesses
/// of a same-address run in a set (each a hit that changes no state),
/// and replay only the kept events, one chunk behind the filter;
/// finish() drains the last chunk and adds the dropped accesses to
/// their hit counters. Counters are bit-identical to unfiltered replay.
class SweepPointStream {
public:
  /// True when every point replays in one forward pass. Belady MIN
  /// points do not: their next-use precomputation reads the whole trace
  /// backwards, so they require batch mode (\p FullTrace).
  static bool streamable(const std::vector<SweepPoint> &Points);

  /// \p FullTrace must be non-null when any point uses CachePolicy::MIN
  /// and is ignored otherwise. \p Workers is a resolved count (>= 1;
  /// see resolveReplayWorkers); \p Pool null uses the global pool.
  explicit SweepPointStream(std::vector<SweepPoint> Points,
                            const std::vector<TraceEvent> *FullTrace =
                                nullptr,
                            bool AllowStackFastPath = true,
                            uint32_t Workers = 1, ThreadPool *Pool = nullptr);
  SweepPointStream(const SweepPointStream &) = delete;
  SweepPointStream &operator=(const SweepPointStream &) = delete;
  ~SweepPointStream();

  /// Pre-sizes internal structures for an expected total event count (a
  /// pure allocation hint the batch wrappers use; streaming callers,
  /// who do not know the trace length, simply grow on demand).
  void reserve(uint64_t ExpectedEvents);

  /// Advances every point over the next \p Count trace events. The
  /// events are only read, and only until feed() returns.
  void feed(const TraceEvent *Events, size_t Count);

  /// End of trace: final flush accounting. Call exactly once; counters
  /// are returned in the order of the constructor's Points.
  std::vector<CacheStats> finish();

  /// The conservation law (see replayConservationViolation, and
  /// attributionConservationViolation for a point with a table) the
  /// point at \p PointIndex broke, or null. finish() checks every point
  /// and counts them in the check.replay.* telemetry. Call after
  /// finish().
  const char *violatedLaw(size_t PointIndex) const;

  /// Moves out the attribution table of the point at \p PointIndex
  /// (empty unless that point set SweepPoint::AttributionRefs). Call
  /// after finish(), at most once per point.
  RefAttribution takeAttribution(size_t PointIndex);

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// Memoizing, parallel front-end: each *experiment* is one traced
/// functional run (the producer closure compiles and simulates — the
/// engine itself is compiler-agnostic) plus the sweep points replayed
/// from its trace. Experiments are keyed by caller-chosen strings
/// (callers key on config *contents*); scheduling the same key twice is
/// idempotent. run() executes pending experiments across the thread
/// pool and frees each trace once its points are served.
class SweepEngine {
public:
  /// Runs the functional simulator for this experiment's program under
  /// \p Config (the engine sets RecordTrace and the trace reserve hint
  /// before calling). Must be thread-safe across distinct experiments.
  using Producer = std::function<SimResult(const SimConfig &)>;

  /// \p Pool null uses ThreadPool::global().
  explicit SweepEngine(ThreadPool *Pool = nullptr)
      : Pool(Pool ? Pool : &ThreadPool::global()) {}

  /// The process-wide engine over the global pool.
  static SweepEngine &global();

  /// Schedules one experiment. \p HintGroup names a family of runs with
  /// similar trace lengths (e.g. the workload name): the first run in a
  /// group sizes later runs' trace reservations. Re-scheduling an
  /// existing \p Key is a no-op (the points must match). A base
  /// configuration liveCacheConfigError rejects, or a point
  /// validateCacheConfig rejects, fails the experiment at once: its
  /// base() Error reads "invalid cache configuration: ..." and it has
  /// no point stats.
  ///
  /// \p ContentHash is the experiment's traceContentHash
  /// (urcm/sim/TraceStore.h) — the fingerprint of the compiled program
  /// plus simulation inputs that keys its results in the persistent
  /// store. Zero (the default) opts this experiment out of the store
  /// even when a store directory is configured (callers that cannot
  /// hash — e.g. the producer compiles lazily — simply never touch it).
  void schedule(const std::string &Key, const std::string &HintGroup,
                const SimConfig &Base, std::vector<SweepPoint> Points,
                Producer Run, uint64_t ContentHash = 0);

  /// Runs every pending experiment (parallel across experiments) and
  /// returns when all are done. Base runs that fail (as reported by
  /// SimResult::ok) are kept with their error; so are experiments whose
  /// replayed counters break a conservation law (the error names the
  /// point and the law). Point stats for a failed base are empty.
  void run();

  /// Point-parallel replay inside each experiment (see
  /// SweepPointStream): 1 replays every experiment's points on the
  /// experiment's own thread; 0 — the default — means "auto" (the pool
  /// width, so a lone experiment still uses the whole machine); N > 1
  /// uses up to N threads. Counters are bit-identical in every mode.
  /// Set before run(); the replay fans out through nested parallelFor,
  /// so replay workers and experiments share the same pool.
  void setReplayWorkers(uint32_t Request) { ReplayWorkers = Request; }
  uint32_t replayWorkers() const { return ReplayWorkers; }

  /// Enables the persistent trace store (urcm/sim/TraceStore.h) under
  /// \p Dir — empty disables (the default). With a store configured,
  /// every experiment scheduled with a non-zero content hash first
  /// consults `<Dir>/<hash>.urctrc`, which holds the summary of a
  /// recorded run and the counters of the points it replayed. When the
  /// summary and the records answer the base configuration and every
  /// point, the experiment is served from them (a hit: the Simulator is
  /// never invoked). Otherwise it runs live (a miss): points with a
  /// record take its counters, only the others replay, and the file is
  /// re-recorded with the old records and the new ones. Attribution
  /// points have no record, so they always run live. Store problems
  /// (unwritable dir, corrupt or stale files) are reported to \p Diags
  /// (when non-null; rejected files surface as errors, see
  /// TraceStoreReader) and the experiment falls back to live simulation
  /// — the store can slow an experiment down, never fail it. A \p Dir
  /// that cannot be used at all (it names a file, or cannot be created)
  /// is one error per run(), which then runs without the store. Set
  /// before run(); \p Diags must outlive run().
  void setTraceStore(std::string Dir, DiagnosticEngine *Diags = nullptr) {
    StoreDir = std::move(Dir);
    StoreDiags = Diags;
  }
  const std::string &traceStoreDir() const { return StoreDir; }

  bool done(const std::string &Key) const;

  /// The base functional run (trace dropped). Valid after run().
  const SimResult &base(const std::string &Key) const;

  /// The replayed counters of point \p Index. Points compare by
  /// canonical configuration (canonicalReplayPolicy, so TreePLRU at two
  /// ways and one-word lines is LRU): a hinted point equal to the base
  /// run's cache configuration returns the base run's own counters, and
  /// points equal to each other share one replay (replay is
  /// bit-identical, so this is pure reuse). Points that request
  /// attribution, and MIN points, always replay on their own. Valid
  /// after run().
  const CacheStats &point(const std::string &Key, size_t Index) const;

  /// The per-reference attribution of point \p Index, which must have
  /// been scheduled with SweepPoint::AttributionRefs non-zero.
  /// Bit-identical across replay worker counts and store modes. Valid
  /// after run().
  const RefAttribution &attribution(const std::string &Key,
                                    size_t Index) const;

private:
  struct Experiment {
    std::string HintGroup;
    SimConfig Base;
    std::vector<SweepPoint> Points;
    Producer Run;
    uint64_t ContentHash = 0;
    SimResult Result;
    std::vector<CacheStats> Stats;
    /// Parallel to Points; non-empty rows only where AttributionRefs.
    std::vector<RefAttribution> Attrib;
    bool Done = false;
  };

  const Experiment &finished(const std::string &Key) const;

  /// Looks \p E up in the trace store. True when the file answers the
  /// whole experiment: E.Result comes from its summary and \p Stats
  /// (parallel to \p Rest) from its point records. False means run
  /// live; when the file was valid but some point had no record (a
  /// partial miss), \p Stats and \p FromRecord are filled for the
  /// points that had one, and \p Carried receives all of the file's
  /// records so the re-recorded file keeps them.
  bool serveFromStore(Experiment &E, const std::vector<SweepPoint> &Rest,
                      std::vector<CacheStats> &Stats,
                      std::vector<bool> &FromRecord,
                      std::vector<StoredPoint> &Carried);

  /// Forwards diagnostics collected during store I/O to the configured
  /// sink under the engine lock (experiments run in parallel).
  void forwardStoreDiags(const DiagnosticEngine &Local);

  ThreadPool *Pool;
  uint32_t ReplayWorkers = 0;
  std::string StoreDir;
  DiagnosticEngine *StoreDiags = nullptr;
  mutable std::mutex M;
  std::map<std::string, Experiment> Experiments;
  /// Largest trace length seen per hint group (reserve hint source).
  std::map<std::string, uint64_t> Hints;
};

} // namespace urcm

#endif // URCM_SIM_SWEEPENGINE_H

//===- urcm/sim/ShardedReplay.h - Deprecated replay spellings ---*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deprecated names for point-parallel replay (urcm/sim/SweepEngine.h),
/// kept so existing callers still build. Set-sharded replay is gone: a
/// "shard count" is now a replay worker count, and the results are
/// bit-identical to sequential replay for every value, as before.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_SHARDEDREPLAY_H
#define URCM_SIM_SHARDEDREPLAY_H

#include "urcm/sim/SweepEngine.h"

namespace urcm {

/// Deprecated: use resolveReplayWorkers.
inline uint32_t resolveShardCount(uint32_t Requested,
                                  const ThreadPool &Pool) {
  return resolveReplayWorkers(Requested, Pool);
}

/// Deprecated: use replaySweepPoints with a worker count.
inline std::vector<CacheStats>
replaySweepPointsSharded(const std::vector<TraceEvent> &Trace,
                         const std::vector<SweepPoint> &Points,
                         uint32_t Shards, ThreadPool *Pool = nullptr) {
  return replaySweepPoints(Trace, Points, Shards, Pool);
}

} // namespace urcm

#endif // URCM_SIM_SHARDEDREPLAY_H

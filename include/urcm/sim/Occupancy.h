//===- urcm/sim/Occupancy.h - Dead cache-occupancy analysis -----*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantifies the paper's motivating claim (section 1 and the LRU
/// argument of section 3.2): cache cells are wasted holding values that
/// will never be read again — "if the average cacheable item is
/// referenced r times, then approximately 1/r of the cache cells will be
/// wasted".
///
/// The analyzer replays a recorded reference trace and, at a fixed
/// sampling interval, counts resident lines that are *dead*: no future
/// through-cache read of the line occurs before its next overwrite (or
/// the end of the trace). With the unified scheme's dead tags and
/// bypasses, dead residency should drop sharply — the "inaccessible
/// copies" have been kept out or evicted early.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_OCCUPANCY_H
#define URCM_SIM_OCCUPANCY_H

#include "urcm/sim/CacheModel.h"

namespace urcm {

/// Result of a dead-occupancy scan.
struct OccupancyStats {
  uint64_t Samples = 0;
  /// Sum over samples of resident (valid) lines.
  uint64_t ResidentLineSamples = 0;
  /// Sum over samples of resident lines that are dead (never read again
  /// before overwrite or end of trace).
  uint64_t DeadLineSamples = 0;

  /// Mean fraction of the cache's lines that are occupied.
  double meanOccupancy(uint32_t NumLines) const {
    return Samples == 0 ? 0.0
                        : static_cast<double>(ResidentLineSamples) /
                              (static_cast<double>(Samples) * NumLines);
  }
  /// Mean fraction of *resident* lines that are dead — the paper's
  /// wasted-cell fraction.
  double deadFraction() const {
    return ResidentLineSamples == 0
               ? 0.0
               : static_cast<double>(DeadLineSamples) /
                     static_cast<double>(ResidentLineSamples);
  }
};

/// Replays \p Trace on an LRU cache with geometry \p Config, sampling
/// dead occupancy every \p SampleInterval events.
OccupancyStats analyzeDeadOccupancy(const std::vector<TraceEvent> &Trace,
                                    const CacheConfig &Config,
                                    uint64_t SampleInterval = 64);

} // namespace urcm

#endif // URCM_SIM_OCCUPANCY_H

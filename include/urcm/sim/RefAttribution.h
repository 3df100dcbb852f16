//===- urcm/sim/RefAttribution.h - Per-reference attribution ----*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-static-reference cache attribution: a table of counters indexed
/// by RefId (urcm/codegen/MachineIR.h RefTable) that ties every hit,
/// miss, bypass and suppressed dead write-back back to the Ld/St that
/// caused it. The live caches (urcm/sim/Cache.h) and every replay
/// kernel accumulate into one of these when attribution is requested;
/// each table belongs to one sweep point, so it is bit-identical however
/// many replay workers ran the sweep.
///
/// Accounting rules (mirrored by every accumulator — the bit-identity
/// tests compare all of them):
///  * Hits / Misses: through-cache accesses only, at the same decision
///    points that bump ReadHits/WriteHits vs the miss paths (a
///    write-through store miss is a miss; bypassed accesses are
///    neither).
///  * Bypasses: one count per access with an effective bypass hint
///    (covers BypassReads, BypassWrites and BypassHitMigrations).
///  * DeadWriteBacksSuppressed: the accessor whose last-ref tag freed a
///    dirty line without write-back (CacheStats'
///    DeadWriteBacksAvoided, attributed to the tagged reference).
///  * EvictionsCaused: charged to the access that forced a victim out
///    (capacity/conflict evictions and dirty bypass-hit migrations);
///    final flushes charge nobody.
///  * EvictionsSuffered: charged to the reference that *installed* the
///    victim line (each line remembers its installer).
///
/// The overflow row: events whose RefId is MemRefInfo::NoRefId (or past
/// the table) land in row NumRefs, so synthetic traces and saturated
/// numbering stay accounted without branching on the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_REFATTRIBUTION_H
#define URCM_SIM_REFATTRIBUTION_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace urcm {

/// Counters for one static memory reference.
struct RefCounters {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Bypasses = 0;
  uint64_t DeadWriteBacksSuppressed = 0;
  uint64_t EvictionsCaused = 0;
  uint64_t EvictionsSuffered = 0;

  RefCounters &operator+=(const RefCounters &O) {
    Hits += O.Hits;
    Misses += O.Misses;
    Bypasses += O.Bypasses;
    DeadWriteBacksSuppressed += O.DeadWriteBacksSuppressed;
    EvictionsCaused += O.EvictionsCaused;
    EvictionsSuffered += O.EvictionsSuffered;
    return *this;
  }
  bool operator==(const RefCounters &O) const {
    return Hits == O.Hits && Misses == O.Misses &&
           Bypasses == O.Bypasses &&
           DeadWriteBacksSuppressed == O.DeadWriteBacksSuppressed &&
           EvictionsCaused == O.EvictionsCaused &&
           EvictionsSuffered == O.EvictionsSuffered;
  }
  bool operator!=(const RefCounters &O) const { return !(*this == O); }

  uint64_t accesses() const { return Hits + Misses + Bypasses; }
};

/// The attribution table: NumRefs real rows plus one overflow row for
/// unnumbered events. row() is branch-free (a min against the overflow
/// index maps both NoRefId and out-of-range ids there).
class RefAttribution {
public:
  RefAttribution() = default;
  explicit RefAttribution(uint32_t NumRefs)
      : NumRefs(NumRefs), Rows(static_cast<size_t>(NumRefs) + 1) {}

  uint32_t numRefs() const { return NumRefs; }

  RefCounters &row(uint32_t RefId) {
    return Rows[std::min(RefId, NumRefs)];
  }
  const RefCounters &row(uint32_t RefId) const {
    return Rows[std::min(RefId, NumRefs)];
  }
  const RefCounters &overflow() const { return Rows[NumRefs]; }

  bool operator==(const RefAttribution &O) const {
    return NumRefs == O.NumRefs && Rows == O.Rows;
  }
  bool operator!=(const RefAttribution &O) const { return !(*this == O); }

private:
  uint32_t NumRefs = 0;
  std::vector<RefCounters> Rows = {RefCounters()}; ///< Overflow row only.
};

} // namespace urcm

#endif // URCM_SIM_REFATTRIBUTION_H

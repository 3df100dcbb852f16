//===- urcm/sim/CachePolicy.h - Unified replacement-policy layer -*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single replacement-policy vocabulary shared by every cache model
/// in the tree: the live DataCache, the specialized two-way fast caches,
/// the policy-generic replay kernel (urcm/sim/CacheModel.h) and the
/// sweep engine's replay streams. Historically the live
/// cache had its own three-policy `ReplacementPolicy` and the replayer a
/// four-policy `TracePolicy` with a lossy translation between them; both
/// are now aliases of `CachePolicy` below and the translation is gone.
///
/// The policy families (paper section 3.2 argues dead-line freeing is
/// compatible with any of them):
///
///  * LRU / FIFO / Random — the classical set-local policies.
///  * MIN — Belady's optimal replacement [Bel66]; needs future
///    knowledge, so it exists only in trace replay.
///  * TreePLRU — tree pseudo-LRU over power-of-two associativity, the
///    hardware-practical LRU approximation (one bit per tree node).
///  * SRRIP — static re-reference interval prediction with 2-bit RRPV
///    counters (insert at distant-2, promote to 0 on hit, age until a
///    way reaches 3) — the RRIP baseline a credible bypass evaluation
///    needs (Faldu, PAPERS.md).
///  * LivenessBypass — LRU plus a per-RefId dead-on-arrival predictor
///    that learns, from evictions without reuse, which references
///    should not allocate at all (a Leeway-style software analogue of
///    the paper's compiler bypass hints). Learning is a global table
///    over the trace, so it is replay-only.
///
/// This header is dependency-free (cstdint only) so the low-level cache
/// headers can include it without cycles; the policy-generic replay
/// kernel lives in urcm/sim/CacheModel.h.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_CACHEPOLICY_H
#define URCM_SIM_CACHEPOLICY_H

#include <cstdint>

namespace urcm {

/// Every replacement policy in the tree. The numeric values are part of
/// the persistent trace-store hash vocabulary for the *I-cache* config
/// (the data-cache hash deliberately excludes the policy — see
/// urcm/sim/TraceStore.h), so existing entries keep their values.
enum class CachePolicy : uint8_t {
  LRU = 0,
  FIFO = 1,
  Random = 2,
  MIN = 3,
  TreePLRU = 4,
  SRRIP = 5,
  LivenessBypass = 6,
};

/// Stable display name ("LRU", "TreePLRU", ...).
const char *cachePolicyName(CachePolicy Policy);

/// Parses a command-line spelling (lru|fifo|random|min|plru|srrip|
/// bypass, case-insensitive, plus the full names). Returns false and
/// leaves \p Out untouched if \p Spelling matches nothing.
bool parseCachePolicy(const char *Spelling, CachePolicy &Out);

/// True if a live (forward-executing) cache can implement \p Policy:
/// MIN needs future knowledge and LivenessBypass trains on a whole
/// recorded trace, so both are replay-only.
constexpr bool cachePolicyLiveEligible(CachePolicy Policy) {
  return Policy != CachePolicy::MIN && Policy != CachePolicy::LivenessBypass;
}

struct CacheConfig;

/// The policy whose replay is bit-identical to replaying \p Config's
/// geometry under \p Policy: LRU for TreePLRU at two ways with one-word
/// lines (a one-node tree is a single LRU bit), \p Policy itself
/// otherwise. Multi-word lines stay TreePLRU: their dead frees demote,
/// and LRU and the tree break a demotion tie differently. The sweep
/// engine keys its point partition on this, so equivalent points share
/// one replay (pinned by CacheModelProperties.TreePLRUIsExactlyLRUAtTwoWays).
CachePolicy canonicalReplayPolicy(const CacheConfig &Config,
                                  CachePolicy Policy);

/// Largest line size, and largest total capacity in words, a cache
/// configuration may ask for (the live cache allocates its payload up
/// front, so an absurd geometry must be refused before it sizes one).
constexpr uint32_t MaxCacheLineWords = 1u << 12;
constexpr uint64_t MaxCacheWords = uint64_t(1) << 24;

/// Checks that \p Config is a cache every simulator and replay kernel
/// can build under \p Policy: at least one line, an associativity that
/// divides the line count, a line size of 1..MaxCacheLineWords words, at
/// most MaxCacheWords words in all, and for TreePLRU a power-of-two
/// associativity of at most 64. Returns what is wrong, or null when
/// nothing is. Flag parsing and the trace-store reader call this so that
/// bad input ends in a diagnostic; the cache constructors keep asserting
/// the same conditions as internal invariants.
const char *validateCacheConfig(const CacheConfig &Config,
                                CachePolicy Policy);

/// SRRIP's re-reference prediction values (2-bit counters).
enum : uint8_t {
  SRRIPInsertRRPV = 2, ///< Long re-reference interval on install.
  SRRIPMaxRRPV = 3,    ///< Distant: the eviction candidate value.
};

/// LivenessBypass predictor constants, shared by every kernel that
/// replays the policy: 2-bit saturating dead-on-arrival counters, a
/// reference is predicted dead at LivenessDeadThreshold, and every
/// LivenessProbePeriod-th predicted-dead access allocates anyway.
enum : uint8_t {
  LivenessDeadThreshold = 2,
  LivenessCounterMax = 3,
  LivenessProbePeriod = 16,
};

namespace detail {

/// Shared victim-selection mechanisms. Each helper returns a way index
/// in [0, Assoc) and is used verbatim by both the live DataCache and
/// the replay kernel so the two can never drift. All helpers assume
/// every way of the set is valid (callers prefer an invalid way first;
/// the choice among invalid ways has no observable effect).

/// Least-recently-used: the first way with minimal LastUsed.
template <typename LineT>
inline uint32_t lruVictimWay(const LineT *Base, uint32_t Assoc) {
  uint32_t Victim = 0;
  for (uint32_t Way = 1; Way != Assoc; ++Way)
    if (Base[Way].LastUsed < Base[Victim].LastUsed)
      Victim = Way;
  return Victim;
}

/// FIFO: the first way with minimal InsertedAt.
template <typename LineT>
inline uint32_t fifoVictimWay(const LineT *Base, uint32_t Assoc) {
  uint32_t Victim = 0;
  for (uint32_t Way = 1; Way != Assoc; ++Way)
    if (Base[Way].InsertedAt < Base[Victim].InsertedAt)
      Victim = Way;
  return Victim;
}

/// SRRIP: the first way whose RRPV has reached the distant value; if
/// none, age every way by one and rescan. Ages in place. Terminates in
/// at most SRRIPMaxRRPV rounds (each round either finds a victim or
/// raises the set maximum by one), and no RRPV ever exceeds
/// SRRIPMaxRRPV: aging only runs while the set maximum is below it.
template <typename LineT>
inline uint32_t srripVictimWay(LineT *Base, uint32_t Assoc) {
  for (;;) {
    for (uint32_t Way = 0; Way != Assoc; ++Way)
      if (Base[Way].RRPV >= SRRIPMaxRRPV)
        return Way;
    for (uint32_t Way = 0; Way != Assoc; ++Way)
      ++Base[Way].RRPV;
  }
}

/// Tree pseudo-LRU state is one uint64 per set holding the node bits of
/// a complete binary tree over Assoc = 2^k ways (Assoc <= 64): node i
/// (1-based heap order, children 2i and 2i+1) owns bit i, and the bit's
/// value names the child subtree holding the next victim (0 = left,
/// 1 = right). An access rewrites the bits on its root-to-leaf path to
/// point *away* from the touched way, so the victim walk can never end
/// at the most recently touched way (the tree invariant the property
/// tests pin).

/// Follows the victim pointers from the root; \p Assoc must be a power
/// of two >= 2.
inline uint32_t treePLRUVictimWay(uint64_t Bits, uint32_t Assoc) {
  uint32_t Node = 1;
  while (Node < Assoc)
    Node = 2 * Node + ((Bits >> Node) & 1);
  return Node - Assoc;
}

/// Returns \p Bits with \p Way's path rewritten to point away from it
/// (the touched way becomes the hardest to evict).
inline uint64_t treePLRUTouch(uint64_t Bits, uint32_t Assoc, uint32_t Way) {
  for (uint32_t Node = Assoc + Way; Node > 1; Node /= 2) {
    uint32_t Parent = Node / 2;
    uint64_t Mask = uint64_t(1) << Parent;
    // Went right (Node odd) => point the victim walk left, and vice
    // versa.
    Bits = (Node & 1) ? (Bits & ~Mask) : (Bits | Mask);
  }
  return Bits;
}

/// Returns \p Bits with \p Way's path rewritten to point *at* it — the
/// dead-line demotion (paper footnote 6): a freed multi-word line
/// becomes the set's next victim.
inline uint64_t treePLRUPointAt(uint64_t Bits, uint32_t Assoc,
                                uint32_t Way) {
  for (uint32_t Node = Assoc + Way; Node > 1; Node /= 2) {
    uint32_t Parent = Node / 2;
    uint64_t Mask = uint64_t(1) << Parent;
    Bits = (Node & 1) ? (Bits | Mask) : (Bits & ~Mask);
  }
  return Bits;
}

} // namespace detail

} // namespace urcm

#endif // URCM_SIM_CACHEPOLICY_H

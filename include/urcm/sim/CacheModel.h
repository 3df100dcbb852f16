//===- urcm/sim/CacheModel.h - Policy-generic cache replay ------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified, policy-generic, attribution-aware set-associative cache
/// model: one write-back/write-through/bypass/dead-store core behind
/// every stats-only execution mode — sequential replay, the sweep
/// engine's point-parallel streams and warm trace-store serving. The core is a member template over
/// `<CachePolicy Policy, bool Attrib>`: each (policy, attribution)
/// combination is compiled as a straight-line step with `if constexpr`
/// pruning every other policy's bookkeeping, and `feed()` dispatches
/// once per chunk, not once per event. Counter semantics are identical
/// to running the events through a live DataCache with the same
/// geometry and policy (the differential tests pin this bit for bit).
/// Two fast paths keep their own state encoding and are pinned against
/// this model the same way: the live TwoWayWB1CacheT, and the sweep
/// engine's packed one-word replay kernel (src/sim/ReplayKernels.h),
/// which replays every one-word write-back point but MIN. For that
/// kernel this model is the independent test oracle.
///
/// Policies beyond the live cache's (see urcm/sim/CachePolicy.h):
///
///  * MIN — Belady's optimal replacement [Bel66] over the recorded
///    trace's future knowledge (computeNextLineUses).
///  * LivenessBypass — LRU replacement plus a per-RefId dead-on-arrival
///    predictor: a 2-bit saturating counter per static reference,
///    trained up when a line it installed dies (evicted or dead-freed)
///    without a single reuse and down on the first reuse. A reference
///    predicted dead stops allocating — its misses are served straight
///    from memory with compiler-bypass accounting — except that every
///    16th predicted access still allocates, so changed behavior can
///    retrain. This is the hardware-learned analogue of the paper's
///    compiler bypass hints (Faldu's reuse-prediction baselines,
///    PAPERS.md); training reads the whole reference stream, so the
///    policy is replay-only.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_CACHEMODEL_H
#define URCM_SIM_CACHEMODEL_H

#include "urcm/sim/Cache.h"
#include "urcm/sim/Simulator.h"

#include <cassert>
#include <limits>
#include <memory>

namespace urcm {

/// For Belady MIN: Next[i] = index of the next through-cache access to
/// the same cache line after event i (UINT64_MAX if none). Depends only
/// on the trace, the line size and the hint view, so MIN replays at
/// different geometries with the same line size and view can share one
/// computation. With \p IgnoreHints, bypassed events count as
/// through-cache accesses, as they do in a hint-stripped replay.
std::shared_ptr<const std::vector<uint64_t>>
computeNextLineUses(const std::vector<TraceEvent> &Trace,
                    uint32_t LineWords, bool IgnoreHints = false);

/// Stats-only replay of one cache configuration, advanced either one
/// trace event at a time (step) or a chunk at a time (feed; one policy
/// dispatch per chunk). Semantics (and counters) are identical to
/// running the events through a live DataCache with the same geometry.
class CacheModel {
  static constexpr uint64_t Never = std::numeric_limits<uint64_t>::max();

  struct ModelLine {
    bool Valid = false;
    bool Dirty = false;
    /// Hit at least once since install (LivenessBypass training).
    bool Reused = false;
    /// SRRIP re-reference prediction value.
    uint8_t RRPV = 0;
    /// Installer RefId (attribution's EvictionsSuffered and the
    /// LivenessBypass predictor's training target).
    uint16_t InstalledBy = MemRefInfo::NoRefId;
    uint64_t Tag = 0;
    uint64_t LastUsed = 0;
    uint64_t InsertedAt = 0;
    uint64_t NextUse = Never; // For MIN.
  };

public:
  /// \p NextUses is required for CachePolicy::MIN (see
  /// computeNextLineUses; it must have been computed with this config's
  /// line size and hint view) and ignored otherwise. \p IgnoreHints
  /// replays every event as if its bypass and last-reference hint bits
  /// were clear (SweepPoint::IgnoreHints), without copying the trace.
  CacheModel(const CacheConfig &Config, CachePolicy Policy,
             std::shared_ptr<const std::vector<uint64_t>> NextUses =
                 nullptr,
             bool IgnoreHints = false)
      : Config(Config), Geometry(Config), Policy(Policy),
        Hinted(!IgnoreHints), NextUses(std::move(NextUses)),
        Rng(Config.Seed), Lines(Config.NumLines) {
    assert(Config.Assoc > 0 && Config.NumLines % Config.Assoc == 0 &&
           "associativity must divide the line count");
    assert((Policy != CachePolicy::MIN || this->NextUses) &&
           "MIN needs the next-use index (computeNextLineUses)");
    assert((Policy != CachePolicy::TreePLRU ||
            (Config.Assoc <= 64 &&
             (Config.Assoc & (Config.Assoc - 1)) == 0)) &&
           "TreePLRU needs a power-of-two associativity of at most 64");
    if (Policy == CachePolicy::TreePLRU)
      TreeBits.assign(Lines.size() / Config.Assoc, 0);
    if (Policy == CachePolicy::LivenessBypass)
      Dead.assign(size_t(1) << 16, 0); // Indexed directly by uint16 RefId.
  }

  /// See DataCache::setAttribution. Counter sites mirror the live
  /// cache's, so the table reproduces a live run bit for bit.
  void setAttribution(RefAttribution *A) { Attr = A; }

  /// Processes trace event \p E, which sits at position \p Index of the
  /// trace (the index feeds MIN's future-knowledge lookup).
  void step(const TraceEvent &E, uint64_t Index) { feed(&E, 1, Index); }

  /// Processes \p Count consecutive trace events starting at trace
  /// position \p BaseIndex, with one (policy, attribution) dispatch for
  /// the whole chunk.
  void feed(const TraceEvent *Events, size_t Count, uint64_t BaseIndex) {
    if (Attr)
      feedImpl<true>(Events, Count, BaseIndex);
    else
      feedImpl<false>(Events, Count, BaseIndex);
  }

  /// Counts the remaining dirty lines as end-of-program flush
  /// write-backs and returns the final counters. Call exactly once.
  CacheStats finish() {
    for (ModelLine &L : Lines)
      if (L.Valid && L.Dirty)
        Stats.FlushWriteBackWords += Config.LineWords;
    return Stats;
  }

private:
  template <bool A>
  void feedImpl(const TraceEvent *Events, size_t Count,
                uint64_t BaseIndex) {
    switch (Policy) {
    case CachePolicy::LRU:
      return feedLoop<CachePolicy::LRU, A>(Events, Count, BaseIndex);
    case CachePolicy::FIFO:
      return feedLoop<CachePolicy::FIFO, A>(Events, Count, BaseIndex);
    case CachePolicy::Random:
      return feedLoop<CachePolicy::Random, A>(Events, Count, BaseIndex);
    case CachePolicy::MIN:
      return feedLoop<CachePolicy::MIN, A>(Events, Count, BaseIndex);
    case CachePolicy::TreePLRU:
      return feedLoop<CachePolicy::TreePLRU, A>(Events, Count, BaseIndex);
    case CachePolicy::SRRIP:
      return feedLoop<CachePolicy::SRRIP, A>(Events, Count, BaseIndex);
    case CachePolicy::LivenessBypass:
      return feedLoop<CachePolicy::LivenessBypass, A>(Events, Count,
                                                      BaseIndex);
    }
  }

  template <CachePolicy P, bool A>
  void feedLoop(const TraceEvent *Events, size_t Count,
                uint64_t BaseIndex) {
    for (size_t I = 0; I != Count; ++I)
      stepOne<P, A>(Events[I], BaseIndex + I);
  }

  /// The unified core. Every policy's variant of the write-back /
  /// write-through / bypass / dead-store semantics is this one
  /// function; `if constexpr` compiles each instantiation down to
  /// exactly the policy's own bookkeeping. Forced inline: with seven
  /// policies in one feedImpl, GCC's growth limit otherwise leaves some
  /// instantiations as a call per event.
  template <CachePolicy P, bool A>
  [[gnu::always_inline]] inline void stepOne(const TraceEvent &E,
                                             uint64_t Index) {
    uint64_t LA = Geometry.lineAddr(E.Addr);
    if constexpr (A)
      CurRef = E.RefId;

    if (E.Info.Bypass & Hinted) {
      if constexpr (A)
        ++Attr->row(E.RefId).Bypasses;
      if (!E.IsWrite) {
        if (ModelLine *L = find(LA)) {
          // Migration: dirty lines are written back first (see
          // DataCache::read for the soundness argument).
          ++Stats.BypassHitMigrations;
          if constexpr (P == CachePolicy::LivenessBypass)
            trainLive(*L); // The migration read is a reuse.
          if (Config.LineWords == 1) {
            ++Stats.DeadFrees;
            if (L->Dirty)
              evictLine<P, A>(*L);
            L->Valid = false;
            L->Dirty = false;
          } else {
            evictLine<P, A>(*L);
          }
        } else {
          ++Stats.BypassReads;
        }
      } else {
        ++Stats.BypassWrites;
      }
      return;
    }

    uint32_t Set = Geometry.setOf(LA);
    ModelLine *Base = &Lines[static_cast<size_t>(Set) * Config.Assoc];
    ModelLine *L = nullptr;
    uint32_t Way = 0;
    for (uint32_t W = 0; W != Config.Assoc; ++W)
      if (Base[W].Valid && Base[W].Tag == LA) {
        L = Base + W;
        Way = W;
        break;
      }

    bool WTWrite =
        E.IsWrite && Config.Write == WritePolicy::WriteThrough;

    if constexpr (P == CachePolicy::LivenessBypass) {
      if (!L && !WTWrite && Dead[E.RefId] >= LivenessDeadThreshold &&
          ++Probe % LivenessProbePeriod != 0) {
        // Predicted dead on arrival: serve from memory without
        // allocating, with the same accounting as a compiler bypass
        // hint. The deterministic probe above lets a reference whose
        // behavior changed retrain.
        if (E.IsWrite)
          ++Stats.BypassWrites;
        else
          ++Stats.BypassReads;
        if constexpr (A)
          ++Attr->row(E.RefId).Bypasses;
        return;
      }
    }

    if (E.IsWrite)
      ++Stats.Writes;
    else
      ++Stats.Reads;

    if (WTWrite) {
      // Write-through / no-write-allocate (see DataCache::write).
      ++Stats.WriteThroughWords;
      if constexpr (A) {
        RefCounters &R = Attr->row(E.RefId);
        ++(L ? R.Hits : R.Misses);
      }
      if (L) {
        ++Stats.WriteHits;
        touchHit<P>(*L, Set, Way);
        if constexpr (P == CachePolicy::MIN)
          L->NextUse = (*NextUses)[Index];
        if (E.Info.LastRef & Hinted)
          freeLine<P, A>(*L, Set, Way, E.RefId);
      }
      return;
    }

    if (L) {
      if (E.IsWrite)
        ++Stats.WriteHits;
      else
        ++Stats.ReadHits;
      if constexpr (A)
        ++Attr->row(E.RefId).Hits;
      touchHit<P>(*L, Set, Way);
    } else {
      if constexpr (A)
        ++Attr->row(E.RefId).Misses;
      Way = victimWay<P>(Base, Set);
      L = Base + Way;
      if (L->Valid)
        evictLine<P, A>(*L);
      L->Valid = true;
      L->Dirty = false;
      if constexpr (P == CachePolicy::LivenessBypass)
        L->InstalledBy = E.RefId; // The predictor trains without Attr.
      else
        L->InstalledBy = CurRef;
      L->Tag = LA;
      L->InsertedAt = ++Tick;
      L->LastUsed = Tick;
      installTouch<P>(*L, Set, Way);
      bool FetchWords = !E.IsWrite || Config.LineWords > 1;
      ++Stats.Fills;
      if (FetchWords)
        Stats.FillWords += Config.LineWords;
    }

    if constexpr (P == CachePolicy::MIN)
      L->NextUse = (*NextUses)[Index];
    if (E.IsWrite)
      L->Dirty = true;
    if (E.Info.LastRef & Hinted)
      freeLine<P, A>(*L, Set, Way, E.RefId);
  }

  ModelLine *find(uint64_t LA) {
    uint32_t Set = Geometry.setOf(LA);
    ModelLine *Base = &Lines[static_cast<size_t>(Set) * Config.Assoc];
    for (uint32_t Way = 0; Way != Config.Assoc; ++Way)
      if (Base[Way].Valid && Base[Way].Tag == LA)
        return &Base[Way];
    return nullptr;
  }

  /// Recency update on a hit, shared with DataCache::touch mechanisms.
  template <CachePolicy P>
  void touchHit(ModelLine &L, uint32_t Set, uint32_t Way) {
    L.LastUsed = ++Tick;
    if constexpr (P == CachePolicy::SRRIP) {
      L.RRPV = 0;
    } else if constexpr (P == CachePolicy::TreePLRU) {
      if (Config.Assoc > 1)
        TreeBits[Set] =
            detail::treePLRUTouch(TreeBits[Set], Config.Assoc, Way);
    } else if constexpr (P == CachePolicy::LivenessBypass) {
      trainLive(L);
    }
    (void)Set;
    (void)Way;
  }

  /// Policy state for a fresh install (the tick fields are set by the
  /// caller): SRRIP inserts at the long re-reference interval, TreePLRU
  /// points the tree away from the installed way, LivenessBypass starts
  /// a new reuse generation.
  template <CachePolicy P>
  void installTouch(ModelLine &L, uint32_t Set, uint32_t Way) {
    if constexpr (P == CachePolicy::SRRIP) {
      L.RRPV = SRRIPInsertRRPV;
    } else if constexpr (P == CachePolicy::TreePLRU) {
      if (Config.Assoc > 1)
        TreeBits[Set] =
            detail::treePLRUTouch(TreeBits[Set], Config.Assoc, Way);
    } else if constexpr (P == CachePolicy::LivenessBypass) {
      L.Reused = false;
    }
    (void)L;
    (void)Set;
    (void)Way;
  }

  /// Victim way for a full set (callers take an invalid way first).
  /// Mechanisms are shared with DataCache::chooseVictim
  /// (urcm/sim/CachePolicy.h) so the two can never drift.
  template <CachePolicy P>
  uint32_t victimWay(ModelLine *Base, uint32_t Set) {
    for (uint32_t Way = 0; Way != Config.Assoc; ++Way)
      if (!Base[Way].Valid)
        return Way;
    if constexpr (P == CachePolicy::LRU ||
                  P == CachePolicy::LivenessBypass) {
      return detail::lruVictimWay(Base, Config.Assoc);
    } else if constexpr (P == CachePolicy::FIFO) {
      return detail::fifoVictimWay(Base, Config.Assoc);
    } else if constexpr (P == CachePolicy::Random) {
      return Rng.nextBelow(Config.Assoc);
    } else if constexpr (P == CachePolicy::MIN) {
      // Belady: evict the line whose next use is farthest in the
      // future.
      uint32_t Victim = 0;
      for (uint32_t Way = 1; Way != Config.Assoc; ++Way)
        if (Base[Way].NextUse > Base[Victim].NextUse)
          Victim = Way;
      return Victim;
    } else if constexpr (P == CachePolicy::TreePLRU) {
      return Config.Assoc == 1
                 ? 0
                 : detail::treePLRUVictimWay(TreeBits[Set], Config.Assoc);
    } else {
      static_assert(P == CachePolicy::SRRIP, "unhandled policy");
      return detail::srripVictimWay(Base, Config.Assoc);
    }
  }

  template <CachePolicy P, bool A> void evictLine(ModelLine &L) {
    if (L.Dirty) {
      ++Stats.WriteBacks;
      Stats.WriteBackWords += Config.LineWords;
    }
    ++Stats.Evictions;
    if constexpr (A) {
      ++Attr->row(CurRef).EvictionsCaused;
      ++Attr->row(L.InstalledBy).EvictionsSuffered;
    }
    if constexpr (P == CachePolicy::LivenessBypass)
      trainDead(L); // Died without reuse => installer learns "dead".
    L.Valid = false;
    L.Dirty = false;
  }

  template <CachePolicy P, bool A>
  void freeLine(ModelLine &L, uint32_t Set, uint32_t Way,
                uint16_t ByRef) {
    ++Stats.DeadFrees;
    if (Config.LineWords == 1) {
      if (L.Dirty) {
        ++Stats.DeadWriteBacksAvoided;
        if constexpr (A)
          ++Attr->row(ByRef).DeadWriteBacksSuppressed;
      }
      if constexpr (P == CachePolicy::LivenessBypass)
        trainDead(L); // Install + immediate free is dead-on-arrival.
      L.Valid = false;
      L.Dirty = false;
      return;
    }
    // Multi-word lines: other words in the line may still be live, so
    // the line is only demoted to the set's next victim (paper's
    // alternative), in whatever state the policy uses for that.
    L.LastUsed = 0;
    L.InsertedAt = 0;
    L.NextUse = Never;
    if constexpr (P == CachePolicy::SRRIP) {
      L.RRPV = SRRIPMaxRRPV;
    } else if constexpr (P == CachePolicy::TreePLRU) {
      if (Config.Assoc > 1)
        TreeBits[Set] =
            detail::treePLRUPointAt(TreeBits[Set], Config.Assoc, Way);
    }
    (void)Set;
    (void)Way;
  }

  /// First reuse of the line's current generation: the installer's
  /// dead counter decays toward "live".
  void trainLive(ModelLine &L) {
    if (L.Reused)
      return;
    L.Reused = true;
    uint8_t &C = Dead[L.InstalledBy];
    if (C > 0)
      --C;
  }

  /// The line died (evicted or dead-freed) without any reuse since its
  /// install: the installer's dead counter saturates toward "dead".
  void trainDead(ModelLine &L) {
    if (L.Reused)
      return;
    uint8_t &C = Dead[L.InstalledBy];
    if (C < LivenessCounterMax)
      ++C;
  }

  CacheConfig Config;
  CacheGeometry Geometry;
  CachePolicy Policy;
  bool Hinted; ///< False: hint bits are masked off (IgnoreHints).
  std::shared_ptr<const std::vector<uint64_t>> NextUses;
  SplitMix64 Rng;
  std::vector<ModelLine> Lines;
  /// Tree-PLRU node bits, one word per set (TreePLRU only).
  std::vector<uint64_t> TreeBits;
  /// LivenessBypass: per-RefId 2-bit dead-on-arrival counters, indexed
  /// directly by the uint16 RefId (MemRefInfo::NoRefId shares one slot,
  /// mirroring the attribution overflow row).
  std::vector<uint8_t> Dead;
  uint64_t Probe = 0; ///< LivenessBypass predicted-dead access count.
  CacheStats Stats;
  RefAttribution *Attr = nullptr;
  uint16_t CurRef = MemRefInfo::NoRefId;
  uint64_t Tick = 0;
};

/// Replays \p Trace against a cache with geometry \p Config (the
/// Config.Policy field is ignored; \p Policy is used instead). Returns
/// the event counters.
CacheStats replayTrace(const std::vector<TraceEvent> &Trace,
                       const CacheConfig &Config, CachePolicy Policy);

} // namespace urcm

#endif // URCM_SIM_CACHEMODEL_H

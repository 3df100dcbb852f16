//===- urcm/sim/CacheModel.h - Policy-generic cache replay ------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one policy-generic, attribution-aware set-associative cache
/// model: a single write-back/write-through/bypass/dead-store core,
/// stepOne, behind every generic cache in the simulator. It has two
/// forms:
///
///  * stats-only — sequential replay, the sweep engine's point-parallel
///    streams, warm trace-store serving, and the live instruction cache
///    (fed PC fetches). The core is a member template over
///    `<CachePolicy Policy, bool Attrib, bool Live>`: each combination
///    compiles to a straight-line step with `if constexpr` pruning every
///    other policy's bookkeeping, and `feed()` dispatches once per
///    chunk, not once per event;
///  * live — built over a MainMemory, it keeps one word payload per word
///    of each line slot, so read() returns the value the hierarchy
///    delivers and the simulator's paranoid shadow check (DESIGN.md
///    section 8) sees exactly what an unsound hint would cost. The Live
///    template argument adds the payload moves to the same step; the
///    stats-only instantiations carry none of it.
///
/// The hint semantics (paper sections 3.1, 3.2 and 4.3):
///
///  * bypass: a bypassed read probes the cache (UmAm_LOAD); a hit
///    migrates the value to the register and frees the line, a miss
///    reads main memory directly. A bypassed write goes straight to
///    memory (UmAm_STORE).
///  * last-reference: a hit tagged last-reference frees the line, and a
///    dirty dead line is dropped without write-back. For line sizes
///    above one word the line is only demoted to the set's next victim
///    and its write-back kept (the paper's footnote-6 caveat).
///
/// For a store miss on a one-word line the allocate skips the memory
/// fetch (the whole line is overwritten); multi-word lines fetch on
/// write-allocate. Two fast paths keep their own state encoding and are
/// pinned against this model: the live TwoWayWB1CacheT (urcm/sim/Cache.h;
/// the Simulator's switch engine runs this model on the same programs),
/// and the sweep engine's packed one-word replay kernel
/// (src/sim/ReplayKernels.h), which replays every one-word write-back
/// point but MIN. For both, this model is the independent test oracle.
///
/// The replay-only policies (see urcm/sim/CachePolicy.h):
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
#include "urcm/support/RNG.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <utility>

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

/// One cache configuration, advanced one trace event at a time (step),
/// a chunk at a time (feed; one policy dispatch per chunk), or — in the
/// live form — one data access at a time (read/write).
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
  /// The stats-only form. \p NextUses is required for CachePolicy::MIN
  /// (see computeNextLineUses; it must have been computed with this
  /// config's line size and hint view) and ignored otherwise.
  /// \p IgnoreHints replays every event as if its bypass and
  /// last-reference hint bits were clear (SweepPoint::IgnoreHints),
  /// without copying the trace.
  CacheModel(const CacheConfig &Config, CachePolicy Policy,
             std::shared_ptr<const std::vector<uint64_t>> NextUses =
                 nullptr,
             bool IgnoreHints = false)
      : Config(Config), Geometry(Config), Policy(Policy),
        Hinted(!IgnoreHints), NextUses(std::move(NextUses)),
        Rng(Config.Seed), Lines(Config.NumLines) {
    assert(!validateCacheConfig(Config, Policy) &&
           "validate the configuration first (validateCacheConfig)");
    assert((Policy != CachePolicy::MIN || this->NextUses) &&
           "MIN needs the next-use index (computeNextLineUses)");
    if (Policy == CachePolicy::TreePLRU)
      TreeBits.assign(Lines.size() / Config.Assoc, 0);
    if (Policy == CachePolicy::LivenessBypass)
      Dead.assign(size_t(1) << 16, 0); // Indexed directly by uint16 RefId.
  }

  /// The live form: a data cache over \p Mem under Config.Policy, which
  /// must be cachePolicyLiveEligible. Values flow through the line
  /// payloads; write-backs and fills move them to and from \p Mem.
  CacheModel(const CacheConfig &Config, MainMemory &Mem)
      : CacheModel(Config, Config.Policy) {
    assert(cachePolicyLiveEligible(Config.Policy) &&
           "MIN and LivenessBypass are replay-only");
    this->Mem = &Mem;
    Words.assign(static_cast<size_t>(Config.NumLines) * Config.LineWords,
                 0);
  }

  /// Accumulates per-reference attribution (urcm/sim/RefAttribution.h)
  /// into \p A (not owned; null — the default — disables).
  void setAttribution(RefAttribution *A) { Attr = A; }

  /// Processes trace event \p E, which sits at position \p Index of the
  /// trace (the index feeds MIN's future-knowledge lookup). Stats-only.
  void step(const TraceEvent &E, uint64_t Index) { feed(&E, 1, Index); }

  /// Processes \p Count consecutive trace events starting at trace
  /// position \p BaseIndex, with one (policy, attribution) dispatch for
  /// the whole chunk. Stats-only.
  void feed(const TraceEvent *Events, size_t Count, uint64_t BaseIndex) {
    if (Attr)
      feedImpl<true>(Events, Count, BaseIndex);
    else
      feedImpl<false>(Events, Count, BaseIndex);
  }

  /// Live form: performs a data read at word address \p Addr with hint
  /// bits \p Info and returns the value the hierarchy delivers.
  int64_t read(uint64_t Addr, const MemRefInfo &Info) {
    return liveAccess(Addr, /*IsWrite=*/false, Info, 0);
  }

  /// Live form: performs a data write.
  void write(uint64_t Addr, int64_t Value, const MemRefInfo &Info) {
    liveAccess(Addr, /*IsWrite=*/true, Info, Value);
  }

  /// Writes back every dirty line (end of program, counted as
  /// FlushWriteBackWords, not as steady traffic) and empties the cache.
  void flush() {
    for (ModelLine &L : Lines) {
      if (L.Valid && L.Dirty) {
        Stats.FlushWriteBackWords += Config.LineWords;
        if (Mem)
          writeBackWords(L);
      }
      L.Valid = false;
      L.Dirty = false;
    }
  }

  /// flush() and the final counters. Call exactly once.
  CacheStats finish() {
    flush();
    return Stats;
  }

  /// Frees every resident line whose words lie entirely within
  /// [\p Lo, \p Hi), counting each as a DeadFree: the I-cache's
  /// code-dead reclamation. Code is never written, so no such line is
  /// dirty.
  void invalidateRange(uint64_t Lo, uint64_t Hi) {
    for (ModelLine &L : Lines) {
      const uint64_t First = L.Tag * Config.LineWords;
      if (!L.Valid || First < Lo || First + Config.LineWords > Hi)
        continue;
      assert(!L.Dirty && "invalidateRange frees code lines only");
      L.Valid = false;
      ++Stats.DeadFrees;
    }
  }

  /// True if the line containing \p Addr is resident.
  bool probe(uint64_t Addr) const {
    return const_cast<CacheModel *>(this)->find(Geometry.lineAddr(Addr));
  }

  const CacheStats &stats() const { return Stats; }

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
      stepOne<P, A, false>(Events[I], BaseIndex + I, 0);
  }

  /// The live dispatch: one (policy, attribution) switch per access
  /// over the live-eligible policies. Out of line (CacheModel.cpp), so
  /// the replay translation units never instantiate the live steps.
  int64_t liveAccess(uint64_t Addr, bool IsWrite, const MemRefInfo &Info,
                     int64_t Value);

  /// The unified core. Every policy's variant of the write-back /
  /// write-through / bypass / dead-store semantics is this one
  /// function; `if constexpr` compiles each instantiation down to
  /// exactly the policy's own bookkeeping, and \p Live adds the word
  /// payload moves (\p Value is the stored word on a write; the return
  /// value is the delivered word on a live read). Forced inline: with
  /// seven policies in one feedImpl, GCC's growth limit otherwise leaves
  /// some instantiations as a call per event.
  template <CachePolicy P, bool A, bool Live>
  [[gnu::always_inline]] inline int64_t
  stepOne(const TraceEvent &E, uint64_t Index, int64_t Value) {
    static_assert(!Live || cachePolicyLiveEligible(P),
                  "replay-only policy in the live cache");
    uint64_t LA = Geometry.lineAddr(E.Addr);
    if constexpr (A)
      CurRef = E.RefId;

    if (E.Info.Bypass & Hinted) {
      if constexpr (A)
        ++Attr->row(E.RefId).Bypasses;
      if (!E.IsWrite) {
        if (ModelLine *L = find(LA)) {
          // UmAm_LOAD hit: the value migrates to the register and the
          // line is freed. A dirty line is written back first: the
          // paper's drop-without-write-back is only sound when the
          // register allocator guarantees a UmAm_STORE precedes the next
          // load of the location, and mixed policies (ReuseAware: cached
          // in one function, bypassed in another) break that guarantee
          // — the paranoid shadow check caught exactly this.
          ++Stats.BypassHitMigrations;
          if constexpr (Live)
            Value = wordOf(*L, E.Addr);
          if constexpr (P == CachePolicy::LivenessBypass)
            trainLive(*L); // The migration read is a reuse.
          if (Config.LineWords == 1) {
            ++Stats.DeadFrees;
            if (L->Dirty)
              evictLine<P, A, Live>(*L);
            L->Valid = false;
            L->Dirty = false;
          } else {
            // Multi-word lines cannot be dropped safely; write back
            // and invalidate instead.
            evictLine<P, A, Live>(*L);
          }
        } else {
          ++Stats.BypassReads;
          if constexpr (Live)
            Value = Mem->read(E.Addr);
        }
      } else {
        ++Stats.BypassWrites;
        if constexpr (Live) {
          // UmAm_STORE: straight to memory. A stale cached copy should
          // not exist under the compiler contract; if one does, keep it
          // coherent (no dirty bit, no recency change).
          Mem->write(E.Addr, Value);
          if (ModelLine *L = find(LA))
            wordOf(*L, E.Addr) = Value;
        }
      }
      return Value;
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

    bool WTWrite = E.IsWrite && Config.Write == WritePolicy::WriteThrough;

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
        return Value;
      }
    }

    if (E.IsWrite)
      ++Stats.Writes;
    else
      ++Stats.Reads;

    if (WTWrite) {
      // Write-through / no-write-allocate: memory always gets the word;
      // the cache is only updated on a hit. Lines are never dirty.
      ++Stats.WriteThroughWords;
      if constexpr (Live)
        Mem->write(E.Addr, Value);
      if constexpr (A) {
        RefCounters &R = Attr->row(E.RefId);
        ++(L ? R.Hits : R.Misses);
      }
      if (L) {
        ++Stats.WriteHits;
        touchHit<P>(*L, Set, Way);
        if constexpr (P == CachePolicy::MIN)
          L->NextUse = (*NextUses)[Index];
        if constexpr (Live)
          wordOf(*L, E.Addr) = Value;
        if (E.Info.LastRef & Hinted)
          freeLine<P, A>(*L, Set, Way, E.RefId);
      }
      return Value;
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
        evictLine<P, A, Live>(*L); // Victim write-back precedes the fetch.
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
      if constexpr (Live)
        if (FetchWords)
          fetchWords(*L);
    }

    if constexpr (P == CachePolicy::MIN)
      L->NextUse = (*NextUses)[Index];
    if (E.IsWrite)
      L->Dirty = true;
    if constexpr (Live) {
      if (E.IsWrite)
        wordOf(*L, E.Addr) = Value;
      else
        Value = wordOf(*L, E.Addr);
    }
    if (E.Info.LastRef & Hinted)
      freeLine<P, A>(*L, Set, Way, E.RefId);
    return Value;
  }

  ModelLine *find(uint64_t LA) {
    uint32_t Set = Geometry.setOf(LA);
    ModelLine *Base = &Lines[static_cast<size_t>(Set) * Config.Assoc];
    for (uint32_t Way = 0; Way != Config.Assoc; ++Way)
      if (Base[Way].Valid && Base[Way].Tag == LA)
        return &Base[Way];
    return nullptr;
  }

  /// Live form: the payload word of \p Addr within resident line \p L.
  int64_t &wordOf(ModelLine &L, uint64_t Addr) {
    return Words[static_cast<size_t>(&L - Lines.data()) * Config.LineWords +
                 Geometry.wordInLine(Addr)];
  }

  /// Live form: the memory words line \p L covers, clipped to the end of
  /// memory (a line may straddle it), as [First, First + Count).
  std::pair<uint64_t, uint64_t> lineSpan(const ModelLine &L) const {
    const uint64_t First = L.Tag * Config.LineWords;
    return {First, std::min<uint64_t>(Config.LineWords, Mem->size() - First)};
  }

  void fetchWords(ModelLine &L) {
    auto [First, Count] = lineSpan(L);
    int64_t *Data = &wordOf(L, First);
    for (uint64_t W = 0; W != Count; ++W)
      Data[W] = Mem->read(First + W);
  }

  void writeBackWords(ModelLine &L) {
    auto [First, Count] = lineSpan(L);
    const int64_t *Data = &wordOf(L, First);
    for (uint64_t W = 0; W != Count; ++W)
      Mem->write(First + W, Data[W]);
  }

  /// Recency update on a hit.
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

  /// Victim way: an invalid way first, else the policy's choice. The
  /// mechanisms are shared with the packed replay kernel
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

  template <CachePolicy P, bool A, bool Live> void evictLine(ModelLine &L) {
    if (L.Dirty) {
      ++Stats.WriteBacks;
      Stats.WriteBackWords += Config.LineWords;
      if constexpr (Live)
        writeBackWords(L);
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
  /// Live form only: the backing memory, and the line payloads (slot i
  /// owns [i*LineWords, (i+1)*LineWords)).
  MainMemory *Mem = nullptr;
  std::vector<int64_t> Words;
};

/// Replays \p Trace against a cache with geometry \p Config (the
/// Config.Policy field is ignored; \p Policy is used instead). Returns
/// the event counters.
CacheStats replayTrace(const std::vector<TraceEvent> &Trace,
                       const CacheConfig &Config, CachePolicy Policy);

/// The conservation laws every cache's counters obey, whatever the
/// policy, geometry, kernel or form (live or replay): ReadHits <= Reads,
/// WriteHits <= Writes, Fills == misses (write-back only), WriteBacks <=
/// Evictions, WriteBackWords == WriteBacks * LineWords and
/// DeadWriteBacksAvoided <= DeadFrees. Returns the first law \p S breaks
/// under \p Config, or null when it breaks none. The sweep engine checks
/// every replayed point and Simulator::run every live run.
const char *replayConservationViolation(const CacheStats &S,
                                        const CacheConfig &Config);

/// The attribution law: the rows of \p A, overflow row included, sum to
/// the aggregate counters \p S of the same run — hits to ReadHits +
/// WriteHits, misses to misses(), bypasses to BypassReads + BypassWrites
/// + BypassHitMigrations, suppressed dead write-backs to
/// DeadWriteBacksAvoided, and both evictions caused and evictions
/// suffered to Evictions. Returns the first sum that disagrees, or null.
/// Simulator::run checks every live run with a table and the sweep
/// engine every replayed point with one.
const char *attributionConservationViolation(const RefAttribution &A,
                                             const CacheStats &S);

} // namespace urcm

#endif // URCM_SIM_CACHEMODEL_H

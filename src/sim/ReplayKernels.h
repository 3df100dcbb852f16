//===- sim/ReplayKernels.h - Shared trace-replay kernels --------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chunk-fed replay kernels behind SweepPointStream
/// (SweepEngine.cpp). Internal to src/sim — the public surface is
/// urcm/sim/SweepEngine.h.
///
/// Every kernel is a stream — construct, feed(events), finish() — so
/// the streaming pipeline and the materialized-trace path execute the
/// same per-event code and cannot diverge. Each kernel instance owns
/// the whole state of its sweep point(s) and only reads the events it
/// is fed, so SweepPointStream can advance different instances on
/// different threads over one shared, read-only chunk.
///
/// See SweepEngine.cpp's file comment for the hole-extended Mattson
/// algorithm implemented by StackDistanceStream.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_REPLAYKERNELS_H
#define URCM_SIM_REPLAYKERNELS_H

#include "urcm/sim/SweepEngine.h"
#include "urcm/sim/TraceSim.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

namespace urcm {
namespace detail {

/// computeNextLineUses for an IgnoreHints replay: bypassed events count
/// as through-cache accesses there, so the next-use index must include
/// them.
inline std::shared_ptr<const std::vector<uint64_t>>
computeNextLineUsesUnhinted(const std::vector<TraceEvent> &Trace,
                            uint32_t LineWords) {
  CacheConfig Geo;
  Geo.LineWords = LineWords;
  CacheGeometry G(Geo);
  auto Next = std::make_shared<std::vector<uint64_t>>(
      Trace.size(), std::numeric_limits<uint64_t>::max());
  std::unordered_map<uint64_t, uint64_t> NextOfLine;
  for (uint64_t Index = Trace.size(); Index-- > 0;) {
    uint64_t LA = G.lineAddr(Trace[Index].Addr);
    auto It = NextOfLine.find(LA);
    if (It != NextOfLine.end())
      (*Next)[Index] = It->second;
    NextOfLine[LA] = Index;
  }
  return Next;
}

/// True if \p P can be served by the specialized two-way LRU kernel
/// below.
inline bool lruTwoWayEligible(const SweepPoint &P) {
  return P.Policy == TracePolicy::LRU &&
         P.Config.Write == WritePolicy::WriteBack &&
         P.Config.LineWords == 1 && P.Config.Assoc == 2 &&
         P.Config.NumLines >= 2 &&
         (P.Config.NumLines & (P.Config.NumLines - 1)) == 0;
}

/// Specialized replay for a two-way LRU write-back cache with one-word
/// lines and a power-of-two line count — the paper's preferred
/// data-cache shape and by far the hottest sweep configuration.
/// Counters are bit-identical to CacheModel; the win is the state
/// encoding: each set is a two-entry move-to-front list of tag words
/// (bit 63 = dirty, all-ones = invalid), so the common case — a hit on
/// the most recent way — is one load and one compare, with no tick
/// bookkeeping (for two ways, position *is* recency).
///
/// Invariants: among valid ways of a set, slot 0 is the more recently
/// used; invalid ways can sit in either slot (an access always leaves
/// the touched line in slot 0, and dead-tag/bypass frees invalidate in
/// place). Victim choice matches DataCache::chooseVictim: an invalid
/// way first, else the LRU way (slot 1).
class LRUTwoWayStream {
  static constexpr uint64_t DirtyBit = uint64_t(1) << 63;
  static constexpr uint64_t TagMask = ~DirtyBit;
  static constexpr uint64_t Invalid = ~uint64_t(0);

  uint64_t SetMask;
  bool Hinted;
  std::vector<uint64_t> Tags;
  CacheStats St;
  /// Attribution table (null: off, the common case).
  RefAttribution *Attr = nullptr;
  /// Installer RefId per way, parallel to Tags; sized by setAttribution.
  std::vector<uint16_t> InstalledBy;

public:
  explicit LRUTwoWayStream(const SweepPoint &P)
      : SetMask(P.Config.NumLines / 2 - 1), Hinted(!P.IgnoreHints),
        Tags(P.Config.NumLines, Invalid) {
    assert(lruTwoWayEligible(P));
  }

  /// Routes attribution into \p A (see RefAttribution; counter sites
  /// mirror TwoWayWB1Cache's).
  void setAttribution(RefAttribution *A) {
    Attr = A;
    if (A)
      InstalledBy.assign(Tags.size(), MemRefInfo::NoRefId);
  }

  void feed(const TraceEvent *Events, size_t Count) {
    if (Attr)
      feedImpl<true>(Events, Count);
    else
      feedImpl<false>(Events, Count);
  }

  CacheStats finish() {
    for (uint64_t T : Tags)
      if (T != Invalid && (T & DirtyBit))
        ++St.FlushWriteBackWords;
    return St;
  }

private:
  template <bool Attrib>
  void feedImpl(const TraceEvent *Events, size_t Count) {
    // Tag pointer, set mask and counters live in registers for the
    // whole chunk.
    uint64_t *const Tags = this->Tags.data();
    [[maybe_unused]] uint16_t *const IB =
        Attrib ? InstalledBy.data() : nullptr;
    [[maybe_unused]] RefAttribution *const Attr = this->Attr;
    const uint64_t SetMask = this->SetMask;
    const bool Hinted = this->Hinted;
    CacheStats St = this->St;
    for (const TraceEvent *E = Events, *End = Events + Count; E != End;
         ++E) {
      const uint64_t A = E->Addr;
      const bool W = E->IsWrite;
      [[maybe_unused]] const uint16_t Ref = E->RefId;
      const uint64_t Set = A & SetMask;
      uint64_t *P = Tags + (Set << 1);
      [[maybe_unused]] uint16_t *B = Attrib ? IB + (Set << 1) : nullptr;
      if (__builtin_expect(!(E->Info.Bypass & Hinted), 1)) {
        uint64_t T0 = P[0];
        if (W)
          ++St.Writes;
        else
          ++St.Reads;
        if ((T0 & TagMask) == A) {
          if constexpr (Attrib)
            ++Attr->row(Ref).Hits;
          if (W) {
            ++St.WriteHits;
            P[0] = T0 | DirtyBit;
          } else {
            ++St.ReadHits;
          }
        } else if (uint64_t T1 = P[1]; (T1 & TagMask) == A) {
          if constexpr (Attrib) {
            ++Attr->row(Ref).Hits;
            const uint16_t Tmp = B[0];
            B[0] = B[1];
            B[1] = Tmp;
          }
          if (W) {
            ++St.WriteHits;
            T1 |= DirtyBit;
          } else {
            ++St.ReadHits;
          }
          P[1] = T0;
          P[0] = T1;
        } else {
          // Miss. One-word write-allocate skips the fetch (the store
          // overwrites the whole line).
          if constexpr (Attrib)
            ++Attr->row(Ref).Misses;
          ++St.Fills;
          if (!W)
            ++St.FillWords;
          uint64_t NewTag = W ? A | DirtyBit : A;
          if (T0 == Invalid) {
            P[0] = NewTag;
            if constexpr (Attrib)
              B[0] = Ref;
          } else {
            if (T1 != Invalid) {
              ++St.Evictions;
              if constexpr (Attrib) {
                ++Attr->row(Ref).EvictionsCaused;
                ++Attr->row(B[1]).EvictionsSuffered;
              }
              if (T1 & DirtyBit) {
                ++St.WriteBacks;
                ++St.WriteBackWords;
              }
            }
            P[1] = T0;
            P[0] = NewTag;
            if constexpr (Attrib) {
              B[1] = B[0];
              B[0] = Ref;
            }
          }
        }
        if (E->Info.LastRef & Hinted) {
          // The accessed line sits in slot 0 after every path above.
          ++St.DeadFrees;
          if (P[0] & DirtyBit) {
            ++St.DeadWriteBacksAvoided;
            if constexpr (Attrib)
              ++Attr->row(Ref).DeadWriteBacksSuppressed;
          }
          P[0] = Invalid;
        }
      } else if (W) {
        ++St.BypassWrites;
        if constexpr (Attrib)
          ++Attr->row(Ref).Bypasses;
      } else {
        // Bypass read: a resident line migrates to the register file
        // (dirty lines write back first) and frees its slot.
        if constexpr (Attrib)
          ++Attr->row(Ref).Bypasses;
        uint64_t T0 = P[0], T1 = P[1];
        uint64_t *Slot = (T0 & TagMask) == A   ? &P[0]
                         : (T1 & TagMask) == A ? &P[1]
                                               : nullptr;
        if (Slot) {
          ++St.BypassHitMigrations;
          ++St.DeadFrees;
          if (*Slot & DirtyBit) {
            ++St.WriteBacks;
            ++St.WriteBackWords;
            ++St.Evictions;
            if constexpr (Attrib) {
              ++Attr->row(Ref).EvictionsCaused;
              ++Attr->row(B[Slot - P]).EvictionsSuffered;
            }
          }
          *Slot = Invalid;
        } else {
          ++St.BypassReads;
        }
      }
    }
    this->St = St;
  }
};

constexpr uint64_t StackNever = std::numeric_limits<uint64_t>::max();

/// Fenwick tree of 0/1 flags over a growable 1-based position domain.
/// ensure() extends the domain geometrically, preserving the set flags
/// (an O(domain) rebuild per doubling — amortized constant per
/// position, and zero rebuilds when the final domain is reserved up
/// front, as the batch wrappers do).
class BitTree {
public:
  uint64_t total() const { return Total; }

  /// Grows the domain so position \p N is addressable.
  void ensure(uint64_t N) {
    if (N < Tree.size())
      return;
    uint64_t NewDomain =
        std::max<uint64_t>(N, Tree.empty() ? 64 : 2 * (Tree.size() - 1));
    Flags.resize(NewDomain + 1, 0);
    Tree.assign(NewDomain + 1, 0);
    LogN = 0;
    while ((uint64_t(1) << (LogN + 1)) <= NewDomain)
      ++LogN;
    // Linear Fenwick rebuild: by the time position I propagates to its
    // parent, every child range of I has already folded into Tree[I].
    for (uint64_t I = 1; I <= NewDomain; ++I) {
      Tree[I] += Flags[I];
      uint64_t J = I + (I & (~I + 1));
      if (J <= NewDomain)
        Tree[J] += Tree[I];
    }
  }

  void set(uint64_t I) {
    Flags[I] = 1;
    ++Total;
    for (; I < Tree.size(); I += I & (~I + 1))
      ++Tree[I];
  }

  void clear(uint64_t I) {
    Flags[I] = 0;
    --Total;
    for (; I < Tree.size(); I += I & (~I + 1))
      --Tree[I];
  }

  /// Number of set flags at positions <= I.
  uint64_t prefix(uint64_t I) const {
    uint64_t Sum = 0;
    for (; I > 0; I -= I & (~I + 1))
      Sum += Tree[I];
    return Sum;
  }

  /// Smallest position whose prefix is >= K (the K-th set flag);
  /// requires 1 <= K <= total().
  uint64_t select(uint64_t K) const {
    uint64_t Pos = 0;
    for (uint32_t Bit = LogN + 1; Bit-- > 0;) {
      uint64_t Next = Pos + (uint64_t(1) << Bit);
      if (Next < Tree.size() && Tree[Next] < K) {
        Pos = Next;
        K -= Tree[Next];
      }
    }
    return Pos + 1;
  }

private:
  std::vector<uint32_t> Tree;
  std::vector<uint8_t> Flags;
  uint64_t Total = 0;
  uint32_t LogN = 0;
};

/// Chunk-fed form of the hole-extended Mattson sweep (see
/// SweepEngine.cpp's file comment for the update rules). One instance
/// per hint view.
class StackDistanceStream {
  static constexpr uint64_t Never = StackNever;

  /// DirtyMin = smallest tracked-or-not capacity whose copy of the line
  /// is dirty (Never when clean in every size).
  struct LineState {
    uint64_t Ts;
    uint64_t DirtyMin;
  };

  std::vector<uint32_t> NumLines;
  bool IgnoreHints;
  std::vector<CacheStats> Stats;
  BitTree All;   // Valid lines and holes.
  BitTree Holes; // Holes only.
  std::unordered_map<uint64_t, LineState> Lines;
  std::vector<uint64_t> AddrOfTs;
  uint64_t NextTs = 0;

  // 0-based stack depth: number of entries more recent than Ts.
  uint64_t depthOf(uint64_t Ts) const {
    return All.total() - All.prefix(Ts);
  }

public:
  StackDistanceStream(std::vector<uint32_t> NumLinesIn, bool IgnoreHints)
      : NumLines(std::move(NumLinesIn)), IgnoreHints(IgnoreHints),
        Stats(NumLines.size()) {}

  /// Pre-sizes the timestamp domain (each event consumes at most one
  /// fresh timestamp).
  void reserve(uint64_t ExpectedEvents) {
    All.ensure(ExpectedEvents + 1);
    Holes.ensure(ExpectedEvents + 1);
    if (AddrOfTs.size() < ExpectedEvents + 2)
      AddrOfTs.resize(ExpectedEvents + 2, 0);
  }

  void feed(const TraceEvent *Events, size_t Count) {
    const size_t NumSizes = NumLines.size();
    if (NumSizes == 0)
      return;
    // Grow the timestamp domain ahead of the chunk.
    All.ensure(NextTs + Count + 1);
    Holes.ensure(NextTs + Count + 1);
    if (AddrOfTs.size() < NextTs + Count + 2)
      AddrOfTs.resize(
          std::max<uint64_t>(NextTs + Count + 2, 2 * AddrOfTs.size()), 0);

    for (const TraceEvent *EP = Events, *EEnd = Events + Count;
         EP != EEnd; ++EP) {
      const TraceEvent &E = *EP;
      const uint64_t LA = E.Addr; // One-word lines: address == line addr.
      const bool Bypass = !IgnoreHints && E.Info.Bypass;
      const bool LastRef = !IgnoreHints && E.Info.LastRef;
      auto It = Lines.find(LA);

      if (Bypass) {
        if (E.IsWrite) {
          // UmAm_STORE: straight to memory in every size.
          for (CacheStats &St : Stats)
            ++St.BypassWrites;
          continue;
        }
        if (It == Lines.end()) {
          for (CacheStats &St : Stats)
            ++St.BypassReads;
          continue;
        }
        // UmAm_LOAD: sizes holding the line migrate-and-free it (dirty
        // copies are written back first, see DataCache::read); the rest
        // read memory directly.
        const uint64_t D = depthOf(It->second.Ts);
        const uint64_t DirtyMin = It->second.DirtyMin;
        for (size_t K = 0; K != NumSizes; ++K) {
          CacheStats &St = Stats[K];
          const uint64_t S = NumLines[K];
          if (S > D) {
            ++St.BypassHitMigrations;
            ++St.DeadFrees;
            if (DirtyMin <= S) {
              ++St.WriteBacks;
              ++St.WriteBackWords;
              ++St.Evictions;
            }
          } else {
            ++St.BypassReads;
          }
        }
        // The entry becomes a hole in place: every size that held the
        // line gains a free slot at its stack position.
        Holes.set(It->second.Ts);
        Lines.erase(It);
        continue;
      }

      // Through-cache access. All queries run against the pre-access
      // stack; mutations follow after the stats loop.
      const uint64_t D = It == Lines.end() ? Never : depthOf(It->second.Ts);
      const uint64_t TotalBefore = All.total();
      uint64_t HoleTs = 0;
      uint64_t PHole = Never; // 0-based depth of the topmost hole.
      if (Holes.total() > 0) {
        HoleTs = Holes.select(Holes.total());
        PHole = depthOf(HoleTs);
      }
      // Sizes up to EvictMax miss with a full window and no hole in it:
      // they evict their own LRU victim, the entry at stack position S.
      const uint64_t EvictMax = std::min({D, PHole, TotalBefore});

      for (size_t K = 0; K != NumSizes; ++K) {
        CacheStats &St = Stats[K];
        const uint64_t S = NumLines[K];
        if (E.IsWrite)
          ++St.Writes;
        else
          ++St.Reads;
        if (D != Never && S > D) {
          if (E.IsWrite)
            ++St.WriteHits;
          else
            ++St.ReadHits;
          continue;
        }
        ++St.Fills;
        if (!E.IsWrite)
          ++St.FillWords; // One-word write-allocate skips the fetch.
        if (S <= EvictMax) {
          const uint64_t VictimTs = All.select(TotalBefore - S + 1);
          ++St.Evictions;
          if (Lines.find(AddrOfTs[VictimTs])->second.DirtyMin <= S) {
            ++St.WriteBacks;
            ++St.WriteBackWords;
          }
        }
      }

      // Stack update.
      const uint64_t NewTs = ++NextTs;
      AddrOfTs[NewTs] = LA;
      if (It != Lines.end()) {
        const uint64_t OldTs = It->second.Ts;
        All.clear(OldTs);
        if (PHole != Never && HoleTs > OldTs) {
          // The topmost hole moves down into the vacated slot: sizes in
          // (PHole, D] missed and consumed their free slot; hitting
          // sizes keep theirs.
          Holes.clear(HoleTs);
          All.clear(HoleTs);
          Holes.set(OldTs);
          All.set(OldTs);
        }
        It->second.Ts = NewTs;
        if (E.IsWrite)
          It->second.DirtyMin = 1;
        else if (It->second.DirtyMin != Never)
          It->second.DirtyMin = std::max(It->second.DirtyMin, D + 1);
      } else {
        // Miss everywhere: the topmost hole (if any) is consumed.
        if (PHole != Never) {
          Holes.clear(HoleTs);
          All.clear(HoleTs);
        }
        Lines.emplace(LA, LineState{NewTs, E.IsWrite ? 1 : Never});
      }
      All.set(NewTs);

      if (LastRef) {
        // The line (now on top, resident in every size) is freed; dirty
        // copies are dropped without write-back.
        const LineState &LS = Lines.find(LA)->second;
        for (size_t K = 0; K != NumSizes; ++K) {
          ++Stats[K].DeadFrees;
          if (LS.DirtyMin <= NumLines[K])
            ++Stats[K].DeadWriteBacksAvoided;
        }
        Holes.set(NewTs);
        Lines.erase(LA);
      }
    }
  }

  std::vector<CacheStats> finish() {
    // End of program: flush the remaining dirty lines of every size.
    for (const auto &[Addr, LS] : Lines) {
      if (LS.DirtyMin == Never)
        continue;
      const uint64_t P = depthOf(LS.Ts);
      for (size_t K = 0; K != NumLines.size(); ++K)
        if (NumLines[K] > P && LS.DirtyMin <= NumLines[K])
          ++Stats[K].FlushWriteBackWords;
    }
    return Stats;
  }
};

} // namespace detail
} // namespace urcm

#endif // URCM_SIM_REPLAYKERNELS_H

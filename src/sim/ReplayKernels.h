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

#include "urcm/sim/CacheModel.h"
#include "urcm/sim/SweepEngine.h"
#include "urcm/support/RNG.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>
#include <vector>

namespace urcm {
namespace detail {

/// Replay of a write-back cache with one-word lines and a power-of-two
/// set count under any policy but MIN: every point of the paper's
/// geometry and of the report's policy grid. Counters and attribution
/// tables are bit-identical to CacheModel, which stays the generic model
/// and this kernel's test oracle.
///
/// State encoding: one uint64_t per way (layout below), so a set of the
/// paper's two-way cache is one 16-byte pair and a hit on slot 0 is one
/// load, one mask and one compare. The valid bit sits outside the 32
/// address bits, so address 0xFFFFFFFF cannot alias an empty way (an
/// empty way is the all-zero word).
///
/// What slot order means per policy:
///  * LRU, LivenessBypass: move-to-front. Among valid ways slot 0 is the
///    most recently used, so a full set's victim is the last slot and no
///    tick is kept.
///  * FIFO: insertion order, newest first; a hit does not reorder.
///  * Random, TreePLRU, SRRIP: fixed slots (slot = CacheModel's way
///    index), so victim indices, Rng draws, tree bits and RRPV aging
///    match CacheModel exactly.
/// Frees invalidate in place, so invalid ways can sit anywhere. A miss
/// fills the first invalid slot, as CacheModel::victimWay does; for the
/// ordered policies the choice among invalid ways is unobservable.
///
/// Associativity and policy are template parameters: feed() dispatches
/// once per chunk and the loop keeps its counters in locals. IgnoreHints
/// is honoured here by masking the hint bits, so no stripped copy of the
/// trace is needed.
class PackedOneWordStream {
  // Way word layout: [31:0] address, 32 valid, 33 dirty, 34 reused
  // (LivenessBypass), [36:35] RRPV (SRRIP), [63:48] installer RefId.
  static constexpr uint64_t AddrMask = 0xFFFFFFFFull;
  static constexpr uint64_t ValidBit = uint64_t(1) << 32;
  static constexpr uint64_t DirtyBit = uint64_t(1) << 33;
  static constexpr uint64_t ReusedBit = uint64_t(1) << 34;
  static constexpr unsigned RRPVShift = 35;
  static constexpr uint64_t RRPVMask = uint64_t(3) << RRPVShift;
  static constexpr unsigned RefShift = 48;
  static_assert(sizeof(TraceEvent::Addr) * 8 == 32,
                "the address must fit below the valid bit");
  static_assert(sizeof(TraceEvent::RefId) * 8 == 64 - RefShift,
                "the installer RefId fills the top bits");
  static_assert(SRRIPMaxRRPV <= (RRPVMask >> RRPVShift) &&
                    RRPVShift + 2 <= RefShift,
                "the RRPV field holds every RRPV and overlaps nothing");

  CachePolicy Policy;
  uint32_t Assoc;
  uint64_t SetMask;
  bool Hinted;
  std::vector<uint64_t> Ways;
  /// Tree-PLRU node bits, one word per set (TreePLRU only).
  std::vector<uint64_t> TreeBits;
  /// LivenessBypass: per-RefId dead-on-arrival counters (see
  /// CacheModel), indexed directly by the uint16 RefId.
  std::vector<uint8_t> Dead;
  uint64_t Probe = 0;
  SplitMix64 Rng;
  CacheStats St;
  RefAttribution *Attr = nullptr;

public:
  /// The routing rule: every other point replays on CacheModel. The
  /// associativities are the ones feedAssoc instantiates.
  static bool eligible(const SweepPoint &P) {
    const CacheConfig &C = P.Config;
    const bool Compiled =
        C.Assoc == 1 || C.Assoc == 2 || C.Assoc == 4 || C.Assoc == 8;
    if (P.Policy == CachePolicy::MIN || C.LineWords != 1 ||
        C.Write != WritePolicy::WriteBack || !Compiled ||
        C.NumLines % C.Assoc != 0)
      return false;
    const uint32_t Sets = C.NumLines / C.Assoc;
    return Sets != 0 && (Sets & (Sets - 1)) == 0;
  }

  explicit PackedOneWordStream(const SweepPoint &P)
      : Policy(P.Policy), Assoc(P.Config.Assoc),
        SetMask(P.Config.NumLines / P.Config.Assoc - 1),
        Hinted(!P.IgnoreHints), Ways(P.Config.NumLines, 0),
        Rng(P.Config.Seed) {
    assert(eligible(P));
    if (Policy == CachePolicy::TreePLRU)
      TreeBits.assign(SetMask + 1, 0);
    if (Policy == CachePolicy::LivenessBypass)
      Dead.assign(size_t(1) << 16, 0);
  }

  /// Routes attribution into \p A; counter sites mirror CacheModel's.
  void setAttribution(RefAttribution *A) { Attr = A; }

  void feed(const TraceEvent *Events, size_t Count) {
    if (Attr)
      feedAssoc<true>(Events, Count);
    else
      feedAssoc<false>(Events, Count);
  }

  CacheStats finish() {
    for (uint64_t V : Ways)
      if ((V & (ValidBit | DirtyBit)) == (ValidBit | DirtyBit))
        ++St.FlushWriteBackWords;
    return St;
  }

private:
  template <bool A> void feedAssoc(const TraceEvent *Events, size_t Count) {
    switch (Assoc) {
    case 1:
      return feedPolicy<1, A>(Events, Count);
    case 2:
      return feedPolicy<2, A>(Events, Count);
    case 4:
      return feedPolicy<4, A>(Events, Count);
    case 8:
      return feedPolicy<8, A>(Events, Count);
    }
    assert(false && "associativity the kernel is not compiled for");
  }

  template <uint32_t N, bool A>
  void feedPolicy(const TraceEvent *Events, size_t Count) {
    switch (Policy) {
    case CachePolicy::LRU:
      return feedLoop<N, CachePolicy::LRU, A>(Events, Count);
    case CachePolicy::FIFO:
      return feedLoop<N, CachePolicy::FIFO, A>(Events, Count);
    case CachePolicy::Random:
      return feedLoop<N, CachePolicy::Random, A>(Events, Count);
    case CachePolicy::TreePLRU:
      return feedLoop<N, CachePolicy::TreePLRU, A>(Events, Count);
    case CachePolicy::SRRIP:
      return feedLoop<N, CachePolicy::SRRIP, A>(Events, Count);
    case CachePolicy::LivenessBypass:
      return feedLoop<N, CachePolicy::LivenessBypass, A>(Events, Count);
    case CachePolicy::MIN:
      break;
    }
    assert(false && "MIN replays on CacheModel");
  }

  /// Slot holding \p Key (address | ValidBit), or N on a miss.
  template <uint32_t N>
  static uint32_t findWay(const uint64_t *S, uint64_t Key) {
    for (uint32_t Way = 0; Way != N; ++Way)
      if ((S[Way] & (AddrMask | ValidBit)) == Key)
        return Way;
    return N;
  }

  template <uint32_t N> static uint32_t firstInvalid(const uint64_t *S) {
    for (uint32_t Way = 0; Way != N; ++Way)
      if (!(S[Way] & ValidBit))
        return Way;
    return N;
  }

  static uint16_t installer(uint64_t V) {
    return static_cast<uint16_t>(V >> RefShift);
  }

  /// LivenessBypass training, as CacheModel::trainLive / trainDead.
  static void trainLive(uint8_t *Dead, uint64_t &V) {
    if (V & ReusedBit)
      return;
    V |= ReusedBit;
    uint8_t &C = Dead[installer(V)];
    if (C > 0)
      --C;
  }
  static void trainDead(uint8_t *Dead, uint64_t V) {
    if (V & ReusedBit)
      return;
    uint8_t &C = Dead[installer(V)];
    if (C < LivenessCounterMax)
      ++C;
  }

  /// SRRIP's victim walk (detail::srripVictimWay) on packed RRPVs.
  template <uint32_t N> static uint32_t srripVictim(uint64_t *S) {
    for (;;) {
      for (uint32_t Way = 0; Way != N; ++Way)
        if (((S[Way] & RRPVMask) >> RRPVShift) >= SRRIPMaxRRPV)
          return Way;
      for (uint32_t Way = 0; Way != N; ++Way)
        S[Way] += uint64_t(1) << RRPVShift;
    }
  }

  template <uint32_t N, CachePolicy P, bool A>
  void feedLoop(const TraceEvent *Events, size_t Count) {
    constexpr bool MoveToFront =
        P == CachePolicy::LRU || P == CachePolicy::LivenessBypass;
    constexpr bool InsertAtFront = MoveToFront || P == CachePolicy::FIFO;
    constexpr bool Tree = P == CachePolicy::TreePLRU && N > 1;
    // Everything the loop touches lives in locals for the whole chunk.
    uint64_t *const Ways = this->Ways.data();
    [[maybe_unused]] uint64_t *const TreeBits = this->TreeBits.data();
    [[maybe_unused]] uint8_t *const Dead = this->Dead.data();
    [[maybe_unused]] RefAttribution *const Attr = this->Attr;
    const uint64_t SetMask = this->SetMask;
    const unsigned Hinted = this->Hinted;
    SplitMix64 Rng = this->Rng;
    uint64_t Probe = this->Probe;
    CacheStats St = this->St;
    for (const TraceEvent *E = Events, *End = Events + Count; E != End;
         ++E) {
      const uint64_t Addr = E->Addr;
      const bool W = E->IsWrite;
      [[maybe_unused]] const uint16_t Ref = E->RefId;
      const uint64_t SetIdx = Addr & SetMask;
      uint64_t *const S = Ways + SetIdx * N;
      const uint64_t Key = Addr | ValidBit;

      if (__builtin_expect(E->Info.Bypass & Hinted, 0)) {
        if constexpr (A)
          ++Attr->row(Ref).Bypasses;
        if (W) {
          ++St.BypassWrites; // Changes no cache state.
          continue;
        }
        const uint32_t Way = findWay<N>(S, Key);
        if (Way == N) {
          ++St.BypassReads;
          continue;
        }
        // A resident line migrates to the register file (dirty lines
        // write back first) and frees its slot.
        ++St.BypassHitMigrations;
        ++St.DeadFrees;
        uint64_t V = S[Way];
        if constexpr (P == CachePolicy::LivenessBypass)
          trainLive(Dead, V); // The migration read is a reuse.
        if (V & DirtyBit) {
          ++St.WriteBacks;
          ++St.WriteBackWords;
          ++St.Evictions;
          if constexpr (A) {
            ++Attr->row(Ref).EvictionsCaused;
            ++Attr->row(installer(V)).EvictionsSuffered;
          }
        }
        S[Way] = 0;
        continue;
      }

      uint32_t Way = findWay<N>(S, Key);
      if constexpr (P == CachePolicy::LivenessBypass) {
        if (Way == N && Dead[Ref] >= LivenessDeadThreshold &&
            ++Probe % LivenessProbePeriod != 0) {
          // Predicted dead on arrival: served from memory, no allocate.
          if (W)
            ++St.BypassWrites;
          else
            ++St.BypassReads;
          if constexpr (A)
            ++Attr->row(Ref).Bypasses;
          continue;
        }
      }
      if (W)
        ++St.Writes;
      else
        ++St.Reads;

      if (Way != N) {
        if (W)
          ++St.WriteHits;
        else
          ++St.ReadHits;
        if constexpr (A)
          ++Attr->row(Ref).Hits;
        uint64_t V = S[Way] | (W ? DirtyBit : 0);
        if constexpr (P == CachePolicy::LivenessBypass)
          trainLive(Dead, V);
        else if constexpr (P == CachePolicy::SRRIP)
          V &= ~RRPVMask;
        else if constexpr (Tree)
          TreeBits[SetIdx] = detail::treePLRUTouch(TreeBits[SetIdx], N, Way);
        if constexpr (MoveToFront) {
          for (; Way != 0; --Way)
            S[Way] = S[Way - 1];
        }
        S[Way] = V;
      } else {
        if constexpr (A)
          ++Attr->row(Ref).Misses;
        ++St.Fills;
        if (!W)
          ++St.FillWords; // One-word write-allocate skips the fetch.
        Way = firstInvalid<N>(S);
        if (Way == N) {
          if constexpr (InsertAtFront)
            Way = N - 1; // Least recent, or oldest.
          else if constexpr (P == CachePolicy::Random)
            Way = static_cast<uint32_t>(Rng.nextBelow(N));
          else if constexpr (P == CachePolicy::TreePLRU)
            Way = N == 1 ? 0 : detail::treePLRUVictimWay(TreeBits[SetIdx], N);
          else
            Way = srripVictim<N>(S);
          const uint64_t Victim = S[Way];
          ++St.Evictions;
          if (Victim & DirtyBit) {
            ++St.WriteBacks;
            ++St.WriteBackWords;
          }
          if constexpr (A) {
            ++Attr->row(Ref).EvictionsCaused;
            ++Attr->row(installer(Victim)).EvictionsSuffered;
          }
          if constexpr (P == CachePolicy::LivenessBypass)
            trainDead(Dead, Victim); // Died without reuse.
        }
        uint64_t V = Key | (W ? DirtyBit : 0) | uint64_t(Ref) << RefShift;
        if constexpr (P == CachePolicy::SRRIP)
          V |= uint64_t(SRRIPInsertRRPV) << RRPVShift;
        else if constexpr (Tree)
          TreeBits[SetIdx] = detail::treePLRUTouch(TreeBits[SetIdx], N, Way);
        if constexpr (InsertAtFront) {
          for (; Way != 0; --Way)
            S[Way] = S[Way - 1];
        }
        S[Way] = V;
      }

      if (E->Info.LastRef & Hinted) {
        // The accessed line sits in slot Way after either path above.
        const uint64_t V = S[Way];
        ++St.DeadFrees;
        if (V & DirtyBit) {
          ++St.DeadWriteBacksAvoided;
          if constexpr (A)
            ++Attr->row(Ref).DeadWriteBacksSuppressed;
        }
        if constexpr (P == CachePolicy::LivenessBypass)
          trainDead(Dead, V); // Install + immediate free is dead-on-arrival.
        S[Way] = 0;
      }
    }
    this->St = St;
    this->Rng = Rng;
    this->Probe = Probe;
  }
};

/// The repeat filter in front of hint-stripped packed points (DESIGN.md
/// §16, "Repeat-filtered stripped replay"). For one set count it drops
/// every access that is at least the third consecutive access to its
/// set, all to the same address, provided it is a read or an earlier
/// access of that run wrote. In the stripped view such an access hits
/// and changes no state under LRU, FIFO, Random, TreePLRU and SRRIP, so
/// those points replay only the kept events and add the dropped reads
/// and writes to their hit counters. Run states persist across chunks.
class RepeatFilter {
  // Run word per set: [31:0] address, 32 valid, 33 the run has at least
  // two accesses, 34 an access of the run wrote. An untouched set is the
  // all-zero word, which no key matches.
  static constexpr uint64_t AddrMask = 0xFFFFFFFFull;
  static constexpr uint64_t ValidBit = uint64_t(1) << 32;
  static constexpr unsigned RepeatShift = 33;
  static constexpr unsigned WrittenShift = 34;

  std::vector<uint64_t> Runs;
  uint64_t SetMask;
  uint64_t DroppedReads = 0;
  uint64_t DroppedWrites = 0;

public:
  /// The points whose packed kernel is exact over the kept events: the
  /// stripped view (a bypass would make a run's next access miss), no
  /// attribution (per-RefId rows need every event) and no
  /// LivenessBypass (a predicted-dead access bypasses, and the run's
  /// next access misses again).
  static bool eligible(const SweepPoint &P) {
    return P.IgnoreHints && !P.wantsAttribution() &&
           P.Policy != CachePolicy::LivenessBypass &&
           PackedOneWordStream::eligible(P);
  }

  /// Set count of \p P, the filter's key: points sharing it share one
  /// filter whatever their associativity.
  static uint32_t sets(const SweepPoint &P) {
    return P.Config.NumLines / P.Config.Assoc;
  }

  /// \p Sets is a power of two (PackedOneWordStream::eligible).
  explicit RepeatFilter(uint32_t Sets) : Runs(Sets, 0), SetMask(Sets - 1) {
    assert(Sets != 0 && (Sets & (Sets - 1)) == 0);
  }

  /// Copies the events of \p Events that are not dropped to \p Out,
  /// which has room for \p Count, in order; returns how many.
  size_t filter(const TraceEvent *Events, size_t Count, TraceEvent *Out) {
    uint64_t *const Runs = this->Runs.data();
    const uint64_t SetMask = this->SetMask;
    uint64_t Reads = 0, Writes = 0;
    size_t Kept = 0;
    // Branch-free: every event is stored and the cursor advances only
    // past a kept one, since most events of a stripped trace drop.
    for (const TraceEvent *E = Events, *End = Events + Count; E != End;
         ++E) {
      const uint64_t Addr = E->Addr;
      const uint64_t W = E->IsWrite;
      uint64_t &Run = Runs[Addr & SetMask];
      const uint64_t Old = Run;
      const uint64_t Same = (Old & (AddrMask | ValidBit)) == (Addr | ValidBit);
      const uint64_t Drop = Same & (Old >> RepeatShift) &
                            ((W ^ 1) | (Old >> WrittenShift)) & 1;
      Run = Addr | ValidBit | Same << RepeatShift |
            ((Same & (Old >> WrittenShift)) | W) << WrittenShift;
      Out[Kept] = *E;
      Kept += Drop ^ 1;
      Writes += Drop & W;
      Reads += Drop & (W ^ 1);
    }
    DroppedReads += Reads;
    DroppedWrites += Writes;
    return Kept;
  }

  uint64_t droppedReads() const { return DroppedReads; }
  uint64_t droppedWrites() const { return DroppedWrites; }
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
        // copies are written back first, see CacheModel::stepOne); the rest
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

//===- urcm/sim/Cache.h - Cache vocabulary, two-way fast path ---*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache vocabulary shared by every cache in the simulator —
/// CacheConfig, CacheStats, CacheGeometry, the word-addressed MainMemory
/// with its paranoid shadow copy — and the paper-geometry fast path
/// TwoWayWB1CacheT. Every other geometry, live or replayed, runs on the
/// one policy-generic model, CacheModel (urcm/sim/CacheModel.h), which
/// also documents the bypass and last-reference hint semantics both
/// implement.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_CACHE_H
#define URCM_SIM_CACHE_H

#include "urcm/ir/IR.h" // MemRefInfo.
#include "urcm/sim/CachePolicy.h"
#include "urcm/sim/RefAttribution.h"
#include "urcm/support/ZeroedWords.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace urcm {

/// Write policies. The paper's write-back model is the default; a
/// write-through/no-allocate option is provided as an ablation — under
/// write-through the dead bit can still free lines early but has no
/// write-back traffic to save.
enum class WritePolicy { WriteBack, WriteThrough };

const char *writePolicyName(WritePolicy Policy);

/// Cache geometry and policy.
struct CacheConfig {
  /// Total number of lines.
  uint32_t NumLines = 128;
  /// Associativity (lines per set). NumLines % Assoc must be 0.
  uint32_t Assoc = 2;
  /// Words per line; the paper assumes 1.
  uint32_t LineWords = 1;
  /// Live caches accept every cachePolicyLiveEligible() policy; MIN and
  /// LivenessBypass are replay-only.
  CachePolicy Policy = CachePolicy::LRU;
  WritePolicy Write = WritePolicy::WriteBack;
  /// Seed for the Random policy.
  uint64_t Seed = 0x5eed;

  friend bool operator==(const CacheConfig &, const CacheConfig &) = default;
};

/// Event counters. "Words" counters measure cache<->memory traffic in
/// machine words; CPU-side counters measure references.
struct CacheStats {
  uint64_t Reads = 0;      ///< Through-cache CPU reads.
  uint64_t Writes = 0;     ///< Through-cache CPU writes.
  uint64_t ReadHits = 0;
  uint64_t WriteHits = 0;
  uint64_t Fills = 0;          ///< Line fills from memory.
  uint64_t FillWords = 0;
  uint64_t WriteBacks = 0;     ///< Dirty evictions written to memory.
  uint64_t WriteBackWords = 0;
  uint64_t Evictions = 0;
  uint64_t DeadFrees = 0;              ///< Lines freed by last-ref tags.
  uint64_t DeadWriteBacksAvoided = 0;  ///< Dirty dead lines dropped.
  uint64_t BypassReads = 0;   ///< Bypassed reads served by memory.
  uint64_t BypassWrites = 0;  ///< Bypassed writes sent to memory.
  uint64_t BypassHitMigrations = 0; ///< UmAm_LOAD hits that freed a line.
  /// Words sent to memory by write-through stores (WriteThrough only).
  uint64_t WriteThroughWords = 0;
  /// Write-backs performed when the program ends (not part of steady
  /// traffic).
  uint64_t FlushWriteBackWords = 0;

  uint64_t misses() const { return Reads + Writes - ReadHits - WriteHits; }
  double hitRate() const {
    uint64_t Total = Reads + Writes;
    return Total == 0
               ? 0.0
               : static_cast<double>(ReadHits + WriteHits) / Total;
  }
  /// Traffic the data cache must handle, in words: CPU references that go
  /// through it plus its memory-side fills and write-backs. This is the
  /// quantity Figure 5's reduction is computed over.
  uint64_t cacheTraffic() const {
    return Reads + Writes + FillWords + WriteBackWords;
  }
  /// Memory/bus traffic in words (fills, write-backs, write-throughs
  /// and bypass words).
  uint64_t busTraffic() const {
    return FillWords + WriteBackWords + WriteThroughWords + BypassReads +
           BypassWrites;
  }

  std::string str() const;

  /// Field-wise equality; the sweep-engine tests assert byte-identical
  /// counters between the live cache, the replayer and the fast paths.
  friend bool operator==(const CacheStats &, const CacheStats &) = default;
};

/// Index arithmetic shared by the cache models:
/// precomputes the set count and strength-reduces the per-access modulo
/// and division to masks/shifts when the geometry is a power of two
/// (always true for the paper configurations). Pure strength reduction —
/// results are identical to the naive `%` / `/` forms.
struct CacheGeometry {
  uint32_t NumSets = 1;
  uint32_t LineWords = 1;
  uint32_t SetMask = 0;   ///< NumSets - 1 when NumSets is a power of two.
  uint32_t LineShift = 0; ///< log2(LineWords) when a power of two.
  bool SetsPow2 = false;
  bool LinePow2 = false;

  CacheGeometry() = default;
  explicit CacheGeometry(const CacheConfig &Config) {
    NumSets = Config.NumLines / Config.Assoc;
    LineWords = Config.LineWords;
    SetsPow2 = NumSets != 0 && (NumSets & (NumSets - 1)) == 0;
    if (SetsPow2)
      SetMask = NumSets - 1;
    LinePow2 = LineWords != 0 && (LineWords & (LineWords - 1)) == 0;
    if (LinePow2)
      while ((1u << LineShift) < LineWords)
        ++LineShift;
  }

  uint64_t lineAddr(uint64_t Addr) const {
    if (LineWords == 1)
      return Addr;
    return LinePow2 ? Addr >> LineShift : Addr / LineWords;
  }
  uint32_t setOf(uint64_t LineAddress) const {
    return static_cast<uint32_t>(SetsPow2 ? LineAddress & SetMask
                                          : LineAddress % NumSets);
  }
  /// Addr % LineWords without the hardware divide on the common
  /// geometries (identical result).
  uint32_t wordInLine(uint64_t Addr) const {
    if (LineWords == 1)
      return 0;
    return static_cast<uint32_t>(LinePow2 ? Addr & (LineWords - 1)
                                          : Addr % LineWords);
  }
};

/// A simple memory-access-time model used to reproduce the paper's
/// section-4.4 claim ("speedups of total memory access time by factors
/// of 2 or more"): a through-cache hit costs CacheHitCycles, every word
/// that crosses the memory bus (fill, write-back, write-through, bypass)
/// costs MemoryCycles.
struct LatencyModel {
  uint32_t CacheHitCycles = 1;
  uint32_t MemoryCycles = 10;
};

/// Total data memory-access time, in cycles, for the traffic in \p Stats.
uint64_t memoryAccessCycles(const CacheStats &Stats,
                            const LatencyModel &Model = LatencyModel());

/// Word-addressed main memory with a paranoid shadow copy: the shadow is
/// updated architecturally on every store, so any divergence between what
/// the cache hierarchy delivers and the shadow indicates an unsound
/// compiler hint.
///
/// Both arrays span the whole simulated address space but are
/// ZeroedWords: every word reads 0 until written, and only the pages a
/// program writes become resident (a few hundred KB of the 2 x 8 MB for
/// the shipped workloads). Each array ends at a guard page, a net under
/// the simulator's own bounds check, which every load and store still
/// passes before it reaches here.
class MainMemory {
public:
  explicit MainMemory(uint64_t SizeWords)
      : Data(SizeWords), Shadow(SizeWords) {}

  uint64_t size() const { return Data.size(); }

  int64_t read(uint64_t Addr) const { return Data[Addr]; }
  void write(uint64_t Addr, int64_t Value) { Data[Addr] = Value; }

  int64_t shadowRead(uint64_t Addr) const { return Shadow[Addr]; }
  void shadowWrite(uint64_t Addr, int64_t Value) { Shadow[Addr] = Value; }

private:
  ZeroedWords Data;
  ZeroedWords Shadow;
};

#if defined(__GNUC__)
// The simulator's load/store handlers live inside one large dispatch
// function; GCC's function-growth limit refuses to inline these
// otherwise-small hot wrappers there, leaving a call on every simulated
// memory access.
#define URCM_CACHE_INLINE __attribute__((always_inline)) inline
#else
#define URCM_CACHE_INLINE inline
#endif

/// Specialized data cache for the paper's canonical configuration —
/// write-back, LRU, two-way, one-word lines, power-of-two line count —
/// which nearly every exhibit simulates. Behavior and counters are
/// bit-identical to the live CacheModel under an eligible()
/// configuration: the Simulator's switch engine always runs the model,
/// so the engine-differential and fuzz tests pin the two against each
/// other, and cachemodel_test compares them directly on hinted traces.
/// The win is the state encoding: each set is a two-entry move-to-front
/// list of tag words (bit 63 = dirty, all-ones = invalid) with a
/// parallel value array, so the common case — a hit on the most recent
/// way — is one load and one compare, with no tick bookkeeping, no way
/// walk, and no 32-byte line metadata. The sweep
/// engine's packed one-word replay kernel (src/sim/ReplayKernels.h)
/// keeps the same move-to-front order for LRU, in its own word layout.
///
/// Invariants: among valid ways of a set, slot 0 is the more recently
/// used; invalid ways can sit in either slot (an access always leaves
/// the touched line in slot 0, and dead-tag/bypass frees invalidate in
/// place). Victim choice matches CacheModel's: an invalid way first — the choice *among* invalid ways has no observable
/// effect — else the LRU way, which is slot 1.
///
/// \p Attrib compiles the per-reference attribution accounting in or
/// out: the false instantiation (TwoWayWB1Cache, what every
/// non-profiling run executes) carries zero attribution code in its
/// inlined read/write paths — not even a dead branch — so enabling the
/// profiler feature costs nothing until a run actually requests it
/// (the Simulator dispatches to TwoWayWB1CacheAttr then).
template <bool Attrib> class TwoWayWB1CacheT {
  static constexpr uint64_t DirtyBit = uint64_t(1) << 63;
  static constexpr uint64_t TagMask = ~DirtyBit;
  static constexpr uint64_t Invalid = ~uint64_t(0);

  // The fast path models exactly CachePolicy::LRU; pin the unified
  // enum's layout so eligibility (and the trace-store's serialized
  // policy bytes) cannot drift silently under the policy refactor.
  static_assert(static_cast<uint8_t>(CachePolicy::LRU) == 0 &&
                    static_cast<uint8_t>(CachePolicy::FIFO) == 1 &&
                    static_cast<uint8_t>(CachePolicy::Random) == 2 &&
                    static_cast<uint8_t>(CachePolicy::MIN) == 3,
                "CachePolicy must extend, not renumber, the legacy enums");

public:
  /// True if \p C is a configuration this cache reproduces exactly.
  static bool eligible(const CacheConfig &C) {
    return C.Write == WritePolicy::WriteBack &&
           C.Policy == CachePolicy::LRU && C.LineWords == 1 &&
           C.Assoc == 2 && C.NumLines >= 2 &&
           (C.NumLines & (C.NumLines - 1)) == 0;
  }

  TwoWayWB1CacheT(const CacheConfig &Config, MainMemory &Mem)
      : Config(Config), Mem(Mem),
        SetMask(uint64_t(Config.NumLines / 2) - 1),
        Tags(Config.NumLines, Invalid), Vals(Config.NumLines, 0),
        InstalledBy(Attrib ? Config.NumLines : 0, MemRefInfo::NoRefId) {
    assert(eligible(Config) && "config not supported by the fast cache");
  }

  /// Accumulates per-reference attribution into \p A (see
  /// CacheModel::setAttribution). The non-Attrib instantiation has no
  /// accounting code; callers with a table must pick the Attrib one.
  void setAttribution(RefAttribution *A) {
    assert((Attrib || A == nullptr) &&
           "attribution requires the TwoWayWB1CacheAttr instantiation");
    if constexpr (Attrib)
      Attr = A;
    else
      (void)A;
  }

  URCM_CACHE_INLINE int64_t read(uint64_t Addr, const MemRefInfo &Info) {
    if (!Info.Bypass) {
      ++Stats.Reads;
      uint64_t *P = Tags.data() + ((Addr & SetMask) << 1);
      int64_t *V = Vals.data() + ((Addr & SetMask) << 1);
      uint64_t T0 = P[0];
      if ((T0 & TagMask) == Addr) {
        ++Stats.ReadHits;
        if constexpr (Attrib)
          if (Attr)
            ++Attr->row(Info.RefId).Hits;
        int64_t Value = V[0];
        if (Info.LastRef)
          freeFront(P, T0, Info.RefId);
        return Value;
      }
      if (uint64_t T1 = P[1]; (T1 & TagMask) == Addr) {
        ++Stats.ReadHits;
        if constexpr (Attrib) {
          if (Attr)
            ++Attr->row(Info.RefId).Hits;
          uint16_t *IB = ibOf(Addr);
          uint16_t Tmp = IB[0];
          IB[0] = IB[1];
          IB[1] = Tmp;
        }
        int64_t Value = V[1];
        P[1] = T0;
        P[0] = T1;
        V[1] = V[0];
        V[0] = Value;
        if (Info.LastRef)
          freeFront(P, T1, Info.RefId);
        return Value;
      }
      return readMiss(Addr, P, V, Info);
    }
    return readBypass(Addr, Info);
  }

  URCM_CACHE_INLINE void write(uint64_t Addr, int64_t Value,
                               const MemRefInfo &Info) {
    if (!Info.Bypass) {
      ++Stats.Writes;
      uint64_t *P = Tags.data() + ((Addr & SetMask) << 1);
      int64_t *V = Vals.data() + ((Addr & SetMask) << 1);
      uint64_t T0 = P[0];
      if ((T0 & TagMask) == Addr) {
        ++Stats.WriteHits;
        if constexpr (Attrib)
          if (Attr)
            ++Attr->row(Info.RefId).Hits;
        if (Info.LastRef) {
          // Dead store: dirty by construction, write-back avoided.
          ++Stats.DeadFrees;
          ++Stats.DeadWriteBacksAvoided;
          if constexpr (Attrib)
            if (Attr)
              ++Attr->row(Info.RefId).DeadWriteBacksSuppressed;
          P[0] = Invalid;
          return;
        }
        P[0] = T0 | DirtyBit;
        V[0] = Value;
        return;
      }
      if (uint64_t T1 = P[1]; (T1 & TagMask) == Addr) {
        ++Stats.WriteHits;
        if constexpr (Attrib) {
          if (Attr)
            ++Attr->row(Info.RefId).Hits;
          uint16_t *IB = ibOf(Addr);
          uint16_t Tmp = IB[0];
          IB[0] = IB[1];
          IB[1] = Tmp;
        }
        P[1] = T0;
        V[1] = V[0];
        if (Info.LastRef) {
          ++Stats.DeadFrees;
          ++Stats.DeadWriteBacksAvoided;
          if constexpr (Attrib)
            if (Attr)
              ++Attr->row(Info.RefId).DeadWriteBacksSuppressed;
          P[0] = Invalid;
          return;
        }
        P[0] = T1 | DirtyBit;
        V[0] = Value;
        return;
      }
      return writeMiss(Addr, Value, P, V, Info);
    }
    // UmAm_STORE: straight to memory. A stale cached copy should not
    // exist under the compiler contract; if one does, keep it coherent
    // (no dirty bit, no recency change — same as CacheModel).
    ++Stats.BypassWrites;
    if constexpr (Attrib)
      if (Attr)
        ++Attr->row(Info.RefId).Bypasses;
    Mem.write(Addr, Value);
    uint64_t *P = Tags.data() + ((Addr & SetMask) << 1);
    int64_t *V = Vals.data() + ((Addr & SetMask) << 1);
    if ((P[0] & TagMask) == Addr)
      V[0] = Value;
    else if ((P[1] & TagMask) == Addr)
      V[1] = Value;
  }

  /// Writes back all dirty lines (end of program); counted separately.
  void flush() {
    for (size_t I = 0; I != Tags.size(); ++I) {
      uint64_t T = Tags[I];
      if (T != Invalid && (T & DirtyBit)) {
        Mem.write(T & TagMask, Vals[I]);
        Stats.FlushWriteBackWords += 1;
      }
      Tags[I] = Invalid;
    }
  }

  const CacheStats &stats() const { return Stats; }
  const CacheConfig &config() const { return Config; }

private:
  /// The two InstalledBy slots of \p Addr's set (parallel to Tags).
  uint16_t *ibOf(uint64_t Addr) {
    return InstalledBy.data() + ((Addr & SetMask) << 1);
  }

  /// freeLine() for the line in slot 0 whose (possibly dirty) tag word
  /// is \p T: reclaim it, counting a suppressed write-back if dirty.
  void freeFront(uint64_t *P, uint64_t T, uint16_t ByRef) {
    ++Stats.DeadFrees;
    if (T & DirtyBit) {
      ++Stats.DeadWriteBacksAvoided;
      if constexpr (Attrib)
        if (Attr)
          ++Attr->row(ByRef).DeadWriteBacksSuppressed;
    }
    (void)ByRef;
    P[0] = Invalid;
  }

  /// Evicts the valid line with tag word \p T and cached value \p Val,
  /// installed by \p Installer and displaced by \p ByRef.
  void evictTag(uint64_t T, int64_t Val, uint16_t ByRef,
                uint16_t Installer) {
    ++Stats.Evictions;
    if constexpr (Attrib) {
      if (Attr) {
        ++Attr->row(ByRef).EvictionsCaused;
        ++Attr->row(Installer).EvictionsSuffered;
      }
    }
    (void)ByRef;
    (void)Installer;
    if (T & DirtyBit) {
      ++Stats.WriteBacks;
      Stats.WriteBackWords += 1;
      Mem.write(T & TagMask, Val);
    }
  }

  int64_t readMiss(uint64_t Addr, uint64_t *P, int64_t *V,
                   const MemRefInfo &Info) {
    if constexpr (Attrib)
      if (Attr)
        ++Attr->row(Info.RefId).Misses;
    uint16_t *IB = Attrib ? ibOf(Addr) : nullptr;
    uint64_t T0 = P[0], T1 = P[1];
    if (T0 != Invalid) {
      if (T1 != Invalid)
        evictTag(T1, V[1], Info.RefId,
                 Attrib ? IB[1]
                        : MemRefInfo::NoRefId); // Victim write-back
                                                // precedes the fetch.
      P[1] = T0;
      V[1] = V[0];
      if constexpr (Attrib)
        IB[1] = IB[0];
    }
    int64_t Value = Mem.read(Addr);
    ++Stats.Fills;
    Stats.FillWords += 1;
    if (Info.LastRef) {
      // Dead load: the fresh line is clean, so nothing is avoided and
      // the slot is reclaimed immediately.
      ++Stats.DeadFrees;
      P[0] = Invalid;
      return Value;
    }
    P[0] = Addr;
    V[0] = Value;
    if constexpr (Attrib)
      IB[0] = Info.RefId;
    return Value;
  }

  void writeMiss(uint64_t Addr, int64_t Value, uint64_t *P, int64_t *V,
                 const MemRefInfo &Info) {
    if constexpr (Attrib)
      if (Attr)
        ++Attr->row(Info.RefId).Misses;
    uint16_t *IB = Attrib ? ibOf(Addr) : nullptr;
    uint64_t T0 = P[0], T1 = P[1];
    if (T0 != Invalid) {
      if (T1 != Invalid)
        evictTag(T1, V[1], Info.RefId,
                 Attrib ? IB[1] : MemRefInfo::NoRefId);
      P[1] = T0;
      V[1] = V[0];
      if constexpr (Attrib)
        IB[1] = IB[0];
    }
    // One-word write-allocate skips the fetch (the store overwrites
    // the whole line).
    ++Stats.Fills;
    if (Info.LastRef) {
      ++Stats.DeadFrees;
      ++Stats.DeadWriteBacksAvoided;
      if constexpr (Attrib)
        if (Attr)
          ++Attr->row(Info.RefId).DeadWriteBacksSuppressed;
      P[0] = Invalid;
      return;
    }
    P[0] = Addr | DirtyBit;
    V[0] = Value;
    if constexpr (Attrib)
      IB[0] = Info.RefId;
  }

  int64_t readBypass(uint64_t Addr, const MemRefInfo &Info) {
    // UmAm_LOAD: probe; a hit migrates the value to the register and
    // frees the line in place (dirty lines write back first — see
    // CacheModel::stepOne for why). A miss reads memory directly.
    if constexpr (Attrib)
      if (Attr)
        ++Attr->row(Info.RefId).Bypasses;
    uint64_t *P = Tags.data() + ((Addr & SetMask) << 1);
    int64_t *V = Vals.data() + ((Addr & SetMask) << 1);
    int Slot = (P[0] & TagMask) == Addr   ? 0
               : (P[1] & TagMask) == Addr ? 1
                                          : -1;
    if (Slot >= 0) {
      int64_t Value = V[Slot];
      ++Stats.BypassHitMigrations;
      ++Stats.DeadFrees;
      if (P[Slot] & DirtyBit) {
        ++Stats.Evictions;
        ++Stats.WriteBacks;
        Stats.WriteBackWords += 1;
        if constexpr (Attrib) {
          if (Attr) {
            ++Attr->row(Info.RefId).EvictionsCaused;
            ++Attr->row(ibOf(Addr)[Slot]).EvictionsSuffered;
          }
        }
        Mem.write(Addr, Value);
      }
      P[Slot] = Invalid;
      return Value;
    }
    ++Stats.BypassReads;
    return Mem.read(Addr);
  }

  CacheConfig Config;
  MainMemory &Mem;
  CacheStats Stats;
  RefAttribution *Attr = nullptr;
  uint64_t SetMask; // Set index = Addr & SetMask (one-word lines).
  std::vector<uint64_t> Tags; // 2 per set; set s occupies [2s, 2s+2).
  std::vector<int64_t> Vals;  // Parallel to Tags.
  std::vector<uint16_t> InstalledBy; // Parallel to Tags.
};

/// The hot-path instantiation: no attribution code is generated at all,
/// so the predecoded interpreter's inlined read/write stay as lean as
/// before the profiler existed.
using TwoWayWB1Cache = TwoWayWB1CacheT<false>;
/// The profiling instantiation: carries the InstalledBy map and charges
/// every event to a RefId row. Selected by the simulator only when
/// SimConfig::Attribution is set.
using TwoWayWB1CacheAttr = TwoWayWB1CacheT<true>;

#undef URCM_CACHE_INLINE

} // namespace urcm

#endif // URCM_SIM_CACHE_H

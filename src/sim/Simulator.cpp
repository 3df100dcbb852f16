//===- Simulator.cpp - URCM-RISC simulator ------------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Two execution engines produce bit-identical SimResults:
//
//  * runSwitch: the original one-MInst-at-a-time switch interpreter,
//    kept as the portable reference implementation and as the
//    differential-testing oracle: its data cache is always the generic
//    CacheModel, so comparing it with the predecoded engine on the
//    paper geometry also pins TwoWayWB1CacheT against the model;
//  * runPredecodedImpl: the fast path. It executes the PInst form built
//    by predecode() (urcm/sim/Predecode.h) with threaded computed-goto
//    dispatch on GNU-compatible compilers and a switch loop elsewhere.
//    Step-limit and PC-bounds checks are hoisted out of the
//    per-instruction loop: a straight-line run of R instructions needs
//    one limit test and one bounds test, because only its final
//    instruction can redirect control. Mid-run entry (a Ret landing
//    between terminators) is handled by per-index run lengths, and a
//    run truncated by the step limit simply executes the remaining
//    budget and lets the outer loop report exhaustion — exactly the
//    states the legacy loop reaches, in the same order.
//
// Both engines feed the optional instruction cache, a stats-only
// CacheModel, one plain read per fetched instruction. Trace recording
// is shared (RefRecorder): both engines either append
// to SimResult::Trace or stream fixed-size chunks through
// SimConfig::Sink; chunking does not change the recorded event
// sequence.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/Simulator.h"

#include "urcm/sim/CacheModel.h"
#include "urcm/sim/Predecode.h"
#include "urcm/support/IntOps.h"
#include "urcm/support/StringUtils.h"
#include "urcm/support/Telemetry.h"

#include <array>
#include <optional>

// Threaded dispatch needs GNU computed goto; define
// URCM_FORCE_SWITCH_DISPATCH (see the sanitizer preset) to exercise the
// portable switch fallback on a compiler that would otherwise thread.
#if defined(__GNUC__) && !defined(URCM_FORCE_SWITCH_DISPATCH)
#define URCM_THREADED_DISPATCH 1
#else
#define URCM_THREADED_DISPATCH 0
#endif

using namespace urcm;

// Declared ahead of the engine so the hot loop can fold its local
// dispatch-savings tally into the counter on exit (the third
// sim.fuse.* counter; candidates/fused live with the pass in
// Predecode.cpp). Deliberately not a SimResult field: fused and
// unfused runs must produce bit-identical SimResults.
URCM_STAT(NumFuseDispatchesSaved, "sim.fuse.dispatches-saved",
          "Dispatches eliminated by executing fused superinstructions");

namespace {

/// The I-cache's view of the fetch of code index \p PC: a plain read.
TraceEvent fetchEvent(uint64_t PC) {
  TraceEvent E;
  E.Addr = static_cast<uint32_t>(PC);
  return E;
}

/// Per-reference bookkeeping shared by both engines: dynamic reference
/// class counters, bypass-transition tracking, and trace recording
/// (buffered in SimResult::Trace or streamed through a TraceSink).
class RefRecorder {
public:
  RefRecorder(const SimConfig &Config, SimResult &Result)
      : Result(Result), Sink(Config.Sink),
        ClassCounter{&Result.Refs.Unknown, &Result.Refs.Ambiguous,
                     &Result.Refs.Unambiguous, &Result.Refs.Spill,
                     &Result.Refs.Spill} {
    if (Sink) {
      ChunkCap = Config.TraceChunkEvents ? Config.TraceChunkEvents : 1;
      // The staging block is written through a raw cursor: vector
      // push_back (capacity reload, size store, inlined grow branch)
      // measured ~6x the cost of a plain 8-byte store on the trace-gen
      // path, and the sink path pays it tens of millions of times.
      Buf.resize(ChunkCap);
      Next = Buf.data();
      EndCap = Next + ChunkCap;
    } else if (Config.RecordTrace) {
      Recording = true;
      if (Config.TraceSizeHint)
        Result.Trace.reserve(Config.TraceSizeHint);
    }
  }

#if defined(__GNUC__)
  // One call per simulated memory event from inside the large dispatch
  // functions, whose size pushes GCC's growth heuristic past inlining
  // this otherwise-cheap body.
  __attribute__((always_inline))
#endif
  inline void
  count(const MemRefInfo &Info, bool IsWrite, uint64_t Addr) {
    tally(Info);
    const int Bit = Info.Bypass ? 1 : 0;
    Result.BypassTransitions +=
        static_cast<uint64_t>(LastBypassBit >= 0) &
        static_cast<uint64_t>(Bit != LastBypassBit);
    LastBypassBit = Bit;
    if (Sink) {
      *Next++ = TraceEvent{static_cast<uint32_t>(Addr), IsWrite,
                           TraceEvent::Hints(Info), Info.RefId};
      if (__builtin_expect(Next == EndCap, 0))
        recycle();
    } else if (Recording) {
      Result.Trace.push_back(TraceEvent{static_cast<uint32_t>(Addr), IsWrite,
                                        TraceEvent::Hints(Info), Info.RefId});
    }
  }

  /// Group forms for fused superinstructions whose members are all
  /// memory references: identical observable effect to the equivalent
  /// sequence of count() calls — same counter values, same event order,
  /// same chunk boundaries (flushes happen at exactly ChunkCap-event
  /// multiples either way) — but one capacity check and one combined
  /// transition/counter update for the whole group.
#if defined(__GNUC__)
  __attribute__((always_inline))
#endif
  inline void
  count2(const MemRefInfo &IA, bool WA, uint64_t AA, //
         const MemRefInfo &IB, bool WB, uint64_t AB) {
    tally(IA);
    tally(IB);
    const int BitA = IA.Bypass ? 1 : 0, BitB = IB.Bypass ? 1 : 0;
    Result.BypassTransitions +=
        (static_cast<uint64_t>(LastBypassBit >= 0) &
         static_cast<uint64_t>(BitA != LastBypassBit)) +
        static_cast<uint64_t>(BitB != BitA);
    LastBypassBit = BitB;
    const TraceEvent EA{static_cast<uint32_t>(AA), WA,
                        TraceEvent::Hints(IA), IA.RefId};
    const TraceEvent EB{static_cast<uint32_t>(AB), WB,
                        TraceEvent::Hints(IB), IB.RefId};
    if (Sink) {
      if (__builtin_expect(EndCap - Next < 2, 0)) {
        spill(EA);
        spill(EB);
        return;
      }
      Next[0] = EA;
      Next[1] = EB;
      Next += 2;
      if (__builtin_expect(Next == EndCap, 0))
        recycle();
    } else if (Recording) {
      Result.Trace.push_back(EA);
      Result.Trace.push_back(EB);
    }
  }

#if defined(__GNUC__)
  __attribute__((always_inline))
#endif
  inline void
  count3(const MemRefInfo &IA, bool WA, uint64_t AA, //
         const MemRefInfo &IB, bool WB, uint64_t AB, //
         const MemRefInfo &IC, bool WC, uint64_t AC) {
    tally(IA);
    tally(IB);
    tally(IC);
    const int BitA = IA.Bypass ? 1 : 0, BitB = IB.Bypass ? 1 : 0,
              BitC = IC.Bypass ? 1 : 0;
    Result.BypassTransitions +=
        (static_cast<uint64_t>(LastBypassBit >= 0) &
         static_cast<uint64_t>(BitA != LastBypassBit)) +
        static_cast<uint64_t>(BitB != BitA) +
        static_cast<uint64_t>(BitC != BitB);
    LastBypassBit = BitC;
    const TraceEvent EA{static_cast<uint32_t>(AA), WA,
                        TraceEvent::Hints(IA), IA.RefId};
    const TraceEvent EB{static_cast<uint32_t>(AB), WB,
                        TraceEvent::Hints(IB), IB.RefId};
    const TraceEvent EC{static_cast<uint32_t>(AC), WC,
                        TraceEvent::Hints(IC), IC.RefId};
    if (Sink) {
      if (__builtin_expect(EndCap - Next < 3, 0)) {
        spill(EA);
        spill(EB);
        spill(EC);
        return;
      }
      Next[0] = EA;
      Next[1] = EB;
      Next[2] = EC;
      Next += 3;
      if (__builtin_expect(Next == EndCap, 0))
        recycle();
    } else if (Recording) {
      Result.Trace.push_back(EA);
      Result.Trace.push_back(EB);
      Result.Trace.push_back(EC);
    }
  }

  /// Flushes the final partial chunk. Call once, after the run.
  void finish() {
    if (Sink) {
      const size_t Fill = static_cast<size_t>(Next - Buf.data());
      if (Fill) {
        Buf.resize(Fill); // shrink: no reallocation, data stays put
        Sink->chunk(std::move(Buf));
      }
    }
  }

private:
#if defined(__GNUC__)
  __attribute__((always_inline))
#endif
  inline void
  tally(const MemRefInfo &Info) {
    // Branchless class dispatch: one per memory event, so the (well
    // predicted but five-way) switch this replaces showed up in
    // profiles. ClassCounter is indexed by the RefClass value.
    ++*ClassCounter[static_cast<unsigned>(Info.Class)];
    Result.Refs.Bypassed += Info.Bypass;
    Result.Refs.LastRefTagged += Info.LastRef;
  }

  // The chunk hand-off is deliberately out of line: it runs once per
  // 64K events, and inlining its vector-move machinery into every
  // count() site in the dispatch functions measurably bloated them.
#if defined(__GNUC__)
  __attribute__((noinline))
#endif
  void recycle() {
    Buf = Sink->chunk(std::move(Buf));
    Buf.clear();
    Buf.resize(ChunkCap);
    Next = Buf.data();
    EndCap = Next + ChunkCap;
  }

  /// Cold path of the group counts when the staging block has fewer
  /// free slots than the group: per-event writes with per-event flush
  /// checks, preserving the exact chunk boundaries of count().
#if defined(__GNUC__)
  __attribute__((noinline))
#endif
  void spill(const TraceEvent &E) {
    *Next++ = E;
    if (Next == EndCap)
      recycle();
  }

  SimResult &Result;
  TraceSink *Sink;
  // Refs counter for each RefClass value (Spill and SpillReload share).
  uint64_t *const ClassCounter[5];
  bool Recording = false;
  int LastBypassBit = -1;
  size_t ChunkCap = 0;
  TraceEvent *Next = nullptr;
  TraceEvent *EndCap = nullptr;
  std::vector<TraceEvent> Buf;
};

template <bool ICacheOn, class DCacheT>
SimResult runPredecodedImpl(const PredecodedProgram &PP,
                            const SimConfig &Config) {
  SimResult Result;
  MainMemory Mem(PP.StackTop + 64);
  DCacheT Cache(Config.Cache, Mem);
  Cache.setAttribution(Config.Attribution);

  std::optional<CacheModel> ICache;
  if constexpr (ICacheOn)
    ICache.emplace(Config.ICache, Config.ICache.Policy);
  RefRecorder Refs(Config, Result);

  // Slot preg::Zero reads as constant zero (predecoded no-base loads
  // and stores); nothing ever writes it.
  std::array<int64_t, preg::NumSlots> R{};
  const PInst *const Insts = PP.Insts.data();
  const uint32_t *const RunLens = PP.RunLen.data();
  const uint64_t CodeSize = PP.codeSize();
  const uint64_t MemSize = Mem.size();
  const bool Paranoid = Config.Paranoid;
  uint64_t PC = PP.EntryIndex;
  uint64_t Steps = 0;
  uint64_t FusedSaved = 0;

  // Pointers of the run in flight (set per outer iteration). Base is
  // the instruction array the run executes from: normally the (possibly
  // fused) Insts, but a step-limit-truncated run falls back to the
  // index-parallel unfused stream so it retires exactly Remaining
  // instructions — a fused group never splits mid-superinstruction.
  const PInst *const SlowBase = PP.fused() ? PP.Unfused.data() : Insts;
  const PInst *Base = Insts;
  const PInst *I = nullptr;
  const PInst *Start = nullptr;
  const PInst *End = nullptr;

#define URCM_FETCH_AT(Ptr)                                                   \
  do {                                                                       \
    if constexpr (ICacheOn) {                                                \
      ++Result.InstructionFetches;                                           \
      ICache->step(fetchEvent(static_cast<uint64_t>((Ptr) - Base)), 0);     \
    }                                                                        \
  } while (0)
#define URCM_FETCH() URCM_FETCH_AT(I)

#if URCM_THREADED_DISPATCH
  static const void *const Handlers[] = {
#define URCM_POP_LABEL(Name) &&H_##Name,
      URCM_PREDECODED_OPS(URCM_POP_LABEL)
#undef URCM_POP_LABEL
#define URCM_POP_FLABEL2(Name, M0, M1) &&H_Fuse##Name,
#define URCM_POP_FLABEL3(Name, M0, M1, M2) &&H_Fuse##Name,
      URCM_FUSED_OPS(URCM_POP_FLABEL2, URCM_POP_FLABEL3)
#undef URCM_POP_FLABEL2
#undef URCM_POP_FLABEL3
  };
#define URCM_CASE(Name) H_##Name:
#define URCM_DISPATCH() goto *Handlers[static_cast<size_t>(I->Op)]
#define URCM_NEXT()                                                          \
  do {                                                                       \
    if (++I == End)                                                          \
      goto RunFellOff;                                                       \
    URCM_FETCH();                                                            \
    URCM_DISPATCH();                                                         \
  } while (0)
#define URCM_NEXT_N(K)                                                       \
  do {                                                                       \
    I += (K);                                                                \
    if (I == End)                                                            \
      goto RunFellOff;                                                       \
    URCM_FETCH();                                                            \
    URCM_DISPATCH();                                                         \
  } while (0)
#else
#define URCM_CASE(Name) case POp::Name:
#define URCM_NEXT()                                                          \
  do {                                                                       \
    if (++I == End)                                                          \
      goto RunFellOff;                                                       \
    goto Dispatch;                                                           \
  } while (0)
#define URCM_NEXT_N(K)                                                       \
  do {                                                                       \
    I += (K);                                                                \
    if (I == End)                                                            \
      goto RunFellOff;                                                       \
    goto Dispatch;                                                           \
  } while (0)
#endif

  // Member bodies shared between the plain one-PInst handlers and the
  // generated fused handlers: URCM_MEXEC_<POp>(P, Adj) executes the
  // member at slot P exactly as its standalone handler would, with Adj
  // (the member's offset from the dispatched head) repositioning I for
  // the exact-step AbortAt accounting. Terminator members reposition I
  // themselves and leave through Terminated; a fused group therefore
  // books `(I - Start) + 1` retired steps on every exit path, same as
  // the unfused stream.
#define URCM_MEXEC_BINRR(P, Expr)                                            \
  {                                                                          \
    const PInst *M = (P);                                                    \
    const int64_t L = R[M->B], S2 = R[M->C];                                 \
    R[M->A] = (Expr);                                                        \
  }
#define URCM_MEXEC_BINRI(P, Expr)                                            \
  {                                                                          \
    const PInst *M = (P);                                                    \
    const int64_t L = R[M->B], S2 = M->Imm;                                  \
    R[M->A] = (Expr);                                                        \
  }
#define URCM_MEXEC_AddRR(P, Adj) URCM_MEXEC_BINRR(P, wrapAdd(L, S2))
#define URCM_MEXEC_AddRI(P, Adj) URCM_MEXEC_BINRI(P, wrapAdd(L, S2))
#define URCM_MEXEC_SubRI(P, Adj) URCM_MEXEC_BINRI(P, wrapSub(L, S2))
#define URCM_MEXEC_MulRI(P, Adj) URCM_MEXEC_BINRI(P, wrapMul(L, S2))
#define URCM_MEXEC_SltRR(P, Adj) URCM_MEXEC_BINRR(P, L < S2)
#define URCM_MEXEC_SltRI(P, Adj) URCM_MEXEC_BINRI(P, L < S2)
#define URCM_MEXEC_SleRR(P, Adj) URCM_MEXEC_BINRR(P, L <= S2)
#define URCM_MEXEC_SleRI(P, Adj) URCM_MEXEC_BINRI(P, L <= S2)
#define URCM_MEXEC_SgtRR(P, Adj) URCM_MEXEC_BINRR(P, L > S2)
#define URCM_MEXEC_SgtRI(P, Adj) URCM_MEXEC_BINRI(P, L > S2)
#define URCM_MEXEC_SgeRR(P, Adj) URCM_MEXEC_BINRR(P, L >= S2)
#define URCM_MEXEC_SgeRI(P, Adj) URCM_MEXEC_BINRI(P, L >= S2)
#define URCM_MEXEC_SeqRR(P, Adj) URCM_MEXEC_BINRR(P, L == S2)
#define URCM_MEXEC_SeqRI(P, Adj) URCM_MEXEC_BINRI(P, L == S2)
#define URCM_MEXEC_SneRR(P, Adj) URCM_MEXEC_BINRR(P, L != S2)
#define URCM_MEXEC_SneRI(P, Adj) URCM_MEXEC_BINRI(P, L != S2)
#define URCM_MEXEC_Li(P, Adj)                                                \
  {                                                                          \
    const PInst *M = (P);                                                    \
    R[M->A] = M->Imm;                                                        \
  }
#define URCM_MEXEC_Ld(P, Adj)                                                \
  {                                                                          \
    const PInst *M = (P);                                                    \
    const int64_t EA = wrapAdd(R[M->B], M->Imm);                             \
    if (EA < 0 || static_cast<uint64_t>(EA) >= MemSize) {                    \
      Result.Error = formatString("load address %lld out of range",          \
                                  static_cast<long long>(EA));               \
      I += (Adj);                                                            \
      goto AbortAt;                                                          \
    }                                                                        \
    const uint64_t Addr = static_cast<uint64_t>(EA);                         \
    Refs.count(M->Mem, /*IsWrite=*/false, Addr);                             \
    const int64_t Value = Cache.read(Addr, M->Mem);                          \
    if (Paranoid && Value != Mem.shadowRead(Addr))                           \
      ++Result.CoherenceViolations;                                          \
    R[M->A] = Value;                                                         \
  }
#define URCM_MEXEC_St(P, Adj)                                                \
  {                                                                          \
    const PInst *M = (P);                                                    \
    const int64_t EA = wrapAdd(R[M->B], M->Imm);                             \
    if (EA < 0 || static_cast<uint64_t>(EA) >= MemSize) {                    \
      Result.Error = formatString("store address %lld out of range",         \
                                  static_cast<long long>(EA));               \
      I += (Adj);                                                            \
      goto AbortAt;                                                          \
    }                                                                        \
    const uint64_t Addr = static_cast<uint64_t>(EA);                         \
    Refs.count(M->Mem, /*IsWrite=*/true, Addr);                              \
    Cache.write(Addr, R[M->C], M->Mem);                                      \
    Mem.shadowWrite(Addr, R[M->C]);                                          \
  }
#define URCM_MEXEC_Jmp(P, Adj)                                               \
  {                                                                          \
    const PInst *M = (P);                                                    \
    PC = M->Target;                                                          \
    I = M;                                                                   \
    goto Terminated;                                                         \
  }
#define URCM_MEXEC_Bnz(P, Adj)                                               \
  {                                                                          \
    const PInst *M = (P);                                                    \
    PC = R[M->B] != 0 ? M->Target : static_cast<uint64_t>(M - Base) + 1;     \
    I = M;                                                                   \
    goto Terminated;                                                         \
  }
#define URCM_MEXEC_Call(P, Adj)                                              \
  {                                                                          \
    const PInst *M = (P);                                                    \
    R[mreg::RA] = static_cast<int64_t>(M - Base) + 1;                        \
    PC = M->Target;                                                          \
    I = M;                                                                   \
    goto Terminated;                                                         \
  }
#define URCM_MEXEC_Ret(P, Adj)                                               \
  {                                                                          \
    PC = static_cast<uint64_t>(R[mreg::RA]);                                 \
    I = (P);                                                                 \
    goto Terminated;                                                         \
  }

  // Deferred-count members for the all-memory fused groups
  // (URCM_FUSED_OPS_MEM): execute the access exactly like URCM_MEXEC_Ld
  // / URCM_MEXEC_St but leave the RefRecorder update to one combined
  // count2/count3 at the end of the group. Declares M<N> / Addr<N> for
  // that combined count. Moving a member's count after its cache access
  // is observable-state-neutral (RefRecorder and the cache model share
  // nothing), but the abort path is not: a member that faults must see
  // every *earlier* member already counted — the trailing variadic
  // argument is that catch-up count, run before jumping to AbortAt.
#define URCM_GMEM_LD(P, Adj, N, ...)                                         \
  const PInst *M##N = (P);                                                   \
  uint64_t Addr##N;                                                          \
  {                                                                          \
    const int64_t EA = wrapAdd(R[M##N->B], M##N->Imm);                       \
    if (__builtin_expect(EA < 0 || static_cast<uint64_t>(EA) >= MemSize,     \
                         0)) {                                               \
      Result.Error = formatString("load address %lld out of range",          \
                                  static_cast<long long>(EA));               \
      __VA_ARGS__;                                                           \
      I += (Adj);                                                            \
      goto AbortAt;                                                          \
    }                                                                        \
    Addr##N = static_cast<uint64_t>(EA);                                     \
    const int64_t Value = Cache.read(Addr##N, M##N->Mem);                    \
    if (Paranoid && Value != Mem.shadowRead(Addr##N))                        \
      ++Result.CoherenceViolations;                                          \
    R[M##N->A] = Value;                                                      \
  }
#define URCM_GMEM_ST(P, Adj, N, ...)                                         \
  const PInst *M##N = (P);                                                   \
  uint64_t Addr##N;                                                          \
  {                                                                          \
    const int64_t EA = wrapAdd(R[M##N->B], M##N->Imm);                       \
    if (__builtin_expect(EA < 0 || static_cast<uint64_t>(EA) >= MemSize,     \
                         0)) {                                               \
      Result.Error = formatString("store address %lld out of range",         \
                                  static_cast<long long>(EA));               \
      __VA_ARGS__;                                                           \
      I += (Adj);                                                            \
      goto AbortAt;                                                          \
    }                                                                        \
    Addr##N = static_cast<uint64_t>(EA);                                     \
    Cache.write(Addr##N, R[M##N->C], M##N->Mem);                             \
    Mem.shadowWrite(Addr##N, R[M##N->C]);                                    \
  }

  // Bodies of the all-memory fused handlers, built from the deferred
  // members above. Event order, counter values and chunk boundaries are
  // identical to the member-by-member execution (see count2/count3).
#define URCM_FBODY_LdLd                                                      \
  URCM_GMEM_LD(I, 0, 0, )                                                    \
  URCM_FETCH_AT(I + 1);                                                      \
  URCM_GMEM_LD(I + 1, 1, 1, Refs.count(M0->Mem, false, Addr0))               \
  Refs.count2(M0->Mem, false, Addr0, M1->Mem, false, Addr1);
#define URCM_FBODY_LdSt                                                      \
  URCM_GMEM_LD(I, 0, 0, )                                                    \
  URCM_FETCH_AT(I + 1);                                                      \
  URCM_GMEM_ST(I + 1, 1, 1, Refs.count(M0->Mem, false, Addr0))               \
  Refs.count2(M0->Mem, false, Addr0, M1->Mem, true, Addr1);
#define URCM_FBODY_StLd                                                      \
  URCM_GMEM_ST(I, 0, 0, )                                                    \
  URCM_FETCH_AT(I + 1);                                                      \
  URCM_GMEM_LD(I + 1, 1, 1, Refs.count(M0->Mem, true, Addr0))                \
  Refs.count2(M0->Mem, true, Addr0, M1->Mem, false, Addr1);
#define URCM_FBODY_StSt                                                      \
  URCM_GMEM_ST(I, 0, 0, )                                                    \
  URCM_FETCH_AT(I + 1);                                                      \
  URCM_GMEM_ST(I + 1, 1, 1, Refs.count(M0->Mem, true, Addr0))                \
  Refs.count2(M0->Mem, true, Addr0, M1->Mem, true, Addr1);
#define URCM_FBODY_LdLdLd                                                    \
  URCM_GMEM_LD(I, 0, 0, )                                                    \
  URCM_FETCH_AT(I + 1);                                                      \
  URCM_GMEM_LD(I + 1, 1, 1, Refs.count(M0->Mem, false, Addr0))               \
  URCM_FETCH_AT(I + 2);                                                      \
  URCM_GMEM_LD(I + 2, 2, 2,                                                  \
               Refs.count2(M0->Mem, false, Addr0, M1->Mem, false, Addr1))    \
  Refs.count3(M0->Mem, false, Addr0, M1->Mem, false, Addr1, M2->Mem, false,  \
              Addr2);
#define URCM_FBODY_StStSt                                                    \
  URCM_GMEM_ST(I, 0, 0, )                                                    \
  URCM_FETCH_AT(I + 1);                                                      \
  URCM_GMEM_ST(I + 1, 1, 1, Refs.count(M0->Mem, true, Addr0))                \
  URCM_FETCH_AT(I + 2);                                                      \
  URCM_GMEM_ST(I + 2, 2, 2,                                                  \
               Refs.count2(M0->Mem, true, Addr0, M1->Mem, true, Addr1))      \
  Refs.count3(M0->Mem, true, Addr0, M1->Mem, true, Addr1, M2->Mem, true,     \
              Addr2);

  for (;;) {
    // Run boundary: the step-limit and PC-bounds checks of the legacy
    // per-instruction loop, evaluated once per straight-line run (same
    // order as the legacy loop, so tie-breaks between the two error
    // conditions are identical).
    if (Steps >= Config.MaxSteps)
      break; // "step limit exceeded" is stamped after the loop.
    if (PC >= CodeSize) {
      Result.Error = formatString(
          "PC %llu outside program", static_cast<unsigned long long>(PC));
      break;
    }
    uint64_t Run = RunLens[PC];
    Base = Insts;
    if (const uint64_t Remaining = Config.MaxSteps - Steps; Run > Remaining) {
      // Truncated run: no terminator will be reached, and End may land
      // inside what fusion grouped — execute the unfused stream so the
      // run retires exactly Remaining instructions.
      Run = Remaining;
      Base = SlowBase;
    }
    I = Base + PC;
    Start = I;
    End = I + Run;

#if URCM_THREADED_DISPATCH
    URCM_FETCH();
    URCM_DISPATCH();
#else
  Dispatch:
    URCM_FETCH();
    switch (I->Op) {
#endif

#define URCM_BINOP(Name, Expr)                                               \
  URCM_CASE(Name##RR) {                                                      \
    const int64_t L = R[I->B], S2 = R[I->C];                                 \
    R[I->A] = (Expr);                                                        \
  }                                                                          \
  URCM_NEXT();                                                               \
  URCM_CASE(Name##RI) {                                                      \
    const int64_t L = R[I->B], S2 = I->Imm;                                  \
    R[I->A] = (Expr);                                                        \
  }                                                                          \
  URCM_NEXT();

    URCM_BINOP(Add, wrapAdd(L, S2))
    URCM_BINOP(Sub, wrapSub(L, S2))
    URCM_BINOP(Mul, wrapMul(L, S2))
    URCM_BINOP(And, L &S2)
    URCM_BINOP(Or, L | S2)
    URCM_BINOP(Xor, L ^ S2)
    URCM_BINOP(Shl, wrapShl(L, static_cast<unsigned>(S2 & 63)))
    URCM_BINOP(Shr, L >> (S2 & 63))
    URCM_BINOP(Slt, L < S2)
    URCM_BINOP(Sle, L <= S2)
    URCM_BINOP(Sgt, L > S2)
    URCM_BINOP(Sge, L >= S2)
    URCM_BINOP(Seq, L == S2)
    URCM_BINOP(Sne, L != S2)
#undef URCM_BINOP

#define URCM_DIVOP(Name, Expr, What)                                         \
  URCM_CASE(Name##RR) {                                                      \
    const int64_t L = R[I->B], S2 = R[I->C];                                 \
    if (S2 == 0) {                                                           \
      Result.Error = What;                                                   \
      goto AbortAt;                                                          \
    }                                                                        \
    R[I->A] = (Expr);                                                        \
  }                                                                          \
  URCM_NEXT();                                                               \
  URCM_CASE(Name##RI) {                                                      \
    const int64_t L = R[I->B], S2 = I->Imm;                                  \
    if (S2 == 0) {                                                           \
      Result.Error = What;                                                   \
      goto AbortAt;                                                          \
    }                                                                        \
    R[I->A] = (Expr);                                                        \
  }                                                                          \
  URCM_NEXT();

    URCM_DIVOP(Div, wrapDiv(L, S2), "division by zero")
    URCM_DIVOP(Rem, wrapRem(L, S2), "remainder by zero")
#undef URCM_DIVOP

    URCM_CASE(Neg)
    R[I->A] = -R[I->B];
    URCM_NEXT();

    URCM_CASE(Not)
    R[I->A] = ~R[I->B];
    URCM_NEXT();

    URCM_CASE(Mov)
    R[I->A] = R[I->B];
    URCM_NEXT();

    URCM_CASE(Li)
    R[I->A] = I->Imm;
    URCM_NEXT();

    URCM_CASE(Ld)
    URCM_MEXEC_Ld(I, 0)
    URCM_NEXT();

    URCM_CASE(St)
    URCM_MEXEC_St(I, 0)
    URCM_NEXT();

    URCM_CASE(Jmp)
    URCM_MEXEC_Jmp(I, 0)

    URCM_CASE(Bnz)
    URCM_MEXEC_Bnz(I, 0)

    URCM_CASE(Call)
    URCM_MEXEC_Call(I, 0)

    URCM_CASE(Ret)
    URCM_MEXEC_Ret(I, 0)

    URCM_CASE(RetDead)
    // Code-dead hint: this function never runs again; reclaim its
    // I-cache lines.
    if constexpr (ICacheOn)
      ICache->invalidateRange(I->Target,
                              I->Target + static_cast<uint64_t>(I->Imm));
    PC = static_cast<uint64_t>(R[mreg::RA]);
    goto Terminated;

    URCM_CASE(Print)
    Result.Output.push_back(R[I->B]);
    URCM_NEXT();

    URCM_CASE(Halt)
    Result.Halted = true;
    Steps += static_cast<uint64_t>(I - Start) + 1;
    goto Done;

    // Fused superinstruction handlers, generated from the same
    // URCM_FUSED_OPS table that defines the enum, the dispatch table
    // and the peephole matcher. One dispatch retires the whole group;
    // members execute in original order from their original slots
    // (fusion rewrites only the head's Op byte), with per-member
    // instruction fetches so the I-cache model sees the unfused fetch
    // stream. Terminator members leave through Terminated inside their
    // URCM_MEXEC body, making the trailing URCM_NEXT_N unreachable for
    // those groups.
#define URCM_FUSED_CASE2(Name, M0, M1)                                       \
  URCM_CASE(Fuse##Name) {                                                    \
    ++FusedSaved;                                                            \
    URCM_MEXEC_##M0(I, 0)                                                    \
    URCM_FETCH_AT(I + 1);                                                    \
    URCM_MEXEC_##M1(I + 1, 1)                                                \
  }                                                                          \
  URCM_NEXT_N(2);
#define URCM_FUSED_CASE3(Name, M0, M1, M2)                                   \
  URCM_CASE(Fuse##Name) {                                                    \
    FusedSaved += 2;                                                         \
    URCM_MEXEC_##M0(I, 0)                                                    \
    URCM_FETCH_AT(I + 1);                                                    \
    URCM_MEXEC_##M1(I + 1, 1)                                                \
    URCM_FETCH_AT(I + 2);                                                    \
    URCM_MEXEC_##M2(I + 2, 2)                                                \
  }                                                                          \
  URCM_NEXT_N(3);

    URCM_FUSED_OPS_GENERIC(URCM_FUSED_CASE2, URCM_FUSED_CASE3)
#undef URCM_FUSED_CASE2
#undef URCM_FUSED_CASE3

    // The all-memory groups dispatch to their hand-written bodies: the
    // member accesses run exactly as above, but the RefRecorder update
    // is one batched group count (see URCM_FBODY_* / count2 / count3).
#define URCM_FUSED_CASE2M(Name, M0, M1)                                      \
  URCM_CASE(Fuse##Name) {                                                    \
    ++FusedSaved;                                                            \
    URCM_FBODY_##Name                                                        \
  }                                                                          \
  URCM_NEXT_N(2);
#define URCM_FUSED_CASE3M(Name, M0, M1, M2)                                  \
  URCM_CASE(Fuse##Name) {                                                    \
    FusedSaved += 2;                                                         \
    URCM_FBODY_##Name                                                        \
  }                                                                          \
  URCM_NEXT_N(3);

    URCM_FUSED_OPS_MEM(URCM_FUSED_CASE2M, URCM_FUSED_CASE3M)
#undef URCM_FUSED_CASE2M
#undef URCM_FUSED_CASE3M

#if !URCM_THREADED_DISPATCH
    }
#endif

  RunFellOff:
    // Executed the whole (possibly limit-truncated) run without a
    // control transfer; the next boundary check settles what happens.
    Steps += static_cast<uint64_t>(End - Start);
    PC = static_cast<uint64_t>(End - Base);
    continue;

  Terminated:
    Steps += static_cast<uint64_t>(I - Start) + 1;
    continue;

  AbortAt:
    Steps += static_cast<uint64_t>(I - Start) + 1;
    goto Done;
  }

Done:
  if (!Result.Halted && Result.Error.empty())
    Result.Error = "step limit exceeded";
  Result.Steps = Steps;
  NumFuseDispatchesSaved.add(FusedSaved);

  Refs.finish();
  Cache.flush();
  Result.Cache = Cache.stats();
  if constexpr (ICacheOn)
    Result.ICache = ICache->finish();
  return Result;

#undef URCM_CASE
#undef URCM_NEXT
#undef URCM_NEXT_N
#undef URCM_FETCH
#undef URCM_FETCH_AT
#undef URCM_MEXEC_BINRR
#undef URCM_MEXEC_BINRI
#undef URCM_MEXEC_AddRR
#undef URCM_MEXEC_AddRI
#undef URCM_MEXEC_SubRI
#undef URCM_MEXEC_MulRI
#undef URCM_MEXEC_SltRR
#undef URCM_MEXEC_SltRI
#undef URCM_MEXEC_SleRR
#undef URCM_MEXEC_SleRI
#undef URCM_MEXEC_SgtRR
#undef URCM_MEXEC_SgtRI
#undef URCM_MEXEC_SgeRR
#undef URCM_MEXEC_SgeRI
#undef URCM_MEXEC_SeqRR
#undef URCM_MEXEC_SeqRI
#undef URCM_MEXEC_SneRR
#undef URCM_MEXEC_SneRI
#undef URCM_MEXEC_Li
#undef URCM_MEXEC_Ld
#undef URCM_MEXEC_St
#undef URCM_MEXEC_Jmp
#undef URCM_MEXEC_Bnz
#undef URCM_MEXEC_Call
#undef URCM_MEXEC_Ret
#undef URCM_GMEM_LD
#undef URCM_GMEM_ST
#undef URCM_FBODY_LdLd
#undef URCM_FBODY_LdSt
#undef URCM_FBODY_StLd
#undef URCM_FBODY_StSt
#undef URCM_FBODY_LdLdLd
#undef URCM_FBODY_StStSt
#if URCM_THREADED_DISPATCH
#undef URCM_DISPATCH
#endif
}

} // namespace

URCM_STAT(NumSimRuns, "sim.runs", "Simulations executed");
URCM_STAT(NumSimSteps, "sim.steps", "Machine instructions simulated");
URCM_STAT(NumSimRefs, "sim.data-refs", "Data references simulated");
URCM_STAT(NumSimCoherence, "sim.coherence-violations",
          "Hint-induced coherence violations observed");
URCM_STAT(NumSimPredecoded, "sim.dispatch.predecoded",
          "Runs through the predecoded engine");
URCM_STAT(NumSimSwitch, "sim.dispatch.switch",
          "Runs through the legacy switch engine");
URCM_HISTOGRAM(SimStepsPerRun, "sim.steps-per-run",
               "Steps executed per simulation");
URCM_STAT(NumLiveCheckedRuns, "check.live.runs",
          "Live runs whose data-cache counters were checked against the "
          "conservation laws");
URCM_STAT(NumLiveViolations, "check.live.violations",
          "Live runs whose data-cache counters broke a conservation law");

namespace {

/// Checks one finished simulation's data-cache counters against the
/// conservation laws — on the fast path and the generic model alike —
/// and folds the run into the counters. A broken law is a cache-model
/// bug, so it fails the run, naming the law; the check runs whether or
/// not telemetry is on.
void finishRun(SimResult &Result, const SimConfig &Config) {
  const char *Law = replayConservationViolation(Result.Cache, Config.Cache);
  if (Law) {
    std::string Message =
        std::string("data-cache counters break conservation law '") + Law +
        "'";
    Result.Error =
        Result.Error.empty() ? Message : Result.Error + "; " + Message;
  }
  if (!telemetry::enabled())
    return;
  NumSimRuns.add();
  NumSimSteps.add(Result.Steps);
  NumSimRefs.add(Result.Cache.Reads + Result.Cache.Writes +
                 Result.Cache.BypassReads + Result.Cache.BypassWrites);
  NumSimCoherence.add(Result.CoherenceViolations);
  SimStepsPerRun.record(Result.Steps);
  NumLiveCheckedRuns.add();
  if (Law)
    NumLiveViolations.add();
}

} // namespace

std::string urcm::liveCacheConfigError(const SimConfig &Config) {
  auto Check = [](const CacheConfig &C, const char *Which) -> std::string {
    std::string Bad;
    if (!cachePolicyLiveEligible(C.Policy))
      Bad = std::string(cachePolicyName(C.Policy)) +
            " is a replay-only policy";
    else if (const char *Why = validateCacheConfig(C, C.Policy))
      Bad = Why;
    return Bad.empty() ? Bad
                       : "invalid cache configuration: " +
                             std::string(Which) + Bad;
  };
  std::string Error = Check(Config.Cache, "");
  if (Error.empty() && Config.ModelICache)
    Error = Check(Config.ICache, "I-cache: ");
  return Error;
}

SimResult Simulator::run(const PredecodedProgram &Prog) {
  SimResult Result;
  Result.Error = liveCacheConfigError(Config);
  if (!Result.Error.empty())
    return Result; // Never ran.
  telemetry::ScopedPhase Phase(
      "sim.run", URCM_THREADED_DISPATCH ? "threaded" : "switch-dispatch");
  NumSimPredecoded.add();
  // The paper's canonical data-cache shape gets the specialized model;
  // every other shape runs the generic CacheModel, as does the switch
  // engine always, so the differential tests cross-check the two
  // implementations. The instruction cache is a stats-only CacheModel
  // either way (it is off in most experiments).
  if (TwoWayWB1Cache::eligible(Config.Cache)) {
    // Attribution swaps in the profiling instantiation; the default one
    // compiles the per-reference bookkeeping out of the inlined hot
    // path entirely (if constexpr in TwoWayWB1CacheT), so profiling
    // costs nothing when off.
    if (Config.Attribution)
      Result = Config.ModelICache
                   ? runPredecodedImpl<true, TwoWayWB1CacheAttr>(Prog, Config)
                   : runPredecodedImpl<false, TwoWayWB1CacheAttr>(Prog, Config);
    else
      Result = Config.ModelICache
                   ? runPredecodedImpl<true, TwoWayWB1Cache>(Prog, Config)
                   : runPredecodedImpl<false, TwoWayWB1Cache>(Prog, Config);
  } else
    Result = Config.ModelICache
                 ? runPredecodedImpl<true, CacheModel>(Prog, Config)
                 : runPredecodedImpl<false, CacheModel>(Prog, Config);
  finishRun(Result, Config);
  return Result;
}

SimResult Simulator::run(const MachineProgram &Prog) {
  if (Config.Engine == SimEngine::Switch)
    return runSwitch(Prog);
  PredecodedProgram Pre = [&] {
    telemetry::ScopedPhase Phase("sim.predecode");
    PredecodedProgram PP = predecode(Prog);
    if (Config.Fusion)
      fusePredecoded(PP); // still a no-op under URCM_NO_FUSE
    return PP;
  }();
  return run(Pre);
}

SimResult Simulator::runSwitch(const MachineProgram &Prog) {
  SimResult Result;
  Result.Error = liveCacheConfigError(Config);
  if (!Result.Error.empty())
    return Result; // Never ran.
  telemetry::ScopedPhase Phase("sim.run", "legacy-switch");
  NumSimSwitch.add();
  MainMemory Mem(Prog.StackTop + 64);
  CacheModel Cache(Config.Cache, Mem);
  Cache.setAttribution(Config.Attribution);
  std::optional<CacheModel> ICache;
  if (Config.ModelICache)
    ICache.emplace(Config.ICache, Config.ICache.Policy);
  RefRecorder Refs(Config, Result);

  std::array<int64_t, mreg::NumRegs> R{};
  uint64_t PC = Prog.EntryIndex;

  auto Fail = [&](std::string Message) {
    Result.Error = std::move(Message);
  };

  while (Result.Steps < Config.MaxSteps) {
    if (PC >= Prog.Code.size()) {
      Fail(formatString("PC %llu outside program",
                        static_cast<unsigned long long>(PC)));
      break;
    }
    const MInst &I = Prog.Code[PC];
    ++Result.Steps;
    if (ICache) {
      ++Result.InstructionFetches;
      ICache->step(fetchEvent(PC), 0);
    }
    uint64_t NextPC = PC + 1;

    auto Src2 = [&]() { return I.UseImm ? I.Imm : R[I.Rs2]; };

    switch (I.Op) {
    case MOpcode::Add:
      R[I.Rd] = wrapAdd(R[I.Rs1], Src2());
      break;
    case MOpcode::Sub:
      R[I.Rd] = wrapSub(R[I.Rs1], Src2());
      break;
    case MOpcode::Mul:
      R[I.Rd] = wrapMul(R[I.Rs1], Src2());
      break;
    case MOpcode::Div: {
      int64_t D = Src2();
      if (D == 0) {
        Fail("division by zero");
        break;
      }
      R[I.Rd] = wrapDiv(R[I.Rs1], D);
      break;
    }
    case MOpcode::Rem: {
      int64_t D = Src2();
      if (D == 0) {
        Fail("remainder by zero");
        break;
      }
      R[I.Rd] = wrapRem(R[I.Rs1], D);
      break;
    }
    case MOpcode::And:
      R[I.Rd] = R[I.Rs1] & Src2();
      break;
    case MOpcode::Or:
      R[I.Rd] = R[I.Rs1] | Src2();
      break;
    case MOpcode::Xor:
      R[I.Rd] = R[I.Rs1] ^ Src2();
      break;
    case MOpcode::Shl:
      R[I.Rd] = wrapShl(R[I.Rs1], static_cast<unsigned>(Src2() & 63));
      break;
    case MOpcode::Shr:
      R[I.Rd] = R[I.Rs1] >> (Src2() & 63);
      break;
    case MOpcode::Slt:
      R[I.Rd] = R[I.Rs1] < Src2();
      break;
    case MOpcode::Sle:
      R[I.Rd] = R[I.Rs1] <= Src2();
      break;
    case MOpcode::Sgt:
      R[I.Rd] = R[I.Rs1] > Src2();
      break;
    case MOpcode::Sge:
      R[I.Rd] = R[I.Rs1] >= Src2();
      break;
    case MOpcode::Seq:
      R[I.Rd] = R[I.Rs1] == Src2();
      break;
    case MOpcode::Sne:
      R[I.Rd] = R[I.Rs1] != Src2();
      break;
    case MOpcode::Neg:
      R[I.Rd] = -R[I.Rs1];
      break;
    case MOpcode::Not:
      R[I.Rd] = ~R[I.Rs1];
      break;
    case MOpcode::Mov:
      R[I.Rd] = R[I.Rs1];
      break;
    case MOpcode::Li:
      R[I.Rd] = I.Imm;
      break;
    case MOpcode::Ld: {
      int64_t Base = I.Rs1 == mreg::None ? 0 : R[I.Rs1];
      int64_t EA = wrapAdd(Base, I.Imm);
      if (EA < 0 || static_cast<uint64_t>(EA) >= Mem.size()) {
        Fail(formatString("load address %lld out of range",
                          static_cast<long long>(EA)));
        break;
      }
      uint64_t Addr = static_cast<uint64_t>(EA);
      Refs.count(I.MemInfo, /*IsWrite=*/false, Addr);
      int64_t Value = Cache.read(Addr, I.MemInfo);
      if (Config.Paranoid && Value != Mem.shadowRead(Addr))
        ++Result.CoherenceViolations;
      R[I.Rd] = Value;
      break;
    }
    case MOpcode::St: {
      int64_t Base = I.Rs1 == mreg::None ? 0 : R[I.Rs1];
      int64_t EA = wrapAdd(Base, I.Imm);
      if (EA < 0 || static_cast<uint64_t>(EA) >= Mem.size()) {
        Fail(formatString("store address %lld out of range",
                          static_cast<long long>(EA)));
        break;
      }
      uint64_t Addr = static_cast<uint64_t>(EA);
      Refs.count(I.MemInfo, /*IsWrite=*/true, Addr);
      Cache.write(Addr, R[I.Rs2], I.MemInfo);
      Mem.shadowWrite(Addr, R[I.Rs2]);
      break;
    }
    case MOpcode::Jmp:
      NextPC = I.Target;
      break;
    case MOpcode::Bnz:
      if (R[I.Rs1] != 0)
        NextPC = I.Target;
      break;
    case MOpcode::Call:
      R[mreg::RA] = static_cast<int64_t>(PC + 1);
      NextPC = I.Target;
      break;
    case MOpcode::Ret:
      NextPC = static_cast<uint64_t>(R[mreg::RA]);
      // Code-dead hint: this function never runs again; reclaim its
      // I-cache lines.
      if (I.CodeDeadHint && ICache)
        ICache->invalidateRange(I.Target,
                                I.Target + static_cast<uint64_t>(I.Imm));
      break;
    case MOpcode::Print:
      Result.Output.push_back(R[I.Rs1]);
      break;
    case MOpcode::Halt:
      Result.Halted = true;
      break;
    }

    if (Result.Halted || !Result.Error.empty())
      break;
    PC = NextPC;
  }

  if (!Result.Halted && Result.Error.empty())
    Result.Error = "step limit exceeded";

  Refs.finish();
  Cache.flush();
  Result.Cache = Cache.stats();
  if (ICache)
    Result.ICache = ICache->finish();
  finishRun(Result, Config);
  return Result;
}

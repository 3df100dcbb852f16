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

#include <algorithm>
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

  // Pointers of the run in flight (set per outer iteration).
  const PInst *I = nullptr;
  const PInst *Start = nullptr;
  const PInst *End = nullptr;

#define URCM_FETCH()                                                         \
  do {                                                                       \
    if constexpr (ICacheOn) {                                                \
      ++Result.InstructionFetches;                                           \
      ICache->step(fetchEvent(static_cast<uint64_t>(I - Insts)), 0);         \
    }                                                                        \
  } while (0)

#if URCM_THREADED_DISPATCH
  static const void *const Handlers[] = {
#define URCM_POP_LABEL(Name) &&H_##Name,
      URCM_PREDECODED_OPS(URCM_POP_LABEL)
#undef URCM_POP_LABEL
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
#else
#define URCM_CASE(Name) case POp::Name:
#define URCM_NEXT()                                                          \
  do {                                                                       \
    if (++I == End)                                                          \
      goto RunFellOff;                                                       \
    goto Dispatch;                                                           \
  } while (0)
#endif

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
    // A run truncated by the step limit reaches no terminator: it falls
    // off End after exactly the remaining budget.
    const uint64_t Run =
        std::min<uint64_t>(RunLens[PC], Config.MaxSteps - Steps);
    I = Insts + PC;
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

    URCM_CASE(Ld) {
      const int64_t EA = wrapAdd(R[I->B], I->Imm);
      if (EA < 0 || static_cast<uint64_t>(EA) >= MemSize) {
        Result.Error = formatString("load address %lld out of range",
                                    static_cast<long long>(EA));
        goto AbortAt;
      }
      const uint64_t Addr = static_cast<uint64_t>(EA);
      Refs.count(I->Mem, /*IsWrite=*/false, Addr);
      const int64_t Value = Cache.read(Addr, I->Mem);
      if (Paranoid && Value != Mem.shadowRead(Addr))
        ++Result.CoherenceViolations;
      R[I->A] = Value;
    }
    URCM_NEXT();

    URCM_CASE(St) {
      const int64_t EA = wrapAdd(R[I->B], I->Imm);
      if (EA < 0 || static_cast<uint64_t>(EA) >= MemSize) {
        Result.Error = formatString("store address %lld out of range",
                                    static_cast<long long>(EA));
        goto AbortAt;
      }
      const uint64_t Addr = static_cast<uint64_t>(EA);
      Refs.count(I->Mem, /*IsWrite=*/true, Addr);
      Cache.write(Addr, R[I->C], I->Mem);
      Mem.shadowWrite(Addr, R[I->C]);
    }
    URCM_NEXT();

    URCM_CASE(Jmp)
    PC = I->Target;
    goto Terminated;

    URCM_CASE(Bnz)
    PC = R[I->B] != 0 ? I->Target : static_cast<uint64_t>(I - Insts) + 1;
    goto Terminated;

    URCM_CASE(Call)
    R[mreg::RA] = static_cast<int64_t>(I - Insts) + 1;
    PC = I->Target;
    goto Terminated;

    URCM_CASE(Ret)
    PC = static_cast<uint64_t>(R[mreg::RA]);
    goto Terminated;

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

#if !URCM_THREADED_DISPATCH
    }
#endif

  RunFellOff:
    // Executed the whole (possibly limit-truncated) run without a
    // control transfer; the next boundary check settles what happens.
    Steps += static_cast<uint64_t>(End - Start);
    PC = static_cast<uint64_t>(End - Insts);
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

  Refs.finish();
  Cache.flush();
  Result.Cache = Cache.stats();
  if constexpr (ICacheOn)
    Result.ICache = ICache->finish();
  return Result;

#undef URCM_CASE
#undef URCM_NEXT
#undef URCM_FETCH
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
    return predecode(Prog);
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

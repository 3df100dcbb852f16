//===- urcm/sim/Simulator.h - URCM-RISC simulator ---------------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Functional simulator for URCM-RISC programs with a modeled data cache.
/// Data flows through the cache hierarchy for real (write-back semantics),
/// so the compiler's bypass and dead-tag hints are validated end to end: a
/// paranoid shadow memory is updated architecturally on every store, and
/// every load's delivered value is checked against it. Any divergence
/// (CoherenceViolations) means a compiler hint was unsound.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_SIMULATOR_H
#define URCM_SIM_SIMULATOR_H

#include "urcm/codegen/MachineIR.h"
#include "urcm/sim/Cache.h"

#include <string>
#include <vector>

namespace urcm {

/// One recorded data reference (for trace-driven replay, e.g. Belady
/// MIN). Kept to 8 bytes — traces run to tens of millions of events and
/// the sweep engine streams them repeatedly — so only the fields replay
/// consumes are recorded: the word address (word addresses are bounded
/// by the simulated memory size, far below 2^32), the cache hint bits,
/// and the static reference id feeding the attribution profiler.
struct TraceEvent {
  /// The subset of MemRefInfo that affects cache behaviour. Packed into
  /// one byte so the RefId fits in the event without widening it.
  struct Hints {
    uint8_t Bypass : 1;
    uint8_t LastRef : 1;
    /// Always zero. Explicitly named and initialized so the unused bits
    /// of the byte are deterministic: a consumer may hash or compare
    /// events as raw 8-byte words, and compiler-chosen garbage in
    /// bitfield padding would make equal traces hash differently.
    uint8_t Unused : 6;
    Hints() : Bypass(0), LastRef(0), Unused(0) {}
    Hints(bool Bypass, bool LastRef)
        : Bypass(Bypass), LastRef(LastRef), Unused(0) {}
    Hints(const MemRefInfo &Info)
        : Bypass(Info.Bypass), LastRef(Info.LastRef), Unused(0) {}
    /// TraceEvent hints feed APIs taking full reference info (e.g. the
    /// live CacheModel in tests). The RefId is not part of the hints —
    /// attribution consumers read TraceEvent::RefId directly.
    operator MemRefInfo() const {
      MemRefInfo Info;
      Info.Bypass = Bypass;
      Info.LastRef = LastRef;
      return Info;
    }
  };

  uint32_t Addr = 0;
  bool IsWrite = false;
  Hints Info;
  /// Static reference id of the Ld/St that produced this event
  /// (MemRefInfo::RefId), or MemRefInfo::NoRefId when unnumbered.
  uint16_t RefId = MemRefInfo::NoRefId;
};
static_assert(sizeof(TraceEvent) == 8, "trace events are streamed in "
                                       "bulk; keep them packed");

/// Consumer of the data-reference trace in fixed-size chunks, fed while
/// the simulation is still running. This is the streaming alternative to
/// SimConfig::RecordTrace: peak trace memory is O(chunk) instead of
/// O(trace), and a consumer on another thread (see
/// urcm/sim/TraceStream.h) can replay chunk k while the simulator
/// produces chunk k+1. Chunk boundaries are an implementation detail:
/// the concatenation of all chunks is exactly the trace RecordTrace
/// would have recorded.
class TraceSink {
public:
  virtual ~TraceSink() = default;

  /// Takes ownership of \p Chunk — the next events of the trace, in
  /// order — and returns an *empty* buffer for the producer to refill
  /// (sinks recycle the consumer's drained buffers to keep the steady
  /// state allocation-free). The final chunk may be short; empty
  /// chunks are never delivered.
  virtual std::vector<TraceEvent> chunk(std::vector<TraceEvent> Chunk) = 0;
};

/// Which execution engine Simulator::run uses. Both produce bit-identical
/// SimResults (asserted differentially by tests/simulator_test.cpp and
/// tests/fuzz_test.cpp); Switch is kept as the portable reference
/// implementation.
enum class SimEngine : uint8_t {
  /// Predecoded threaded-dispatch fast path (urcm/sim/Predecode.h).
  Predecoded,
  /// The legacy one-MInst-at-a-time switch interpreter.
  Switch,
};

/// Simulation knobs.
struct SimConfig {
  CacheConfig Cache;
  uint64_t MaxSteps = 2000000000ull;
  SimEngine Engine = SimEngine::Predecoded;
  /// Check every delivered load value against the shadow memory.
  bool Paranoid = true;
  /// Record the data-reference trace for later replay.
  bool RecordTrace = false;
  /// When set, the trace streams through this sink in chunks of
  /// TraceChunkEvents instead of accumulating in SimResult::Trace
  /// (RecordTrace is ignored). The sink is called on the simulating
  /// thread.
  TraceSink *Sink = nullptr;
  /// Events per streamed chunk (64K events = 512 KB at 8 bytes each:
  /// big enough to amortize hand-off costs, small enough to bound
  /// in-flight memory).
  uint32_t TraceChunkEvents = 1u << 16;
  /// Expected trace length (e.g. from a previous run of the same
  /// workload); when RecordTrace is set the trace vector is reserved to
  /// this size up front, avoiding reallocation copies of a trace that
  /// can run to hundreds of MB. Zero reserves nothing.
  uint64_t TraceSizeHint = 0;
  /// Model an instruction cache as well (paper section 2.2: cache can
  /// hold both data and instructions). Instruction addresses are code
  /// indexes; multi-word lines capture sequential fetch locality.
  bool ModelICache = false;
  CacheConfig ICache = {/*NumLines=*/64, /*Assoc=*/2, /*LineWords=*/4,
                        CachePolicy::LRU, WritePolicy::WriteBack,
                        /*Seed=*/0x1ce};
  /// When set, the data cache accumulates per-static-reference
  /// attribution (urcm/sim/RefAttribution.h) into this table (not
  /// owned). Size it with RefAttribution(Prog.RefTable.size()). Null —
  /// the default — keeps the hot paths attribution-free.
  RefAttribution *Attribution = nullptr;
};

/// Dynamic per-class reference counts (the paper's runtime measurement).
struct DynamicRefStats {
  uint64_t Unambiguous = 0;
  uint64_t Ambiguous = 0;
  uint64_t Spill = 0; // Spill + SpillReload.
  uint64_t Unknown = 0;
  uint64_t Bypassed = 0;
  uint64_t LastRefTagged = 0;

  uint64_t total() const {
    return Unambiguous + Ambiguous + Spill + Unknown;
  }
  /// Dynamic fraction of references that are unambiguous names (the
  /// paper reports 45-75%). Spill traffic references unambiguous
  /// compiler-created names.
  double unambiguousFraction() const {
    uint64_t Total = total();
    return Total == 0 ? 0.0
                      : static_cast<double>(Unambiguous + Spill) / Total;
  }
};

/// Result of one program run.
struct SimResult {
  bool Halted = false;
  std::string Error; ///< Empty on success.
  uint64_t Steps = 0;
  /// Values printed by the program, in order.
  std::vector<int64_t> Output;
  CacheStats Cache;
  DynamicRefStats Refs;
  /// Instruction-cache counters (only when SimConfig::ModelICache).
  CacheStats ICache;
  uint64_t InstructionFetches = 0;
  /// Number of times consecutive executed data references differed in
  /// their bypass bit — the cost driver for the paper's section-4.4
  /// "mode switch" hint-encoding alternative.
  uint64_t BypassTransitions = 0;
  uint64_t CoherenceViolations = 0;
  std::vector<TraceEvent> Trace;

  bool ok() const { return Halted && Error.empty(); }
};

struct PredecodedProgram;

/// The first problem with the caches \p Config asks a live run to build
/// — a data or (with ModelICache) instruction cache geometry that
/// validateCacheConfig rejects, or a replay-only policy — as
/// "invalid cache configuration: ...", or empty when there is none.
/// Simulator::run returns it as the result's Error instead of running.
std::string liveCacheConfigError(const SimConfig &Config);

/// Executes machine programs.
class Simulator {
public:
  explicit Simulator(const SimConfig &Config) : Config(Config) {}

  /// Runs \p Prog to completion (Halt), error, or the step limit,
  /// through the engine selected by SimConfig::Engine (predecoding on
  /// the fly for SimEngine::Predecoded). A cache configuration no live
  /// run can build (liveCacheConfigError) is returned as the Error of a
  /// result that never ran; data-cache counters that break a
  /// conservation law (replayConservationViolation) fail the run.
  SimResult run(const MachineProgram &Prog);

  /// Runs an already-predecoded program (always the predecoded engine).
  /// Callers that execute one program many times predecode once and use
  /// this overload.
  SimResult run(const PredecodedProgram &Prog);

private:
  SimResult runSwitch(const MachineProgram &Prog);

  SimConfig Config;
};

} // namespace urcm

#endif // URCM_SIM_SIMULATOR_H

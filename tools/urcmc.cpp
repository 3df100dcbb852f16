//===- urcmc.cpp - URCM command-line compiler driver ---------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Compile, inspect and simulate MC programs from the shell:
//
//   urcmc prog.mc                      compile + run (unified scheme)
//   urcmc --workload=Queen --compare   run a built-in benchmark under
//                                      both schemes and report traffic
//   urcmc prog.mc --dump-ir            print the IR after allocation
//   urcmc prog.mc --dump-asm           print annotated URCM-RISC code
//   urcmc prog.mc --scheme=deadtag --era --cache-lines=64 --assoc=4
//
// Flags:
//   --era                 scalar locals in memory (Figure-5 codegen)
//   --cleanup             run copy-prop/LVN/DCE (+ --dse for dead stores)
//   --promote             loop promotion of unaliased scalars
//   --O1                  --promote + --cleanup
//   --scheme=S            conventional | bypass | deadtag | unified |
//                         reuse   (default unified)
//   --regs=N              allocatable registers (default 24)
//   --alloc=P             chaitin | usage  (default chaitin)
//   --cache-lines=N --assoc=N --line-words=N
//   --policy=lru|fifo|random|plru|srrip|min|bypass
//                         replacement policy for the live cache and for
//                         every --sweep row (min and bypass are
//                         replay-only: they require --sweep)
//   --icache              model the instruction cache too
//   --dump-ast --dump-ir --dump-asm --stats --compare
//   --workload=NAME       use a built-in benchmark instead of a file
//   --passes=P1,P2,...    run an explicit pass pipeline instead of the
//                         default (names: verify promote cleanup copyprop
//                         lvn dce dse regalloc unified codegen)
//   --print-pipeline      print the canonical pipeline text and exit
//   --verify-each         verify after every mutating pass (the default)
//   --no-verify           skip IR verification
//   --print-after-all     print the IR after every pass to stderr
//   --sweep=S1,S2,...     replay the run against fully-associative
//                         caches of the given sizes under --policy
//                         (hinted and conventional) and print a
//                         traffic table
//   --telemetry           print the telemetry summary to stderr on exit
//   --telemetry-json=F    write the telemetry JSON snapshot to F
//   --trace-out=F         write a Chrome trace-event file to F
//   --profile-refs=F      write the per-reference attribution profile
//                         (docs/profile_schema.json) to F
//   --profile-annotate=F  write the annotated per-line source report to F
//   --metrics-out=F       sample telemetry into a JSONL time series at F
//   --metrics-interval-ms=N   sampling period for --metrics-out
//   -Rurcm-classify       print per-reference classification remarks
//   --help --version
//
//===----------------------------------------------------------------------===//

#include "urcm/driver/Driver.h"
#include "urcm/ir/IRParser.h"
#include "urcm/pass/Pipeline.h"
#include "urcm/ir/Interpreter.h"
#include "urcm/ir/Verifier.h"
#include "urcm/lang/Sema.h"
#include "urcm/sim/RefProfile.h"
#include "urcm/sim/SweepEngine.h"
#include "urcm/sim/TraceStore.h"
#include "urcm/support/Telemetry.h"
#include "urcm/workloads/Workloads.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace urcm;

namespace {

struct CliOptions {
  std::string InputFile;
  std::string WorkloadName;
  CompileOptions Compile;
  SimConfig Sim;
  bool DumpAST = false;
  bool DumpIR = false;
  bool DumpAsm = false;
  bool Stats = false;
  bool Compare = false;
  bool PrintPipeline = false;
  std::vector<uint32_t> SweepSizes;
  /// Replacement policy from --policy=; applied to the live cache when
  /// live-eligible and to every sweep row (replay-only policies need
  /// --sweep).
  CachePolicy Policy = CachePolicy::LRU;
  bool PolicySet = false;
  /// Point-parallel replay workers for --sweep: 1 sequential, 0 auto.
  uint32_t ReplayWorkers = 0;
  /// Persistent trace store directory (empty = off).
  std::string TraceStoreDir;
  std::string TraceOut;
  std::string TelemetryJson;
  /// Per-reference attribution profile outputs (empty = off).
  std::string ProfileRefs;
  std::string ProfileAnnotate;
  /// Time-series metrics JSONL output (empty = off).
  std::string MetricsOut;
  uint32_t MetricsIntervalMs = 200;
  bool TelemetrySummary = false;
  bool ClassifyRemarks = false;
  /// A cache-geometry value too large for its field (first one seen);
  /// reported with the other cache-configuration errors after parsing.
  std::string CacheError;

  bool wantsTelemetry() const {
    return !TraceOut.empty() || !TelemetryJson.empty() ||
           !MetricsOut.empty() || TelemetrySummary || ClassifyRemarks;
  }
  bool wantsProfile() const {
    return !ProfileRefs.empty() || !ProfileAnnotate.empty();
  }
};

void usage(std::FILE *Out) {
  std::fprintf(
      Out,
      "usage: urcmc <file.mc> [flags] | urcmc --workload=NAME [flags]\n"
      "\n"
      "compilation:\n"
      "  --era                scalar locals in memory (Figure-5 codegen)\n"
      "  --promote            loop promotion of unaliased scalars\n"
      "  --cleanup            copy-prop + LVN + DCE (--dse adds dead-store "
      "elim)\n"
      "  --O1                 --promote + --cleanup\n"
      "  --scheme=S           conventional|bypass|deadtag|unified|reuse\n"
      "  --regs=N             allocatable registers (>= 8, default 24)\n"
      "  --alloc=P            chaitin | usage\n"
      "pipeline:\n"
      "  --passes=P1,P2,...   explicit pass pipeline (verify promote "
      "cleanup\n"
      "                       copyprop lvn dce dse regalloc unified "
      "codegen)\n"
      "  --print-pipeline     print the canonical pipeline text and exit\n"
      "  --verify-each        verify after every mutating pass (default "
      "on)\n"
      "  --no-verify          skip IR verification\n"
      "  --print-after-all    print the IR after every pass to stderr\n"
      "simulation:\n"
      "  --cache-lines=N --assoc=N --line-words=N\n"
      "  --policy=P           lru|fifo|random|plru|srrip|min|bypass "
      "(live\n"
      "                       cache and every sweep row; min/bypass are\n"
      "                       replay-only and require --sweep)\n"
      "  --icache             model the instruction cache too\n"
      "  --sweep=S1,S2,...    replay against fully-associative caches "
      "of\n"
      "                       the given line counts (hinted and "
      "conventional)\n"
      "  --replay-workers=N|auto  replay the sweep points on up to N "
      "threads\n"
      "                       (auto = thread-pool width, the default; "
      "results\n"
      "                       bit-identical)\n"
      "  --trace-store=DIR    persist recorded traces under DIR and "
      "serve\n"
      "                       repeat runs and sweeps from them (skips "
      "re-simulation)\n"
      "inspection:\n"
      "  --dump-ast --dump-ir --dump-asm --stats --compare\n"
      "  --workload=NAME      built-in benchmark instead of a file\n"
      "observability:\n"
      "  --telemetry          print counter/phase summary to stderr\n"
      "  --telemetry-json=F   write the telemetry JSON snapshot to F\n"
      "  --trace-out=F        write Chrome trace-event JSON to F\n"
      "  --profile-refs=F     write the per-reference attribution "
      "profile\n"
      "                       (docs/profile_schema.json) to F\n"
      "  --profile-annotate=F write the annotated per-line source "
      "report to F\n"
      "  --metrics-out=F      sample telemetry into JSONL time series "
      "at F\n"
      "  --metrics-interval-ms=N   sampling period (default 200)\n"
      "  -Rurcm-classify      per-reference classification remarks on "
      "stderr\n"
      "  --help --version\n");
}

/// Parses all of \p Text as a decimal number. Values past UINT64_MAX
/// saturate, so "too large" stays distinct from "not a number".
bool parseDecimal(const char *Text, uint64_t &Out) {
  if (*Text == '\0')
    return false;
  uint64_t V = 0;
  for (; *Text; ++Text) {
    if (*Text < '0' || *Text > '9')
      return false;
    const uint64_t Digit = static_cast<uint64_t>(*Text - '0');
    V = V > (UINT64_MAX - Digit) / 10 ? UINT64_MAX : V * 10 + Digit;
  }
  Out = V;
  return true;
}

/// The fully-associative cache of one --sweep row.
CacheConfig sweepRowConfig(const CliOptions &Cli, uint32_t Size) {
  CacheConfig C;
  C.NumLines = Size;
  C.Assoc = Size;
  C.LineWords = 1;
  C.Write = WritePolicy::WriteBack;
  C.Policy = Cli.Policy;
  C.Seed = Cli.Sim.Cache.Seed;
  return C;
}

/// The first problem with the data caches the flags describe (the live
/// cache and every --sweep row), or empty.
std::string cacheConfigError(const CliOptions &Cli) {
  if (!Cli.CacheError.empty())
    return Cli.CacheError;
  if (const char *Bad =
          validateCacheConfig(Cli.Sim.Cache, Cli.Sim.Cache.Policy))
    return Bad;
  for (uint32_t Size : Cli.SweepSizes)
    if (const char *Bad =
            validateCacheConfig(sweepRowConfig(Cli, Size), Cli.Policy))
      return "--sweep size " + std::to_string(Size) + " under " +
             cachePolicyName(Cli.Policy) + ": " + Bad;
  return "";
}

bool parseFlag(CliOptions &Cli, const std::string &Arg) {
  auto Value = [&](const char *Prefix) -> const char * {
    size_t Len = std::strlen(Prefix);
    if (Arg.compare(0, Len, Prefix) == 0)
      return Arg.c_str() + Len;
    return nullptr;
  };
  // A cache size that does not fit its 32-bit field is a configuration
  // error, reported after parsing with the other geometry checks.
  auto FitsField = [&](const std::string &What, const char *Text,
                       uint64_t N) {
    if (N <= UINT32_MAX)
      return true;
    if (Cli.CacheError.empty())
      Cli.CacheError = What + " " + Text + " is above 4294967295";
    return false;
  };
  auto Geometry = [&](const char *Flag, const char *Text, uint32_t &Field) {
    uint64_t N;
    if (!parseDecimal(Text, N))
      return false;
    if (FitsField(Flag, Text, N))
      Field = static_cast<uint32_t>(N);
    return true;
  };

  if (Arg == "--era") {
    Cli.Compile.IRGen.ScalarLocalsInMemory = true;
    return true;
  }
  if (Arg == "--cleanup") {
    Cli.Compile.RunCleanup = true;
    return true;
  }
  if (Arg == "--dse") {
    Cli.Compile.RunCleanup = true;
    Cli.Compile.Transforms.DeadStoreElimination = true;
    return true;
  }
  if (Arg == "--promote") {
    Cli.Compile.PromoteLoopScalars = true;
    return true;
  }
  if (Arg == "--O1") {
    // The full optimizing pipeline: promotion + copy-prop + LVN + DCE.
    Cli.Compile.PromoteLoopScalars = true;
    Cli.Compile.RunCleanup = true;
    return true;
  }
  if (Arg == "--dump-ast") {
    Cli.DumpAST = true;
    return true;
  }
  if (Arg == "--dump-ir") {
    Cli.DumpIR = true;
    return true;
  }
  if (Arg == "--dump-asm") {
    Cli.DumpAsm = true;
    return true;
  }
  if (Arg == "--stats") {
    Cli.Stats = true;
    return true;
  }
  if (Arg == "--compare") {
    Cli.Compare = true;
    return true;
  }
  if (Arg == "--icache") {
    Cli.Sim.ModelICache = true;
    return true;
  }
  if (const char *V = Value("--scheme=")) {
    std::string S = V;
    if (S == "conventional")
      Cli.Compile.Scheme = UnifiedOptions::conventional();
    else if (S == "bypass")
      Cli.Compile.Scheme = UnifiedOptions::bypassOnly();
    else if (S == "deadtag")
      Cli.Compile.Scheme = UnifiedOptions::deadTagOnly();
    else if (S == "unified")
      Cli.Compile.Scheme = UnifiedOptions::unified();
    else if (S == "reuse")
      Cli.Compile.Scheme = UnifiedOptions::reuseAware();
    else
      return false;
    return true;
  }
  if (const char *V = Value("--regs=")) {
    uint64_t N;
    if (!parseDecimal(V, N) || N < 8 || N > UINT32_MAX)
      return false;
    Cli.Compile.RegAlloc.NumColors = static_cast<uint32_t>(N);
    return true;
  }
  if (const char *V = Value("--alloc=")) {
    std::string S = V;
    if (S == "chaitin")
      Cli.Compile.RegAlloc.Policy = RegAllocPolicy::ChaitinBriggs;
    else if (S == "usage")
      Cli.Compile.RegAlloc.Policy = RegAllocPolicy::UsageCount;
    else
      return false;
    return true;
  }
  if (const char *V = Value("--cache-lines="))
    return Geometry("--cache-lines", V, Cli.Sim.Cache.NumLines);
  if (const char *V = Value("--assoc="))
    return Geometry("--assoc", V, Cli.Sim.Cache.Assoc);
  if (const char *V = Value("--line-words="))
    return Geometry("--line-words", V, Cli.Sim.Cache.LineWords);
  if (const char *V = Value("--policy=")) {
    if (!parseCachePolicy(V, Cli.Policy))
      return false;
    Cli.PolicySet = true;
    // Replay-only policies (MIN, the liveness-bypass predictor) cannot
    // drive the live data cache; main() rejects them without --sweep
    // and runSweep keeps the base simulation on LRU.
    if (cachePolicyLiveEligible(Cli.Policy))
      Cli.Sim.Cache.Policy = Cli.Policy;
    return true;
  }
  if (const char *V = Value("--workload=")) {
    Cli.WorkloadName = V;
    return true;
  }
  if (const char *V = Value("--sweep=")) {
    Cli.SweepSizes.clear();
    std::stringstream List(V);
    for (std::string Item; std::getline(List, Item, ',');) {
      uint64_t Size;
      if (!parseDecimal(Item.c_str(), Size))
        return false;
      if (FitsField("--sweep size", Item.c_str(), Size))
        Cli.SweepSizes.push_back(static_cast<uint32_t>(Size));
    }
    return !Cli.SweepSizes.empty() || !Cli.CacheError.empty();
  }
  if (const char *Workers = Value("--replay-workers=")) {
    if (std::strcmp(Workers, "auto") == 0) {
      Cli.ReplayWorkers = 0; // Resolved to the pool width by the engine.
      return true;
    }
    char *End = nullptr;
    long N = std::strtol(Workers, &End, 10);
    if (End == Workers || *End != '\0' || N <= 0 || N > (1 << 20))
      return false;
    Cli.ReplayWorkers = static_cast<uint32_t>(N);
    return true;
  }
  if (const char *V = Value("--trace-store=")) {
    Cli.TraceStoreDir = V;
    return !Cli.TraceStoreDir.empty();
  }
  if (const char *V = Value("--trace-out=")) {
    Cli.TraceOut = V;
    return !Cli.TraceOut.empty();
  }
  if (const char *V = Value("--telemetry-json=")) {
    Cli.TelemetryJson = V;
    return !Cli.TelemetryJson.empty();
  }
  if (const char *V = Value("--profile-refs=")) {
    Cli.ProfileRefs = V;
    return !Cli.ProfileRefs.empty();
  }
  if (const char *V = Value("--profile-annotate=")) {
    Cli.ProfileAnnotate = V;
    return !Cli.ProfileAnnotate.empty();
  }
  if (const char *V = Value("--metrics-out=")) {
    Cli.MetricsOut = V;
    return !Cli.MetricsOut.empty();
  }
  if (const char *V = Value("--metrics-interval-ms=")) {
    char *End = nullptr;
    long N = std::strtol(V, &End, 10);
    if (End == V || *End != '\0' || N <= 0 || N > 60000)
      return false;
    Cli.MetricsIntervalMs = static_cast<uint32_t>(N);
    return true;
  }
  if (Arg == "--telemetry") {
    Cli.TelemetrySummary = true;
    return true;
  }
  if (const char *V = Value("--passes=")) {
    Cli.Compile.Passes = V;
    return !Cli.Compile.Passes.empty();
  }
  if (Arg == "--print-pipeline") {
    Cli.PrintPipeline = true;
    return true;
  }
  if (Arg == "--verify-each") {
    Cli.Compile.VerifyIR = true;
    return true;
  }
  if (Arg == "--no-verify") {
    Cli.Compile.VerifyIR = false;
    return true;
  }
  if (Arg == "--print-after-all") {
    Cli.Compile.PrintAfterAll = true;
    return true;
  }
  return false;
}

/// Resolves the current flags to a pipeline and prints its canonical
/// text (PassManager::str() round-trips through parsePassPipeline).
int printPipeline(const CliOptions &Cli) {
  PassManager PM;
  std::string Text =
      Cli.Compile.Passes.empty()
          ? defaultPipelineText(Cli.Compile.PromoteLoopScalars,
                                Cli.Compile.RunCleanup)
          : Cli.Compile.Passes;
  std::string Error;
  if (!parsePassPipeline(PM, Text, Error)) {
    std::fprintf(stderr, "error: invalid pass pipeline: %s\n",
                 Error.c_str());
    return 2;
  }
  std::printf("%s\n", PM.str().c_str());
  return 0;
}

bool writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Contents;
  Out.flush();
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return false;
  }
  return true;
}

/// Replays the compiled program against fully-associative caches of the
/// requested sizes under the --policy= replacement policy (default
/// LRU), hinted and hint-stripped, and prints a traffic table. One
/// traced simulation serves every row (see SweepEngine.h).
int runSweep(const CliOptions &Cli, const MachineProgram &Program) {
  std::vector<SweepPoint> Points;
  for (uint32_t Size : Cli.SweepSizes) {
    SweepPoint P;
    P.Config = sweepRowConfig(Cli, Size);
    P.Policy = Cli.Policy;
    Points.push_back(P);
    P.IgnoreHints = true;
    Points.push_back(P);
  }

  SweepEngine Engine;
  Engine.setReplayWorkers(Cli.ReplayWorkers);
  DiagnosticEngine StoreDiags;
  uint64_t Hash = 0;
  if (!Cli.TraceStoreDir.empty()) {
    Engine.setTraceStore(Cli.TraceStoreDir, &StoreDiags);
    Hash = traceContentHash(Program, Cli.Sim);
  }
  auto Prog = std::make_shared<MachineProgram>(Program);
  Engine.schedule("urcmc-sweep", "urcmc", Cli.Sim, Points,
                  [Prog](const SimConfig &Config) {
                    Simulator S(Config);
                    return S.run(*Prog);
                  },
                  Hash);
  Engine.run();
  // Store problems (stale/corrupt/unwritable) fall back to live
  // simulation; surface them without failing the sweep.
  if (!StoreDiags.diagnostics().empty())
    std::fprintf(stderr, "%s", StoreDiags.str().c_str());

  const SimResult &Base = Engine.base("urcmc-sweep");
  if (!Base.ok()) {
    std::fprintf(stderr, "runtime error: %s\n", Base.Error.c_str());
    return 1;
  }
  std::printf("%-8s %16s %16s %16s %16s\n", "lines", "hinted-cache",
              "hinted-bus", "conv-cache", "conv-bus");
  for (size_t I = 0; I != Cli.SweepSizes.size(); ++I) {
    const CacheStats &Hinted = Engine.point("urcmc-sweep", 2 * I);
    const CacheStats &Conv = Engine.point("urcmc-sweep", 2 * I + 1);
    std::printf(
        "%-8u %16llu %16llu %16llu %16llu\n", Cli.SweepSizes[I],
        static_cast<unsigned long long>(Hinted.cacheTraffic()),
        static_cast<unsigned long long>(Hinted.busTraffic()),
        static_cast<unsigned long long>(Conv.cacheTraffic()),
        static_cast<unsigned long long>(Conv.busTraffic()));
  }
  return 0;
}

/// The plain run with --trace-store: a base-only sweep experiment, so a
/// miss records the trace and a warm store answers from the recorded
/// summary without simulating.
SimResult runThroughStore(const CliOptions &Cli,
                          const MachineProgram &Program) {
  SweepEngine Engine;
  DiagnosticEngine StoreDiags;
  Engine.setTraceStore(Cli.TraceStoreDir, &StoreDiags);
  auto Prog = std::make_shared<MachineProgram>(Program);
  Engine.schedule("urcmc-run", "urcmc", Cli.Sim, {},
                  [Prog](const SimConfig &Config) {
                    Simulator S(Config);
                    return S.run(*Prog);
                  },
                  traceContentHash(Program, Cli.Sim));
  Engine.run();
  if (!StoreDiags.diagnostics().empty())
    std::fprintf(stderr, "%s", StoreDiags.str().c_str());
  return Engine.base("urcmc-run");
}

void printRunReport(const SimResult &R, bool Stats) {
  std::printf("output:");
  for (int64_t V : R.Output)
    std::printf(" %lld", static_cast<long long>(V));
  std::printf("\n");
  if (!Stats)
    return;
  std::printf("steps: %llu\n",
              static_cast<unsigned long long>(R.Steps));
  std::printf("data refs: %llu (unambiguous %.1f%%, bypassed %llu, "
              "dead-tagged %llu)\n",
              static_cast<unsigned long long>(R.Refs.total()),
              R.Refs.unambiguousFraction() * 100.0,
              static_cast<unsigned long long>(R.Refs.Bypassed),
              static_cast<unsigned long long>(R.Refs.LastRefTagged));
  std::printf("cache: %s\n", R.Cache.str().c_str());
  if (R.InstructionFetches != 0)
    std::printf("icache: fetches=%llu hit=%.2f%%\n",
                static_cast<unsigned long long>(R.InstructionFetches),
                R.ICache.hitRate() * 100.0);
  if (R.CoherenceViolations != 0)
    std::printf("WARNING: %llu coherence violations (unsound hints)\n",
                static_cast<unsigned long long>(R.CoherenceViolations));
}

/// The tool proper, after flag parsing and source loading. Factored out
/// of main so the telemetry exporters run after every exit path.
int runTool(const CliOptions &Cli, const std::string &Source) {
  // Textual IR input: parse, verify, interpret.
  if (Cli.InputFile.size() > 3 &&
      Cli.InputFile.compare(Cli.InputFile.size() - 3, 3, ".ir") == 0) {
    DiagnosticEngine Diags;
    auto M = parseIR(Source, Diags);
    if (!M || !verifyModule(*M, Diags)) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      return 1;
    }
    if (Cli.DumpIR) {
      std::printf("%s", printIR(*M).c_str());
      return 0;
    }
    InterpResult R = interpretModule(*M);
    if (!R.ok()) {
      std::fprintf(stderr, "runtime error: %s\n", R.Error.c_str());
      return 1;
    }
    std::printf("output:");
    for (int64_t V : R.Output)
      std::printf(" %lld", static_cast<long long>(V));
    std::printf("\n");
    return 0;
  }

  if (Cli.Compare) {
    SchemeComparison C =
        compareSchemes(Source, Cli.Compile, Cli.Sim.Cache);
    if (!C.ok()) {
      std::fprintf(stderr, "error: %s\n", C.Error.c_str());
      return 1;
    }
    std::printf("static: %s\n", C.StaticStats.str().c_str());
    std::printf("%-14s %14s %14s\n", "", "conventional", "unified");
    std::printf("%-14s %14llu %14llu\n", "cache traffic",
                static_cast<unsigned long long>(
                    C.Conventional.Cache.cacheTraffic()),
                static_cast<unsigned long long>(
                    C.Unified.Cache.cacheTraffic()));
    std::printf("%-14s %14llu %14llu\n", "bus traffic",
                static_cast<unsigned long long>(
                    C.Conventional.Cache.busTraffic()),
                static_cast<unsigned long long>(
                    C.Unified.Cache.busTraffic()));
    std::printf("reduction: %.1f%% cache, %.1f%% bus; dynamic "
                "unambiguous %.1f%%\n",
                C.cacheTrafficReductionPercent(),
                C.busTrafficReductionPercent(),
                C.dynamicUnambiguousPercent());
    return 0;
  }

  if (Cli.DumpAST) {
    DiagnosticEngine Diags;
    auto TU = parseAndAnalyze(Source, Diags);
    if (!TU) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      return 1;
    }
    std::printf("%s", printAST(*TU).c_str());
    return 0;
  }

  DiagnosticEngine Diags;
  CompileResult Compiled = compileProgram(Source, Cli.Compile, Diags);
  if (!Compiled.Ok) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  if (Cli.DumpIR) {
    std::printf("%s", printIR(*Compiled.Module.IR).c_str());
    return 0;
  }
  if (Cli.DumpAsm) {
    std::printf("%s", Compiled.Program.str().c_str());
    return 0;
  }

  if (!Cli.SweepSizes.empty()) {
    if (Cli.wantsProfile()) {
      std::fprintf(stderr, "error: --profile-refs/--profile-annotate "
                           "apply to the plain run, not --sweep\n");
      return 2;
    }
    return runSweep(Cli, Compiled.Program);
  }

  // The attribution table for --profile-refs/--profile-annotate: sized
  // to the static reference table and filled by the live data cache.
  RefAttribution Attr;
  SimConfig SimCfg = Cli.Sim;
  if (Cli.wantsProfile()) {
    if (!Cli.TraceStoreDir.empty()) {
      std::fprintf(stderr, "error: --profile-refs/--profile-annotate need "
                           "the live run, not --trace-store\n");
      return 2;
    }
    Attr = RefAttribution(
        static_cast<uint32_t>(Compiled.Program.RefTable.size()));
    SimCfg.Attribution = &Attr;
  }

  SimResult R = Cli.TraceStoreDir.empty()
                    ? Simulator(SimCfg).run(Compiled.Program)
                    : runThroughStore(Cli, Compiled.Program);
  if (!R.ok()) {
    std::fprintf(stderr, "runtime error: %s\n", R.Error.c_str());
    return 1;
  }
  printRunReport(R, Cli.Stats);

  const std::string Workload =
      Cli.WorkloadName.empty() ? Cli.InputFile : Cli.WorkloadName;
  if (!Cli.ProfileRefs.empty() &&
      !writeFile(Cli.ProfileRefs,
                 refProfileJSON(Compiled.Program, Attr, Workload)))
    return 1;
  if (!Cli.ProfileAnnotate.empty() &&
      !writeFile(Cli.ProfileAnnotate,
                 refProfileAnnotate(Compiled.Program, Attr, Source)))
    return 1;
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  CliOptions Cli;
  for (int A = 1; A != argc; ++A) {
    std::string Arg = argv[A];
    if (Arg == "--help" || Arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (Arg == "--version") {
      std::printf("urcmc (urcm) 0.4\n");
      return 0;
    }
    if (Arg == "-Rurcm-classify") {
      Cli.ClassifyRemarks = true;
      continue;
    }
    if (Arg.rfind("-", 0) == 0) {
      if (!parseFlag(Cli, Arg)) {
        std::fprintf(stderr, "error: unknown or invalid flag '%s'\n",
                     Arg.c_str());
        usage(stderr);
        return 2;
      }
    } else if (Cli.InputFile.empty()) {
      Cli.InputFile = Arg;
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n",
                   Arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (Cli.PolicySet && !cachePolicyLiveEligible(Cli.Policy) &&
      Cli.SweepSizes.empty()) {
    std::fprintf(stderr,
                 "error: --policy=%s is replay-only (it needs the "
                 "recorded trace); combine it with --sweep=\n",
                 cachePolicyName(Cli.Policy));
    return 2;
  }

  // Geometry the simulator cannot build (main() checks it once, for the
  // live cache and every sweep row, so no later stage can abort on it).
  if (std::string Bad = cacheConfigError(Cli); !Bad.empty()) {
    std::fprintf(stderr, "error: invalid cache configuration: %s\n",
                 Bad.c_str());
    return 1;
  }

  // --print-pipeline needs no input: it reports what the flags resolve
  // to, so review scripts can pin the pipeline without compiling.
  if (Cli.PrintPipeline)
    return printPipeline(Cli);

  std::string Source;
  if (!Cli.WorkloadName.empty()) {
    const Workload *W = findWorkload(Cli.WorkloadName);
    if (!W) {
      std::fprintf(stderr, "error: unknown workload '%s' (try: ",
                   Cli.WorkloadName.c_str());
      for (const Workload &Known : paperWorkloads())
        std::fprintf(stderr, "%s ", Known.Name.c_str());
      std::fprintf(stderr, ")\n");
      return 2;
    }
    Source = W->Source;
  } else if (!Cli.InputFile.empty()) {
    std::ifstream In(Cli.InputFile);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n",
                   Cli.InputFile.c_str());
      return 2;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Source = Buffer.str();
  } else {
    std::fprintf(stderr, "error: no input file or --workload\n");
    usage(stderr);
    return 2;
  }

  if (Cli.wantsTelemetry()) {
    telemetry::setEnabled(true);
    telemetry::setThreadName("main");
    if (Cli.ClassifyRemarks)
      telemetry::enableClassifyCapture(stderr);
  }
  std::unique_ptr<telemetry::MetricsSampler> Sampler;
  if (!Cli.MetricsOut.empty())
    Sampler = std::make_unique<telemetry::MetricsSampler>(
        Cli.MetricsOut, Cli.MetricsIntervalMs);

  int Code = runTool(Cli, Source);

  if (Sampler)
    Sampler->stop(); // Flush the final sample before the exporters run.

  if (Cli.TelemetrySummary)
    std::fprintf(stderr, "%s", telemetry::summaryText().c_str());
  if (!Cli.TelemetryJson.empty() &&
      !writeFile(Cli.TelemetryJson, telemetry::snapshotJSON()))
    Code = Code == 0 ? 1 : Code;
  if (!Cli.TraceOut.empty() &&
      !writeFile(Cli.TraceOut, telemetry::chromeTraceJSON()))
    Code = Code == 0 ? 1 : Code;
  return Code;
}

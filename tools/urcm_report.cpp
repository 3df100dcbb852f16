//===- urcm_report.cpp - One-command reproduction report -----------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Runs the core experiment grid and emits a self-contained markdown
// report (stdout, or a file given as argv[1]) with the paper-vs-measured
// tables: Figure 5, the static/dynamic ambiguity bands, the scheme
// decomposition and the memory-access-time speedups. Useful to verify a
// build reproduces the paper's shapes in one command:
//
//   ./build/tools/urcm_report report.md
//
// Flags: --help, --version, --telemetry (summary on stderr),
// --telemetry-json=FILE, --trace-out=FILE (Chrome trace-event JSON of
// the whole grid, compile and simulate phases across the pool),
// --profile-refs=DIR (one attribution profile JSON per workload),
// --metrics-out=FILE (JSONL telemetry time series).
//
//===----------------------------------------------------------------------===//

#include "urcm/driver/Driver.h"
#include "urcm/sim/RefProfile.h"
#include "urcm/sim/SweepEngine.h"
#include "urcm/sim/TraceStore.h"
#include "urcm/support/Telemetry.h"
#include "urcm/support/ThreadPool.h"
#include "urcm/workloads/Workloads.h"

#include <memory>

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace urcm;

namespace {

FILE *Out = stdout;

void line(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));
void line(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(Out, Fmt, Args);
  va_end(Args);
  std::fputc('\n', Out);
}

/// An empty line (line("") would be a zero-length printf format).
void blank() { std::fputc('\n', Out); }

CacheConfig paperCache() {
  CacheConfig C;
  C.NumLines = 128;
  C.Assoc = 2;
  C.LineWords = 1;
  return C;
}

/// The replacement-policy comparison grid: every policy replays the
/// same recorded trace (hinted and hint-stripped) at the paper's cache
/// geometry. LRU leads so its column doubles as the Figure-5 numbers;
/// the tail pairs the liveness-bypass predictor against SRRIP, the
/// paper-adjacent hardware-only alternatives to compiler hints.
const CachePolicy ReportPolicies[] = {
    CachePolicy::LRU,      CachePolicy::FIFO,
    CachePolicy::Random,   CachePolicy::TreePLRU,
    CachePolicy::SRRIP,    CachePolicy::LivenessBypass,
};
constexpr size_t NumReportPolicies =
    sizeof(ReportPolicies) / sizeof(ReportPolicies[0]);

/// Everything the report needs for one workload. Computed once per
/// workload up front (in parallel) so the tables below are lookups;
/// fig5 in particular feeds two tables.
struct WorkloadData {
  /// Fig5.Conventional doubles as the memory-access-time table's era
  /// baseline: that program is compiled with exactly the Figure-5
  /// conventional options, so its counters are the hint-stripped point.
  SchemeComparison Fig5;
  SimResult CompleteUnified;
  /// Per-policy counters of the hinted / hint-stripped Figure-5 replay,
  /// parallel to ReportPolicies ([0] == the LRU Figure-5 points).
  std::vector<CacheStats> PolicyHinted, PolicyStripped;
};

/// The per-workload compiled programs. Compilation is hoisted out of
/// the engine's producer closures so the trace-store content hash is
/// known *before* the experiments run — with a warm store the producers
/// (and the Simulator inside them) are never invoked, but compilation
/// still happens: it is cheap, and StaticStats feeds the static table
/// regardless of how the dynamic counters are served.
struct Prepared {
  std::shared_ptr<MachineProgram> Fig5Unified;
  std::shared_ptr<MachineProgram> CompleteUnified;
};

MachineProgram compileOrDie(const Workload &W,
                            const CompileOptions &Options,
                            ClassificationStats *Static = nullptr) {
  DiagnosticEngine Diags;
  CompileResult R = compileProgram(W.Source, Options, Diags);
  if (!R.Ok) {
    std::fprintf(stderr, "%s: compilation failed\n%s\n", W.Name.c_str(),
                 Diags.str().c_str());
    std::exit(1);
  }
  if (Static)
    *Static = R.Static;
  return std::move(R.Program);
}

/// Compiles every program the report simulates (in parallel across
/// workloads). The Figure-5 soundness precondition is checked here:
/// both schemes' instruction streams must be identical modulo hint
/// bits, or hint-stripped replay would print numbers that mean
/// something else — abort rather than do that.
std::vector<Prepared> compileAll(std::vector<WorkloadData> &Data) {
  const std::vector<Workload> &Workloads = paperWorkloads();
  std::vector<Prepared> Programs(Workloads.size());
  ThreadPool::global().parallelFor(Workloads.size(), [&](size_t I) {
    const Workload &W = Workloads[I];
    CompileOptions Era;
    Era.IRGen.ScalarLocalsInMemory = true;
    CompileOptions Unified = Era;
    Unified.Scheme = UnifiedOptions::unified();
    CompileOptions Conventional = Era;
    Conventional.Scheme = UnifiedOptions::conventional();
    MachineProgram U =
        compileOrDie(W, Unified, &Data[I].Fig5.StaticStats);
    MachineProgram C = compileOrDie(W, Conventional);
    if (!sameStreamModuloHints(U, C)) {
      std::fprintf(stderr,
                   "%s: scheme instruction streams diverge; "
                   "hint-stripped replay would be unsound\n",
                   W.Name.c_str());
      std::exit(1);
    }
    Programs[I].Fig5Unified =
        std::make_shared<MachineProgram>(std::move(U));

    CompileOptions Complete;
    Complete.PromoteLoopScalars = true;
    Complete.Scheme = UnifiedOptions::reuseAware();
    Programs[I].CompleteUnified =
        std::make_shared<MachineProgram>(compileOrDie(W, Complete));
  });
  return Programs;
}

/// Schedules one plain run (no sweep points — the experiment exists for
/// its base counters, and for the store: warm runs serve it from the
/// recorded summary without simulating).
void scheduleRun(SweepEngine &Engine, const std::string &Key,
                 const std::string &HintGroup,
                 std::shared_ptr<MachineProgram> Prog) {
  SimConfig Sim;
  Sim.Cache = paperCache();
  uint64_t Hash = Engine.traceStoreDir().empty()
                      ? 0
                      : traceContentHash(*Prog, Sim);
  Engine.schedule(Key, HintGroup, Sim, {},
                  [Prog = std::move(Prog)](const SimConfig &Config) {
                    Simulator S(Config);
                    return S.run(*Prog);
                  },
                  Hash);
}

const SimResult &baseOrDie(SweepEngine &Engine, const Workload &W,
                           const std::string &Key) {
  const SimResult &Base = Engine.base(Key);
  if (!Base.ok()) {
    std::fprintf(stderr, "%s: %s\n", W.Name.c_str(), Base.Error.c_str());
    std::exit(1);
  }
  if (Base.CoherenceViolations != 0) {
    std::fprintf(stderr, "%s: coherence violations detected\n",
                 W.Name.c_str());
    std::exit(1);
  }
  return Base;
}

bool writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream File(Path, std::ios::binary);
  File << Contents;
  File.flush();
  if (!File) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return false;
  }
  return true;
}

/// Runs the whole grid on one engine: the Figure-5 pair-replays (each
/// workload compiled under both schemes, ONE traced unified run serving
/// both sides — the unified counters replay the trace as recorded, the
/// conventional counters replay it with the hints stripped, and double
/// as the era baseline) plus the complete-unified system run. Counters are
/// bit-identical to running each scheme live (tests/sweepengine_test),
/// \p ReplayWorkers spreads each replay's points across the pool
/// without changing a single bit (tests/shardedreplay_test), and
/// \p StoreDir serves every
/// experiment from persisted traces when warm (byte-identical output,
/// asserted by scripts/check.sh --store).
///
/// When \p ProfileDir is nonempty, the hinted Figure-5 replay point of
/// every workload additionally accumulates per-reference attribution,
/// and one profile JSON per workload (docs/profile_schema.json) lands
/// at `<ProfileDir>/<workload>.json` — served by the same replay that
/// produces the tables, at any worker count, cold or warm.
std::vector<WorkloadData> computeAll(uint32_t ReplayWorkers,
                                     const std::string &StoreDir,
                                     const std::string &ProfileDir) {
  const std::vector<Workload> &Workloads = paperWorkloads();
  std::vector<WorkloadData> Data(Workloads.size());
  std::vector<Prepared> Programs = compileAll(Data);

  SweepEngine Engine;
  Engine.setReplayWorkers(ReplayWorkers);
  DiagnosticEngine StoreDiags;
  if (!StoreDir.empty())
    Engine.setTraceStore(StoreDir, &StoreDiags);

  for (size_t I = 0; I != Workloads.size(); ++I) {
    const Workload &W = Workloads[I];
    std::vector<SweepPoint> Points(2 * NumReportPolicies);
    for (size_t P = 0; P != NumReportPolicies; ++P) {
      SweepPoint &Hinted = Points[2 * P];
      SweepPoint &Stripped = Points[2 * P + 1];
      Hinted.Config = Stripped.Config = paperCache();
      Hinted.Config.Policy = Stripped.Config.Policy = ReportPolicies[P];
      Hinted.Policy = Stripped.Policy = ReportPolicies[P];
      Stripped.IgnoreHints = true;
    }
    if (!ProfileDir.empty())
      Points[0].AttributionRefs = static_cast<uint32_t>(
          Programs[I].Fig5Unified->RefTable.size());
    SimConfig Base;
    Base.Cache = paperCache();
    std::shared_ptr<MachineProgram> Prog = Programs[I].Fig5Unified;
    uint64_t Hash = StoreDir.empty() ? 0 : traceContentHash(*Prog, Base);
    Engine.schedule(W.Name, W.Name, Base, std::move(Points),
                    [Prog](const SimConfig &Sim) {
                      Simulator S(Sim);
                      return S.run(*Prog);
                    },
                    Hash);
    scheduleRun(Engine, W.Name + "/complete-unified", W.Name,
                Programs[I].CompleteUnified);
  }
  Engine.run();
  // Store problems fall back to live simulation; surface them without
  // failing the report.
  if (!StoreDiags.diagnostics().empty())
    std::fprintf(stderr, "%s", StoreDiags.str().c_str());

  for (size_t I = 0; I != Workloads.size(); ++I) {
    const Workload &W = Workloads[I];
    SchemeComparison &C = Data[I].Fig5;
    const SimResult &Base = baseOrDie(Engine, W, W.Name);
    C.Unified = Base;
    C.Unified.Cache = Engine.point(W.Name, 0);
    C.Conventional = Base;
    C.Conventional.Cache = Engine.point(W.Name, 1);
    // A hint-free run of the same stream reports no hint activity.
    C.Conventional.Refs.Bypassed = 0;
    C.Conventional.Refs.LastRefTagged = 0;
    C.Conventional.BypassTransitions = 0;
    Data[I].PolicyHinted.resize(NumReportPolicies);
    Data[I].PolicyStripped.resize(NumReportPolicies);
    for (size_t P = 0; P != NumReportPolicies; ++P) {
      Data[I].PolicyHinted[P] = Engine.point(W.Name, 2 * P);
      Data[I].PolicyStripped[P] = Engine.point(W.Name, 2 * P + 1);
    }
    Data[I].CompleteUnified =
        baseOrDie(Engine, W, W.Name + "/complete-unified");
  }

  if (!ProfileDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(ProfileDir, EC);
    for (size_t I = 0; I != Workloads.size(); ++I) {
      const Workload &W = Workloads[I];
      const RefAttribution &Attr = Engine.attribution(W.Name, 0);
      if (!writeFile(ProfileDir + "/" + W.Name + ".json",
                     refProfileJSON(*Programs[I].Fig5Unified, Attr,
                                    W.Name)))
        std::exit(1);
    }
  }
  return Data;
}

void usage(std::FILE *To) {
  std::fprintf(To,
               "usage: urcm_report [output.md] [--telemetry] "
               "[--telemetry-json=FILE] [--trace-out=FILE]\n"
               "                   [--replay-workers=N|auto] "
               "[--trace-store=DIR]\n"
               "       urcm_report --help | --version\n"
               "  --replay-workers=N|auto\n"
               "                     replay each trace's points on up "
               "to N threads (auto =\n"
               "                     thread-pool width, the default; "
               "output is bit-identical\n"
               "                     for every value)\n"
               "  --trace-store=DIR  persist recorded traces under DIR "
               "and serve repeat\n"
               "                     runs from them (skips "
               "re-simulation; output is\n"
               "                     byte-identical cold or warm)\n"
               "  --profile-refs=DIR write one per-reference "
               "attribution profile JSON\n"
               "                     per workload "
               "(DIR/<workload>.json), accumulated by\n"
               "                     the hinted Figure-5 replay\n"
               "  --metrics-out=F    sample telemetry into a JSONL "
               "time series at F\n"
               "  --metrics-interval-ms=N  sampling period (default "
               "200)\n");
}

} // namespace

int main(int argc, char **argv) {
  std::string OutputFile, TraceOut, TelemetryJson, TraceStoreDir;
  std::string ProfileDir, MetricsOut;
  bool TelemetrySummary = false;
  uint32_t ReplayWorkers = 0;
  uint32_t MetricsIntervalMs = 200;
  for (int A = 1; A != argc; ++A) {
    std::string Arg = argv[A];
    if (Arg == "--help" || Arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (Arg == "--version") {
      std::printf("urcm_report (urcm) 0.4\n");
      return 0;
    }
    if (Arg == "--telemetry") {
      TelemetrySummary = true;
    } else if (Arg.rfind("--trace-out=", 0) == 0) {
      TraceOut = Arg.substr(12);
    } else if (Arg.rfind("--telemetry-json=", 0) == 0) {
      TelemetryJson = Arg.substr(17);
    } else if (Arg.rfind("--profile-refs=", 0) == 0) {
      ProfileDir = Arg.substr(15);
      if (ProfileDir.empty()) {
        std::fprintf(stderr,
                     "error: --profile-refs expects a directory\n");
        return 2;
      }
    } else if (Arg.rfind("--metrics-out=", 0) == 0) {
      MetricsOut = Arg.substr(14);
      if (MetricsOut.empty()) {
        std::fprintf(stderr, "error: --metrics-out expects a file\n");
        return 2;
      }
    } else if (Arg.rfind("--metrics-interval-ms=", 0) == 0) {
      std::string Value = Arg.substr(22);
      char *End = nullptr;
      unsigned long Parsed = std::strtoul(Value.c_str(), &End, 10);
      if (Value.empty() || *End != '\0' || Parsed == 0 ||
          Parsed > 60000) {
        std::fprintf(stderr,
                     "error: --metrics-interval-ms expects 1..60000, "
                     "got '%s'\n",
                     Value.c_str());
        return 2;
      }
      MetricsIntervalMs = static_cast<uint32_t>(Parsed);
    } else if (Arg.rfind("--trace-store=", 0) == 0) {
      TraceStoreDir = Arg.substr(14);
      if (TraceStoreDir.empty()) {
        std::fprintf(stderr,
                     "error: --trace-store expects a directory\n");
        return 2;
      }
    } else if (Arg.rfind("--replay-workers=", 0) == 0) {
      std::string Value = Arg.substr(17);
      if (Value == "auto") {
        ReplayWorkers = 0; // Resolved to the pool width by the engine.
      } else {
        char *End = nullptr;
        unsigned long Parsed = std::strtoul(Value.c_str(), &End, 10);
        if (Value.empty() || *End != '\0' || Parsed == 0 ||
            Parsed > 1u << 20) {
          std::fprintf(stderr,
                       "error: --replay-workers expects a positive count "
                       "or 'auto', got '%s'\n",
                       Value.c_str());
          return 2;
        }
        ReplayWorkers = static_cast<uint32_t>(Parsed);
      }
    } else if (Arg.rfind("-", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      usage(stderr);
      return 2;
    } else if (OutputFile.empty()) {
      OutputFile = Arg;
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n",
                   Arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (TelemetrySummary || !TraceOut.empty() || !TelemetryJson.empty() ||
      !MetricsOut.empty()) {
    telemetry::setEnabled(true);
    telemetry::setThreadName("main");
  }
  std::unique_ptr<telemetry::MetricsSampler> Sampler;
  if (!MetricsOut.empty())
    Sampler = std::make_unique<telemetry::MetricsSampler>(
        MetricsOut, MetricsIntervalMs);

  if (!OutputFile.empty()) {
    Out = std::fopen(OutputFile.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "cannot open %s\n", OutputFile.c_str());
      return 1;
    }
  }

  std::vector<WorkloadData> Data =
      computeAll(ReplayWorkers, TraceStoreDir, ProfileDir);

  line("# URCM reproduction report");
  blank();
  line("Chi & Dietz, *Unified Management of Registers and Cache Using "
       "Liveness and Cache Bypass*, PLDI 1989.");
  line("Configuration: era compiler, 128-line 2-way LRU data cache, "
       "1-word lines.");
  blank();

  line("## Figure 5 — data-cache traffic reduction (paper: ~60%% mean)");
  blank();
  line("| bench | conventional | unified | reduction | dynamic "
       "unambiguous |");
  line("|---|---|---|---|---|");
  double Sum = 0;
  for (size_t I = 0; I != paperWorkloads().size(); ++I) {
    const Workload &W = paperWorkloads()[I];
    const SchemeComparison &C = Data[I].Fig5;
    Sum += C.cacheTrafficReductionPercent();
    line("| %s | %llu | %llu | %.1f%% | %.1f%% |", W.Name.c_str(),
         static_cast<unsigned long long>(
             C.Conventional.Cache.cacheTraffic()),
         static_cast<unsigned long long>(C.Unified.Cache.cacheTraffic()),
         C.cacheTrafficReductionPercent(),
         C.dynamicUnambiguousPercent());
  }
  line("| **mean** | | | **%.1f%%** | |",
       Sum / paperWorkloads().size());
  blank();

  line("## Static classification (paper: 70-80%% unambiguous)");
  blank();
  line("| bench | static unambiguous | refs |");
  line("|---|---|---|");
  for (size_t I = 0; I != paperWorkloads().size(); ++I) {
    const Workload &W = paperWorkloads()[I];
    const SchemeComparison &C = Data[I].Fig5;
    line("| %s | %.1f%% | %llu |", W.Name.c_str(),
         C.StaticStats.unambiguousFraction() * 100.0,
         static_cast<unsigned long long>(C.StaticStats.totalRefs()));
  }
  blank();

  line("## Memory-access time (mem word = 10 cycles; paper section 4.4 "
       "claims \"factors of 2 or more\")");
  blank();
  line("| bench | era baseline (cycles) | complete unified (cycles) | "
       "speedup |");
  line("|---|---|---|---|");
  LatencyModel Model;
  double Product = 1.0;
  for (size_t I = 0; I != paperWorkloads().size(); ++I) {
    const Workload &W = paperWorkloads()[I];
    uint64_t BaseCycles =
        memoryAccessCycles(Data[I].Fig5.Conventional.Cache, Model);
    uint64_t UniCycles =
        memoryAccessCycles(Data[I].CompleteUnified.Cache, Model);
    double Speedup = static_cast<double>(BaseCycles) /
                     static_cast<double>(UniCycles);
    Product *= Speedup;
    line("| %s | %llu | %llu | %.2fx |", W.Name.c_str(),
         static_cast<unsigned long long>(BaseCycles),
         static_cast<unsigned long long>(UniCycles), Speedup);
  }
  line("| **geomean** | | | **%.2fx** |",
       std::pow(Product, 1.0 / paperWorkloads().size()));
  blank();

  line("## Replacement-policy grid — unified cache-traffic reduction");
  blank();
  line("Every column replays the same recorded trace under a different "
       "replacement policy (128-line 2-way cache); cells are the "
       "hinted-vs-stripped cache-traffic reduction, i.e. what the "
       "compiler's hints still buy on top of that policy. "
       "LivenessBypass is the hardware predictor that learns "
       "dead-on-arrival references at runtime — the closest "
       "hardware-only stand-in for the paper's compiler hints.");
  blank();
  {
    std::string Header = "| bench |", Rule = "|---|";
    for (size_t P = 0; P != NumReportPolicies; ++P) {
      Header += " ";
      Header += cachePolicyName(ReportPolicies[P]);
      Header += " |";
      Rule += "---|";
    }
    line("%s", Header.c_str());
    line("%s", Rule.c_str());
  }
  for (size_t I = 0; I != paperWorkloads().size(); ++I) {
    std::string Row = "| " + paperWorkloads()[I].Name + " |";
    for (size_t P = 0; P != NumReportPolicies; ++P) {
      double Conv = static_cast<double>(
          Data[I].PolicyStripped[P].cacheTraffic());
      double Uni = static_cast<double>(
          Data[I].PolicyHinted[P].cacheTraffic());
      char Cell[32];
      std::snprintf(Cell, sizeof(Cell), " %.1f%% |",
                    Conv > 0 ? (Conv - Uni) / Conv * 100.0 : 0.0);
      Row += Cell;
    }
    line("%s", Row.c_str());
  }
  blank();

  line("## Bypass vs RRIP — hint-free bus traffic by policy");
  blank();
  line("The hint-stripped replay isolates what the replacement policy "
       "achieves on its own: compare SRRIP's re-reference intervals "
       "against the LivenessBypass predictor (and both against plain "
       "LRU) with no compiler involvement.");
  blank();
  {
    std::string Header = "| bench |", Rule = "|---|";
    for (size_t P = 0; P != NumReportPolicies; ++P) {
      Header += " ";
      Header += cachePolicyName(ReportPolicies[P]);
      Header += " |";
      Rule += "---|";
    }
    line("%s", Header.c_str());
    line("%s", Rule.c_str());
  }
  for (size_t I = 0; I != paperWorkloads().size(); ++I) {
    std::string Row = "| " + paperWorkloads()[I].Name + " |";
    for (size_t P = 0; P != NumReportPolicies; ++P) {
      char Cell[32];
      std::snprintf(Cell, sizeof(Cell), " %llu |",
                    static_cast<unsigned long long>(
                        Data[I].PolicyStripped[P].busTraffic()));
      Row += Cell;
    }
    line("%s", Row.c_str());
  }
  blank();

  line("## Sanity");
  blank();
  line("All schemes produced identical program outputs with zero "
       "coherence violations (checked per run above).");
  if (Out != stdout)
    std::fclose(Out);

  if (Sampler)
    Sampler->stop(); // Flush the final sample before the exporters run.
  int Code = 0;
  if (TelemetrySummary)
    std::fprintf(stderr, "%s", telemetry::summaryText().c_str());
  if (!TelemetryJson.empty() &&
      !writeFile(TelemetryJson, telemetry::snapshotJSON()))
    Code = 1;
  if (!TraceOut.empty() &&
      !writeFile(TraceOut, telemetry::chromeTraceJSON()))
    Code = 1;
  return Code;
}

//===- simulator_test.cpp - URCM-RISC simulator tests --------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/Simulator.h"

#include "urcm/driver/Driver.h"
#include "urcm/support/Telemetry.h"
#include "urcm/workloads/Workloads.h"

#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace urcm;

namespace {

SimResult runSource(const std::string &Source,
                    const CompileOptions &Options = {},
                    SimConfig Sim = {}) {
  DiagnosticEngine Diags;
  return compileAndRun(Source, Options, Sim, Diags);
}

} // namespace

TEST(Simulator, ArithmeticOperators) {
  SimResult R = runSource(
      "void main() {\n"
      "  int a = 17; int b = 5;\n"
      "  print(a + b); print(a - b); print(a * b); print(a / b);\n"
      "  print(a % b); print(a & b); print(a | b); print(a ^ b);\n"
      "  print(a << 2); print(a >> 1); print(-a); print(~a);\n"
      "}\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  std::vector<int64_t> Expected = {22, 12, 85, 3, 2, 17 & 5, 17 | 5,
                                   17 ^ 5, 68, 8, -17, ~17};
  EXPECT_EQ(R.Output, Expected);
}

TEST(Simulator, ComparisonsAndLogic) {
  SimResult R = runSource(
      "void main() {\n"
      "  int a = 3; int b = 7;\n"
      "  print(a < b); print(a <= b); print(a > b); print(a >= b);\n"
      "  print(a == b); print(a != b); print(!a); print(!0);\n"
      "  print(a < b && b < 10); print(a > b || b > 100);\n"
      "}\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  std::vector<int64_t> Expected = {1, 1, 0, 0, 0, 1, 0, 1, 1, 0};
  EXPECT_EQ(R.Output, Expected);
}

TEST(Simulator, ShortCircuitSkipsSideEffects) {
  SimResult R = runSource(
      "int calls;\n"
      "int bump() { calls = calls + 1; return 1; }\n"
      "void main() {\n"
      "  int x;\n"
      "  calls = 0;\n"
      "  x = 0 && bump();\n"
      "  print(calls);\n"
      "  x = 1 || bump();\n"
      "  print(calls);\n"
      "  x = 1 && bump();\n"
      "  print(calls);\n"
      "}\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{0, 0, 1}));
}

TEST(Simulator, LoopsAndControlFlow) {
  SimResult R = runSource(
      "void main() {\n"
      "  int i; int s = 0;\n"
      "  for (i = 0; i < 10; i = i + 1) {\n"
      "    if (i == 3) { continue; }\n"
      "    if (i == 8) { break; }\n"
      "    s = s + i;\n"
      "  }\n"
      "  print(s);\n"
      "  i = 0;\n"
      "  do { i = i + 1; } while (i < 5);\n"
      "  print(i);\n"
      "  while (i > 0) { i = i - 2; }\n"
      "  print(i);\n"
      "}\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  // 0+1+2+4+5+6+7 = 25.
  EXPECT_EQ(R.Output, (std::vector<int64_t>{25, 5, -1}));
}

TEST(Simulator, RecursionDeep) {
  SimResult R = runSource(
      "int fib(int n) {\n"
      "  if (n < 2) { return n; }\n"
      "  return fib(n - 1) + fib(n - 2);\n"
      "}\n"
      "int depth(int n) {\n"
      "  if (n == 0) { return 0; }\n"
      "  return 1 + depth(n - 1);\n"
      "}\n"
      "void main() { print(fib(15)); print(depth(500)); }\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{610, 500}));
}

TEST(Simulator, PointersAndArrays) {
  SimResult R = runSource(
      "int a[10];\n"
      "void fill(int *p, int n, int v) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) { p[i] = v + i; }\n"
      "}\n"
      "void main() {\n"
      "  int x;\n"
      "  int *q;\n"
      "  fill(&a[0], 10, 100);\n"
      "  q = &a[5];\n"
      "  *q = 1;\n"
      "  q = q + 2;\n"
      "  x = *q;\n"
      "  print(a[5]); print(x); print(a[9]);\n"
      "  print(q - &a[0]);\n"
      "}\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{1, 107, 109, 7}));
}

TEST(Simulator, AmbiguousAliasStoreVisible) {
  // The paper's core hazard: a store through a pointer must be seen by a
  // subsequent direct reference (and vice versa) under every scheme.
  for (bool Era : {false, true}) {
    CompileOptions Options;
    Options.IRGen.ScalarLocalsInMemory = Era;
    SimResult R = runSource(
        "int g;\n"
        "void set(int *p, int v) { *p = v; }\n"
        "void main() {\n"
        "  g = 1;\n"
        "  set(&g, 42);\n"
        "  print(g);\n"
        "}\n",
        Options);
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_EQ(R.Output, (std::vector<int64_t>{42}));
    EXPECT_EQ(R.CoherenceViolations, 0u);
  }
}

TEST(Simulator, GlobalSharedAcrossCalls) {
  SimResult R = runSource(
      "int counter;\n"
      "void tick() { counter = counter + 1; }\n"
      "void main() {\n"
      "  int i;\n"
      "  counter = 0;\n"
      "  for (i = 0; i < 100; i = i + 1) { tick(); }\n"
      "  print(counter);\n"
      "}\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{100}));
  EXPECT_EQ(R.CoherenceViolations, 0u);
}

TEST(Simulator, DivisionByZeroReported) {
  SimResult R = runSource("void main() { int z = 0; print(1 / z); }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos);
}

TEST(Simulator, RemainderByZeroReported) {
  SimResult R = runSource("void main() { int z = 0; print(1 % z); }");
  EXPECT_FALSE(R.ok());
}

TEST(Simulator, StepLimitEnforced) {
  SimConfig Sim;
  Sim.MaxSteps = 1000;
  SimResult R = runSource("void main() { while (1) { } }", {}, Sim);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
  EXPECT_EQ(R.Steps, 1000u);
}

TEST(Simulator, OutOfRangeAddressReported) {
  SimResult R = runSource(
      "int a[2];\n"
      "void main() { int *p; p = &a[0]; p = p - 100000000; print(*p); }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("out of range"), std::string::npos);
}

TEST(Simulator, TraceRecording) {
  SimConfig Sim;
  Sim.RecordTrace = true;
  SimResult R = runSource(
      "int g; void main() { g = 1; print(g); }", {}, Sim);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.Trace.empty());
  // The trace must contain the store and load of g.
  unsigned Writes = 0, Reads = 0;
  for (const TraceEvent &E : R.Trace)
    (E.IsWrite ? Writes : Reads) += 1;
  EXPECT_GE(Writes, 1u);
  EXPECT_GE(Reads, 1u);
}

TEST(Simulator, ParanoidCleanOnAllSchemes) {
  const char *Source =
      "int a[32]; int g;\n"
      "int sum(int *p, int n) {\n"
      "  int i; int s = 0;\n"
      "  for (i = 0; i < n; i = i + 1) { s = s + p[i]; }\n"
      "  return s;\n"
      "}\n"
      "void main() {\n"
      "  int i;\n"
      "  for (i = 0; i < 32; i = i + 1) { a[i] = i; }\n"
      "  g = sum(&a[0], 32);\n"
      "  print(g);\n"
      "}\n";
  for (auto Scheme :
       {UnifiedOptions::conventional(), UnifiedOptions::bypassOnly(),
        UnifiedOptions::deadTagOnly(), UnifiedOptions::unified(),
        UnifiedOptions::reuseAware()}) {
    CompileOptions Options;
    Options.Scheme = Scheme;
    SimResult R = runSource(Source, Options);
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_EQ(R.Output, (std::vector<int64_t>{496}));
    EXPECT_EQ(R.CoherenceViolations, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Engine differential: the predecoded threaded-dispatch engine and the
// reference switch interpreter must produce bit-identical SimResults on
// every path — success, every error, and the step limit — including the
// recorded trace and all counters.
//===----------------------------------------------------------------------===//

namespace {

void expectSameSimResult(const SimResult &P, const SimResult &S,
                         const std::string &What) {
  EXPECT_EQ(P.Halted, S.Halted) << What;
  EXPECT_EQ(P.Error, S.Error) << What;
  EXPECT_EQ(P.Steps, S.Steps) << What;
  EXPECT_EQ(P.Output, S.Output) << What;
  EXPECT_EQ(P.Cache, S.Cache) << What;
  EXPECT_EQ(P.ICache, S.ICache) << What;
  EXPECT_EQ(P.InstructionFetches, S.InstructionFetches) << What;
  EXPECT_EQ(P.BypassTransitions, S.BypassTransitions) << What;
  EXPECT_EQ(P.CoherenceViolations, S.CoherenceViolations) << What;
  EXPECT_EQ(P.Refs.Unambiguous, S.Refs.Unambiguous) << What;
  EXPECT_EQ(P.Refs.Ambiguous, S.Refs.Ambiguous) << What;
  EXPECT_EQ(P.Refs.Spill, S.Refs.Spill) << What;
  EXPECT_EQ(P.Refs.Unknown, S.Refs.Unknown) << What;
  EXPECT_EQ(P.Refs.Bypassed, S.Refs.Bypassed) << What;
  EXPECT_EQ(P.Refs.LastRefTagged, S.Refs.LastRefTagged) << What;
  ASSERT_EQ(P.Trace.size(), S.Trace.size()) << What;
  for (size_t I = 0; I != P.Trace.size(); ++I) {
    EXPECT_EQ(P.Trace[I].Addr, S.Trace[I].Addr) << What << " event " << I;
    EXPECT_EQ(P.Trace[I].IsWrite, S.Trace[I].IsWrite)
        << What << " event " << I;
    EXPECT_EQ(P.Trace[I].Info.Bypass, S.Trace[I].Info.Bypass)
        << What << " event " << I;
    EXPECT_EQ(P.Trace[I].Info.LastRef, S.Trace[I].Info.LastRef)
        << What << " event " << I;
  }
}

/// Compiles \p Source once per engine and asserts identical results.
void expectEnginesAgree(const std::string &Source, SimConfig Sim = {},
                        const CompileOptions &Options = {}) {
  Sim.RecordTrace = true;
  Sim.Engine = SimEngine::Predecoded;
  SimResult P = runSource(Source, Options, Sim);
  Sim.Engine = SimEngine::Switch;
  SimResult S = runSource(Source, Options, Sim);
  expectSameSimResult(P, S, Source.substr(0, 40));
}

/// Runs a raw machine program under both engines.
void expectEnginesAgreeRaw(const MachineProgram &Prog, SimConfig Sim,
                           const std::string &What) {
  Sim.RecordTrace = true;
  Sim.Engine = SimEngine::Predecoded;
  SimResult P = Simulator(Sim).run(Prog);
  Sim.Engine = SimEngine::Switch;
  SimResult S = Simulator(Sim).run(Prog);
  expectSameSimResult(P, S, What);
}

} // namespace

TEST(EngineDifferential, ArithmeticErrorsIdentical) {
  expectEnginesAgree("void main() { int z = 0; print(7 / z); }");
  expectEnginesAgree("void main() { int z = 0; print(7 % z); }");
  // Errors mid-loop: the erroring instruction must land on the same
  // step count (it sits mid-run for the predecoded engine).
  expectEnginesAgree("void main() {\n"
                     "  int i; int s = 0;\n"
                     "  for (i = 5; i >= 0 - 1; i = i - 1) {\n"
                     "    s = s + 100 / i;\n"
                     "  }\n"
                     "  print(s);\n"
                     "}\n");
}

TEST(EngineDifferential, OutOfRangeAccessIdentical) {
  expectEnginesAgree("int a[4];\n"
                     "void main() { int *p = &a[0]; print(p[99999999]); }");
  expectEnginesAgree("int a[4];\n"
                     "void main() { int *p = &a[0]; p[99999999] = 1; }");
  // Negative effective address.
  expectEnginesAgree("int a[4];\n"
                     "void main() { int *p = &a[0]; print(p[0-99999999]); }");
}

TEST(EngineDifferential, StepLimitIdentical) {
  const char *Spin = "void main() { int i;\n"
                     "  for (i = 0; i < 1000000; i = i + 1) {}\n"
                     "}\n";
  // Sweep limits so exhaustion lands on every position within a run
  // (run boundaries are where the predecoded engine hoists the check).
  for (uint64_t Limit : {0ull, 1ull, 2ull, 999ull, 1000ull, 1001ull,
                         1002ull, 1003ull, 5000ull}) {
    SimConfig Sim;
    Sim.MaxSteps = Limit;
    expectEnginesAgree(Spin, Sim);
  }
}

TEST(EngineDifferential, PCOffProgramIdentical) {
  // Control flow running past the last instruction (no Halt).
  MachineProgram FallOff;
  {
    MInst Li;
    Li.Op = MOpcode::Li;
    Li.Rd = 0;
    Li.Imm = 42;
    Li.UseImm = true;
    FallOff.Code = {Li};
  }
  SimConfig Sim;
  expectEnginesAgreeRaw(FallOff, Sim, "fall off end");

  // A jump landing far outside the program.
  MachineProgram WildJmp = FallOff;
  {
    MInst J;
    J.Op = MOpcode::Jmp;
    J.Target = 1000;
    WildJmp.Code.push_back(J);
  }
  expectEnginesAgreeRaw(WildJmp, Sim, "wild jump");
}

TEST(EngineDifferential, RetCodeDeadHintICacheIdentical) {
  // Once-executed functions get CodeDeadHint on their final Ret; with
  // the I-cache modeled, that return invalidates the function's code
  // lines (Ret/RetDead split in the predecoded engine).
  const char *Source = "int init(int n) { return n * 3; }\n"
                       "void main() {\n"
                       "  int i; int s = init(7);\n"
                       "  for (i = 0; i < 20; i = i + 1) { s = s + i; }\n"
                       "  print(s);\n"
                       "}\n";
  SimConfig Sim;
  Sim.ModelICache = true;
  Sim.ICache.NumLines = 8;
  Sim.ICache.Assoc = 2;
  Sim.ICache.LineWords = 4;
  expectEnginesAgree(Source, Sim);
  // The hint path must actually fire.
  Sim.RecordTrace = false;
  SimResult R = runSource(Source, {}, Sim);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_GT(R.ICache.DeadFrees, 0u);
}

TEST(EngineDifferential, WorkloadsWithHintsIdentical) {
  const char *Source = "int a[64];\n"
                       "int sum(int *p, int n) {\n"
                       "  int i; int s = 0;\n"
                       "  for (i = 0; i < n; i = i + 1) { s = s + p[i]; }\n"
                       "  return s;\n"
                       "}\n"
                       "void main() {\n"
                       "  int i;\n"
                       "  for (i = 0; i < 64; i = i + 1) { a[i] = i * i; }\n"
                       "  print(sum(&a[0], 64));\n"
                       "}\n";
  for (auto Scheme :
       {UnifiedOptions::conventional(), UnifiedOptions::unified(),
        UnifiedOptions::reuseAware()}) {
    CompileOptions Options;
    Options.Scheme = Scheme;
    expectEnginesAgree(Source, {}, Options);
  }
}

//===----------------------------------------------------------------------===//
// The coherence detector (DESIGN.md section 8): an unsound hint must
// surface as a CoherenceViolation on every live cache path.
//===----------------------------------------------------------------------===//

namespace {

/// Stores 42 to word 10 with an (unsound) last-reference tag, then loads
/// the same word back and prints it. The dead store drops the dirty line
/// without a write-back, so the load delivers memory's stale 0 while the
/// shadow memory holds 42.
MachineProgram unsoundLastRefProgram() {
  MachineProgram Prog;
  MInst Li;
  Li.Op = MOpcode::Li;
  Li.Rd = 1;
  Li.Imm = 42;
  Li.UseImm = true;
  MInst St;
  St.Op = MOpcode::St;
  St.Rs1 = mreg::None;
  St.Rs2 = 1;
  St.Imm = 10;
  St.MemInfo.LastRef = true;
  MInst Ld;
  Ld.Op = MOpcode::Ld;
  Ld.Rd = 2;
  Ld.Rs1 = mreg::None;
  Ld.Imm = 10;
  MInst Print;
  Print.Op = MOpcode::Print;
  Print.Rs1 = 2;
  MInst Halt;
  Halt.Op = MOpcode::Halt;
  Prog.Code = {Li, St, Ld, Print, Halt};
  Prog.StackTop = 64;
  return Prog;
}

} // namespace

TEST(CoherenceDetector, UnsoundLastRefStoreIsCaughtOnEveryCachePath) {
  CacheConfig FastPath; // 128 lines, 2-way, LRU, one-word: TwoWayWB1Cache.
  CacheConfig Generic = FastPath;
  Generic.Assoc = 4;
  for (const CacheConfig &Cache : {FastPath, Generic}) {
    for (SimEngine Engine : {SimEngine::Predecoded, SimEngine::Switch}) {
      SimConfig Sim;
      Sim.Cache = Cache;
      Sim.Engine = Engine;
      SimResult R = Simulator(Sim).run(unsoundLastRefProgram());
      ASSERT_TRUE(R.ok()) << R.Error;
      EXPECT_EQ(R.Output, (std::vector<int64_t>{0}))
          << "assoc " << Cache.Assoc;
      EXPECT_EQ(R.CoherenceViolations, 1u) << "assoc " << Cache.Assoc;
      EXPECT_EQ(R.Cache.DeadWriteBacksAvoided, 1u);
    }
  }
}

TEST(Simulator, InvalidCacheConfigurationIsAnError) {
  // Geometries no cache can build end in the result's Error, on both
  // engines, without running (or aborting, or hitting UB when asserts
  // are compiled out).
  CacheConfig Invalid[3];
  Invalid[0].Assoc = 3;        // Does not divide 128 lines.
  Invalid[1].NumLines = 0;     // No lines at all.
  Invalid[2].LineWords = 8192; // Over the 4096-word line limit.
  auto expectInvalid = [](const SimConfig &Sim, const char *Needle) {
    for (SimEngine Engine : {SimEngine::Predecoded, SimEngine::Switch}) {
      SimConfig S = Sim;
      S.Engine = Engine;
      SimResult R = Simulator(S).run(unsoundLastRefProgram());
      EXPECT_FALSE(R.ok());
      EXPECT_EQ(R.Steps, 0u);
      EXPECT_EQ(R.Error.rfind("invalid cache configuration: ", 0), 0u)
          << R.Error;
      EXPECT_NE(R.Error.find(Needle), std::string::npos) << R.Error;
    }
  };
  for (const CacheConfig &Bad : Invalid) {
    SimConfig Data;
    Data.Cache = Bad;
    expectInvalid(Data, "");
    SimConfig Instr;
    Instr.ModelICache = true;
    Instr.ICache = Bad;
    expectInvalid(Instr, "I-cache");
  }
  SimConfig Min;
  Min.Cache.Policy = CachePolicy::MIN;
  expectInvalid(Min, "replay-only");
  SimConfig Bypass;
  Bypass.ModelICache = true;
  Bypass.ICache.Policy = CachePolicy::LivenessBypass;
  expectInvalid(Bypass, "I-cache");
}

TEST(Simulator, LiveConservationCheckedOnEveryRun) {
  // Every live run — the two-way fast path and the generic model, under
  // both engines — has its data-cache counters checked against the
  // conservation laws, and says so in the check.live.* counters.
  telemetry::setEnabled(true);
  telemetry::reset();
  auto Counter = [](const char *Name) -> uint64_t {
    const std::string JSON = telemetry::snapshotJSON();
    const std::string Key = std::string("\"") + Name + "\": ";
    const size_t At = JSON.find(Key);
    return At == std::string::npos
               ? 0
               : std::strtoull(JSON.c_str() + At + Key.size(), nullptr, 10);
  };
  const Workload *W = findWorkload("Sieve");
  ASSERT_NE(W, nullptr);
  CacheConfig Generic;
  Generic.Assoc = 4;
  for (const CacheConfig &Cache : {CacheConfig(), Generic})
    for (SimEngine Engine : {SimEngine::Predecoded, SimEngine::Switch}) {
      SimConfig Sim;
      Sim.Cache = Cache;
      Sim.Engine = Engine;
      SimResult R = runSource(W->Source, {}, Sim);
      EXPECT_TRUE(R.ok()) << R.Error;
    }
  EXPECT_EQ(Counter("check.live.runs"), 4u);
  EXPECT_EQ(Counter("check.live.runs"), Counter("sim.runs"));
  EXPECT_EQ(Counter("check.live.violations"), 0u);
  telemetry::setEnabled(false);
  telemetry::reset();
}

//===----------------------------------------------------------------------===//
// Pin of the generic live cache path: all six paper workloads, paranoid,
// on geometries the two-way fast path does not take, compared field by
// field against tests/golden/generic_live_pin.txt. On a mismatch the
// computed lines are written to generic_live_pin.<Name>.actual in the
// working directory.
//===----------------------------------------------------------------------===//

namespace {

struct PinGeometry {
  const char *Name;
  CacheConfig Cache;
  bool ICache = false;
  bool Attribution = false;
};

CacheConfig pinCache(uint32_t Assoc, uint32_t LineWords, CachePolicy Policy,
                     WritePolicy Write = WritePolicy::WriteBack) {
  CacheConfig C;
  C.NumLines = 64;
  C.Assoc = Assoc;
  C.LineWords = LineWords;
  C.Policy = Policy;
  C.Write = Write;
  return C;
}

std::ostream &operator<<(std::ostream &OS, const PinGeometry &G) {
  return OS << G.Name;
}

void printStats(std::ostream &OS, const CacheStats &S) {
  const uint64_t Fields[] = {
      S.Reads,       S.Writes,     S.ReadHits,
      S.WriteHits,   S.Fills,      S.FillWords,
      S.WriteBacks,  S.WriteBackWords, S.Evictions,
      S.DeadFrees,   S.DeadWriteBacksAvoided, S.BypassReads,
      S.BypassWrites, S.BypassHitMigrations, S.WriteThroughWords,
      S.FlushWriteBackWords};
  static_assert(sizeof(Fields) == sizeof(CacheStats),
                "the pin must cover every CacheStats field");
  for (size_t I = 0; I != std::size(Fields); ++I)
    OS << (I ? "," : "") << Fields[I];
}

/// FNV-1a over a sequence of 64-bit values.
struct Fnv {
  uint64_t H = 0xcbf29ce484222325ull;
  void add(uint64_t V) {
    for (int B = 0; B != 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
};

std::string pinLine(const PinGeometry &G, const Workload &W) {
  CompileOptions Options; // Unified scheme: bypass, dead and code-dead tags.
  Options.IRGen.ScalarLocalsInMemory = true;
  DiagnosticEngine Diags;
  CompileResult C = compileProgram(W.Source, Options, Diags);
  EXPECT_TRUE(C.Ok) << W.Name << ": " << Diags.str();

  SimConfig Sim;
  Sim.Cache = G.Cache;
  Sim.ModelICache = G.ICache;
  RefAttribution Attr(static_cast<uint32_t>(C.Program.RefTable.size()));
  if (G.Attribution)
    Sim.Attribution = &Attr;
  SimResult R = Simulator(Sim).run(C.Program);
  EXPECT_TRUE(R.ok()) << G.Name << " " << W.Name << ": " << R.Error;

  Fnv Out;
  for (int64_t V : R.Output)
    Out.add(static_cast<uint64_t>(V));
  std::ostringstream OS;
  OS << G.Name << " " << W.Name << " steps=" << R.Steps
     << " out=" << R.Output.size() << ":" << std::hex << Out.H << std::dec
     << " coherence=" << R.CoherenceViolations << " cache=";
  printStats(OS, R.Cache);
  OS << " icache=";
  printStats(OS, R.ICache);
  OS << " fetches=" << R.InstructionFetches;
  if (G.Attribution) {
    Fnv Table;
    for (uint32_t Ref = 0; Ref <= Attr.numRefs(); ++Ref) {
      const RefCounters &Row = Attr.row(Ref);
      for (uint64_t V : {Row.Hits, Row.Misses, Row.Bypasses,
                         Row.DeadWriteBacksSuppressed, Row.EvictionsCaused,
                         Row.EvictionsSuffered})
        Table.add(V);
    }
    OS << " attribution=" << std::hex << Table.H << std::dec;
  }
  return OS.str();
}

class GenericLivePin : public ::testing::TestWithParam<PinGeometry> {};

} // namespace

TEST_P(GenericLivePin, MatchesGolden) {
  const PinGeometry &G = GetParam();
  if (!G.ICache) {
    ASSERT_FALSE(TwoWayWB1Cache::eligible(G.Cache))
        << "the pin must exercise the generic data cache";
  }

  std::vector<std::string> Actual;
  for (const Workload &W : paperWorkloads())
    Actual.push_back(pinLine(G, W));

  std::vector<std::string> Expected;
  std::ifstream Golden(URCM_GOLDEN_DIR "/generic_live_pin.txt");
  EXPECT_TRUE(Golden) << "missing " URCM_GOLDEN_DIR "/generic_live_pin.txt";
  const std::string Prefix = std::string(G.Name) + " ";
  for (std::string Line; std::getline(Golden, Line);)
    if (Line.compare(0, Prefix.size(), Prefix) == 0)
      Expected.push_back(Line);
  if (Actual != Expected) {
    const std::string Path =
        std::string("generic_live_pin.") + G.Name + ".actual";
    std::ofstream Out(Path);
    for (const std::string &Line : Actual)
      Out << Line << "\n";
    ADD_FAILURE() << "generic live run drifted from the golden file; "
                     "computed lines written to "
                  << Path;
    for (size_t I = 0; I != std::min(Actual.size(), Expected.size()); ++I)
      EXPECT_EQ(Actual[I], Expected[I]);
    EXPECT_EQ(Actual.size(), Expected.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GenericLivePin,
    ::testing::Values(
        PinGeometry{"LRU4Way", pinCache(4, 1, CachePolicy::LRU), false,
                    /*Attribution=*/true},
        PinGeometry{"LRU4WordLines", pinCache(2, 4, CachePolicy::LRU)},
        PinGeometry{"FIFO", pinCache(2, 1, CachePolicy::FIFO)},
        PinGeometry{"Random", pinCache(2, 1, CachePolicy::Random)},
        PinGeometry{"TreePLRU4Way", pinCache(4, 1, CachePolicy::TreePLRU)},
        PinGeometry{"SRRIP", pinCache(4, 1, CachePolicy::SRRIP)},
        PinGeometry{"WriteThrough", pinCache(2, 1, CachePolicy::LRU,
                                             WritePolicy::WriteThrough)},
        PinGeometry{"ICacheCodeDead", pinCache(2, 1, CachePolicy::LRU),
                    /*ICache=*/true}),
    [](const ::testing::TestParamInfo<PinGeometry> &Info) {
      return std::string(Info.param.Name);
    });

//===- ProgramGenerator.h - Random MC programs for tests --------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates random-but-valid MC programs from a grammar that always
/// terminates: loops are bounded counters, recursion has a strictly
/// decreasing guard. fuzz_test runs them differentially through every
/// execution path; dataflow_test feeds them to the analysis oracles.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_TESTS_PROGRAMGENERATOR_H
#define URCM_TESTS_PROGRAMGENERATOR_H

#include "urcm/support/RNG.h"
#include "urcm/support/StringUtils.h"

#include <string>

namespace urcm {
namespace testing {

/// Generates one random MC program.
class ProgramGenerator {
public:
  explicit ProgramGenerator(uint64_t Seed) : Rng(Seed) {}

  std::string generate() {
    Out.clear();
    // Globals: a few scalars and arrays.
    NumGlobalScalars = 2 + Rng.nextBelow(3);
    NumGlobalArrays = 1 + Rng.nextBelow(2);
    for (unsigned G = 0; G != NumGlobalScalars; ++G)
      Out += formatString("int g%u;\n", G);
    for (unsigned A = 0; A != NumGlobalArrays; ++A)
      Out += formatString("int arr%u[%u];\n", A, 8 + 8 * A);

    // A helper function with scalar and pointer parameters.
    Out += "int helper(int x, int *p) {\n"
           "  int acc = 0;\n";
    emitStmts(2 + Rng.nextBelow(3), /*Depth=*/1, /*InHelper=*/true);
    Out += "  acc = acc + x + *p;\n"
           "  return acc;\n"
           "}\n";

    // Bounded recursion.
    Out += "int rec(int n) {\n"
           "  if (n <= 0) { return 1; }\n"
           "  return n + rec(n - 1);\n"
           "}\n";

    Out += "void main() {\n"
           "  int acc = 0;\n"
           "  int t;\n";
    emitStmts(4 + Rng.nextBelow(5), /*Depth=*/1, /*InHelper=*/false);
    Out += formatString("  t = helper(%u, &g0);\n",
                        static_cast<unsigned>(Rng.nextBelow(50)));
    Out += "  acc = acc + t;\n";
    Out += formatString("  acc = acc + rec(%u);\n",
                        static_cast<unsigned>(3 + Rng.nextBelow(8)));
    for (unsigned G = 0; G != NumGlobalScalars; ++G)
      Out += formatString("  print(g%u);\n", G);
    Out += "  print(acc);\n";
    for (unsigned A = 0; A != NumGlobalArrays; ++A)
      Out += formatString("  print(arr%u[%u]);\n", A,
                          static_cast<unsigned>(Rng.nextBelow(8)));
    Out += "}\n";
    return Out;
  }

private:
  std::string scalarLValue(bool InHelper) {
    uint64_t Roll = Rng.nextBelow(3);
    if (Roll == 0)
      return formatString("g%u",
                          static_cast<unsigned>(
                              Rng.nextBelow(NumGlobalScalars)));
    if (Roll == 1)
      return InHelper ? "acc" : "acc";
    return formatString("arr%u[%u]",
                        static_cast<unsigned>(
                            Rng.nextBelow(NumGlobalArrays)),
                        static_cast<unsigned>(Rng.nextBelow(8)));
  }

  std::string expr(bool InHelper, unsigned Depth) {
    if (Depth == 0 || Rng.nextBelow(2) == 0) {
      uint64_t Roll = Rng.nextBelow(4);
      if (Roll == 0)
        return formatString("%d",
                            static_cast<int>(Rng.nextBelow(100)) - 50);
      if (Roll == 1)
        return formatString(
            "g%u",
            static_cast<unsigned>(Rng.nextBelow(NumGlobalScalars)));
      if (Roll == 2)
        return formatString(
            "arr%u[%u]",
            static_cast<unsigned>(Rng.nextBelow(NumGlobalArrays)),
            static_cast<unsigned>(Rng.nextBelow(8)));
      return InHelper ? "x" : "acc";
    }
    const char *Ops[] = {"+", "-", "*", "&", "|", "^"};
    return "(" + expr(InHelper, Depth - 1) + " " +
           Ops[Rng.nextBelow(6)] + " " + expr(InHelper, Depth - 1) + ")";
  }

  void emitStmts(unsigned Count, unsigned Depth, bool InHelper) {
    for (unsigned S = 0; S != Count; ++S) {
      uint64_t Roll = Rng.nextBelow(10);
      if (Roll < 4) {
        Out += "  " + scalarLValue(InHelper) + " = " +
               expr(InHelper, 2) + ";\n";
      } else if (Roll < 6 && Depth < 3) {
        // Bounded counting loop over a fresh variable name.
        std::string Var = formatString("i%u", NextLoopVar++);
        Out += formatString("  { int %s;\n  for (%s = 0; %s < %u; %s = "
                            "%s + 1) {\n",
                            Var.c_str(), Var.c_str(), Var.c_str(),
                            static_cast<unsigned>(2 + Rng.nextBelow(6)),
                            Var.c_str(), Var.c_str());
        emitStmts(1 + Rng.nextBelow(2), Depth + 1, InHelper);
        Out += "  } }\n";
      } else if (Roll < 8) {
        Out += "  if (" + expr(InHelper, 1) + " > " + expr(InHelper, 1) +
               ") {\n";
        emitStmts(1, Depth + 1, InHelper);
        Out += "  } else {\n";
        emitStmts(1, Depth + 1, InHelper);
        Out += "  }\n";
      } else {
        Out += "  " + scalarLValue(InHelper) +
               " = " + scalarLValue(InHelper) + " + 1;\n";
      }
    }
  }

  SplitMix64 Rng;
  std::string Out;
  unsigned NumGlobalScalars = 0;
  unsigned NumGlobalArrays = 0;
  unsigned NextLoopVar = 0;
};

} // namespace testing
} // namespace urcm

#endif // URCM_TESTS_PROGRAMGENERATOR_H

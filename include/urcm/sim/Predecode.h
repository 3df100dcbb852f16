//===- urcm/sim/Predecode.h - Execution-ready machine code ------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The predecoded fast path of the functional simulator. A one-shot
/// pass over a linked MachineProgram resolves every MInst into a dense,
/// execution-ready PInst:
///
///  * immediate-vs-register ALU variants are flattened into distinct
///    predecoded opcodes (the per-instruction `UseImm ?` select
///    disappears);
///  * a missing load/store base register (mreg::None) is rewritten to a
///    constant-zero register slot appended to the register file, so the
///    effective-address path is branch-free;
///  * Ret splits into Ret / RetDead so the code-dead-hint test leaves
///    the hot return path;
///  * straight-line run lengths (computeRunLengths) let the executor
///    hoist the step-limit and PC-bounds checks out of the
///    per-instruction loop: they run once per run, not once per
///    instruction.
///
/// The executor itself lives in Simulator.cpp (threaded computed-goto
/// dispatch where the compiler supports it, a switch loop otherwise)
/// and produces bit-identical SimResults to the legacy switch
/// interpreter; tests/simulator_test.cpp and tests/fuzz_test.cpp assert
/// the equivalence differentially.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_PREDECODE_H
#define URCM_SIM_PREDECODE_H

#include "urcm/codegen/MachineIR.h"

namespace urcm {

/// The predecoded opcode set: one entry per executable form. Kept as an
/// X-macro so the enum, the handler table of the threaded dispatcher
/// and the switch fallback can never drift apart.
#define URCM_PREDECODED_OPS(X)                                               \
  X(AddRR) X(AddRI) X(SubRR) X(SubRI) X(MulRR) X(MulRI) X(DivRR) X(DivRI)    \
  X(RemRR) X(RemRI) X(AndRR) X(AndRI) X(OrRR) X(OrRI) X(XorRR) X(XorRI)      \
  X(ShlRR) X(ShlRI) X(ShrRR) X(ShrRI) X(SltRR) X(SltRI) X(SleRR) X(SleRI)    \
  X(SgtRR) X(SgtRI) X(SgeRR) X(SgeRI) X(SeqRR) X(SeqRI) X(SneRR) X(SneRI)    \
  X(Neg) X(Not) X(Mov) X(Li) X(Ld) X(St)                                     \
  X(Jmp) X(Bnz) X(Call) X(Ret) X(RetDead) X(Print) X(Halt)

enum class POp : uint8_t {
#define URCM_POP_ENUM(Name) Name,
  URCM_PREDECODED_OPS(URCM_POP_ENUM)
#undef URCM_POP_ENUM
};

namespace preg {
/// The constant-zero register slot (one past the architectural file);
/// predecode rewrites absent base registers to it.
inline constexpr uint32_t Zero = mreg::NumRegs;
inline constexpr uint32_t NumSlots = mreg::NumRegs + 1;
} // namespace preg

/// One execution-ready instruction. Slot meaning per opcode family:
///  * binary RR: A=dest, B=lhs, C=rhs; binary RI: A=dest, B=lhs, Imm;
///  * Neg/Not/Mov: A=dest, B=src; Li: A=dest, Imm;
///  * Ld: A=dest, B=base (preg::Zero when absent), Imm=offset;
///  * St: B=base, C=value, Imm=offset;
///  * Bnz: B=condition, Target; Print: B=source;
///  * Jmp/Call: Target; RetDead: [Target, Target+Imm) is the dead code
///    range.
struct PInst {
  POp Op;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  uint32_t Target = 0;
  int64_t Imm = 0;
  /// Hint bits + classification (Ld/St only).
  MemRefInfo Mem;
};

/// A MachineProgram resolved for execution: PInsts parallel to the
/// original code (index-for-index, so dynamic Ret targets resolve
/// without translation) plus the straight-line run lengths and the
/// program facts the executor needs (a PredecodedProgram can be run
/// without the MachineProgram it came from).
struct PredecodedProgram {
  std::vector<PInst> Insts;
  std::vector<uint32_t> RunLen;
  uint32_t EntryIndex = 0;
  uint64_t StackTop = 0;

  uint64_t codeSize() const { return Insts.size(); }
};

/// Builds the execution-ready form of \p Prog. Cost is linear in the
/// code size — negligible against any simulation that runs more than a
/// handful of steps.
PredecodedProgram predecode(const MachineProgram &Prog);

/// Does nothing: superinstruction fusion was removed (DESIGN.md §17).
/// It exists only for the two calls in urcmbench/urcm_bench.cpp and
/// goes away with the next change to the benchmark.
inline void fusePredecoded(PredecodedProgram &) {}

} // namespace urcm

#endif // URCM_SIM_PREDECODE_H

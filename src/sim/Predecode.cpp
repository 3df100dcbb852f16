//===- Predecode.cpp - Execution-ready machine code ----------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/Predecode.h"

#include <cassert>

using namespace urcm;

namespace {

/// Register slot for an operand the opcode reads: must name a real
/// register (reading a garbage slot in the legacy interpreter would be
/// out-of-bounds UB, so valid programs always satisfy this).
uint16_t readSlot(uint32_t Reg) {
  assert(Reg < mreg::NumRegs && "operand register out of range");
  return static_cast<uint16_t>(Reg);
}

/// Register slot for a load/store base: mreg::None means "no base",
/// which the executor reads as the constant-zero slot.
uint16_t baseSlot(uint32_t Reg) {
  if (Reg == mreg::None)
    return static_cast<uint16_t>(preg::Zero);
  return readSlot(Reg);
}

POp binaryOp(MOpcode Op, bool UseImm) {
  switch (Op) {
#define URCM_BIN(M)                                                          \
  case MOpcode::M:                                                           \
    return UseImm ? POp::M##RI : POp::M##RR;
    URCM_BIN(Add)
    URCM_BIN(Sub)
    URCM_BIN(Mul)
    URCM_BIN(Div)
    URCM_BIN(Rem)
    URCM_BIN(And)
    URCM_BIN(Or)
    URCM_BIN(Xor)
    URCM_BIN(Shl)
    URCM_BIN(Shr)
    URCM_BIN(Slt)
    URCM_BIN(Sle)
    URCM_BIN(Sgt)
    URCM_BIN(Sge)
    URCM_BIN(Seq)
    URCM_BIN(Sne)
#undef URCM_BIN
  default:
    assert(false && "not a binary ALU opcode");
    return POp::Halt;
  }
}

} // namespace

PredecodedProgram urcm::predecode(const MachineProgram &Prog) {
  PredecodedProgram PP;
  PP.EntryIndex = Prog.EntryIndex;
  PP.StackTop = Prog.StackTop;
  PP.RunLen = computeRunLengths(Prog.Code);
  PP.Insts.reserve(Prog.Code.size());

  for (const MInst &I : Prog.Code) {
    PInst P;
    switch (I.Op) {
    case MOpcode::Add:
    case MOpcode::Sub:
    case MOpcode::Mul:
    case MOpcode::Div:
    case MOpcode::Rem:
    case MOpcode::And:
    case MOpcode::Or:
    case MOpcode::Xor:
    case MOpcode::Shl:
    case MOpcode::Shr:
    case MOpcode::Slt:
    case MOpcode::Sle:
    case MOpcode::Sgt:
    case MOpcode::Sge:
    case MOpcode::Seq:
    case MOpcode::Sne:
      P.Op = binaryOp(I.Op, I.UseImm);
      P.A = readSlot(I.Rd);
      P.B = readSlot(I.Rs1);
      if (I.UseImm)
        P.Imm = I.Imm;
      else
        P.C = readSlot(I.Rs2);
      break;
    case MOpcode::Neg:
    case MOpcode::Not:
    case MOpcode::Mov:
      P.Op = I.Op == MOpcode::Neg   ? POp::Neg
             : I.Op == MOpcode::Not ? POp::Not
                                    : POp::Mov;
      P.A = readSlot(I.Rd);
      P.B = readSlot(I.Rs1);
      break;
    case MOpcode::Li:
      P.Op = POp::Li;
      P.A = readSlot(I.Rd);
      P.Imm = I.Imm;
      break;
    case MOpcode::Ld:
      P.Op = POp::Ld;
      P.A = readSlot(I.Rd);
      P.B = baseSlot(I.Rs1);
      P.Imm = I.Imm;
      P.Mem = I.MemInfo;
      break;
    case MOpcode::St:
      P.Op = POp::St;
      P.B = baseSlot(I.Rs1);
      P.C = readSlot(I.Rs2);
      P.Imm = I.Imm;
      P.Mem = I.MemInfo;
      break;
    case MOpcode::Jmp:
      P.Op = POp::Jmp;
      P.Target = I.Target;
      break;
    case MOpcode::Bnz:
      P.Op = POp::Bnz;
      P.B = readSlot(I.Rs1);
      P.Target = I.Target;
      break;
    case MOpcode::Call:
      P.Op = POp::Call;
      P.Target = I.Target;
      break;
    case MOpcode::Ret:
      P.Op = I.CodeDeadHint ? POp::RetDead : POp::Ret;
      P.Target = I.Target;
      P.Imm = I.Imm;
      break;
    case MOpcode::Print:
      P.Op = POp::Print;
      P.B = readSlot(I.Rs1);
      break;
    case MOpcode::Halt:
      P.Op = POp::Halt;
      break;
    }
    PP.Insts.push_back(P);
  }
  return PP;
}

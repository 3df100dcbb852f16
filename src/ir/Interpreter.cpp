//===- Interpreter.cpp - Direct IR execution -----------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/ir/Interpreter.h"

#include "urcm/support/IntOps.h"
#include "urcm/support/StringUtils.h"
#include "urcm/support/ZeroedWords.h"

#include <cassert>

using namespace urcm;

namespace {

/// Calls nest this deep at most. callFunction recurses on the native
/// stack, so runaway recursion must end in an error before it overflows
/// that stack (a few hundred bytes per level; more under sanitizers).
constexpr uint32_t MaxCallDepth = 4096;

class Interpreter {
public:
  Interpreter(const IRModule &M, const InterpConfig &Config)
      : M(M), Config(Config), Memory(Config.StackTop + 64) {
    // Lay out globals exactly like the code generator does.
    GlobalAddress.reserve(M.globals().size());
    uint64_t Addr = Config.GlobalBase;
    for (const IRGlobal &G : M.globals()) {
      GlobalAddress.push_back(Addr);
      Addr += G.SizeWords;
    }
  }

  InterpResult run() {
    const IRFunction *Main = M.findFunction("main");
    if (!Main || Main->numParams() != 0) {
      Result.Error = "module has no zero-argument main";
      return std::move(Result);
    }
    SP = Config.StackTop;
    callFunction(*Main, {});
    if (Result.Error.empty())
      Result.Finished = true;
    return std::move(Result);
  }

private:
  void fail(const std::string &Message) {
    if (Result.Error.empty())
      Result.Error = Message;
  }

  bool memCheck(int64_t Addr) {
    if (Addr < 0 || static_cast<uint64_t>(Addr) >= Memory.size()) {
      fail(formatString("memory access at %lld out of range",
                        static_cast<long long>(Addr)));
      return false;
    }
    return true;
  }

  /// One activation record.
  struct Frame {
    const IRFunction *F;
    std::vector<int64_t> Regs;
    std::vector<uint64_t> SlotAddress;
    uint64_t SavedSP;
  };

  /// Frame layout: slots allocated contiguously below the caller's SP.
  Frame pushFrame(const IRFunction &F) {
    Frame Fr;
    Fr.F = &F;
    Fr.Regs.assign(std::max<uint32_t>(F.numRegs(), 1), 0);
    Fr.SavedSP = SP;
    uint64_t Size = 0;
    for (const IRFrameSlot &S : F.frameSlots())
      Size += S.SizeWords;
    if (Size > SP) {
      fail("stack overflow");
      Size = 0;
    }
    SP -= Size;
    uint64_t Offset = SP;
    for (const IRFrameSlot &S : F.frameSlots()) {
      Fr.SlotAddress.push_back(Offset);
      Offset += S.SizeWords;
    }
    return Fr;
  }

  int64_t operandValue(const Frame &Fr, const Operand &O) {
    switch (O.kind()) {
    case Operand::Kind::Reg:
      assert(O.getOffset() == 0 && "address-mode operand in value context");
      return Fr.Regs[O.getReg()];
    case Operand::Kind::Imm:
      return O.getImm();
    case Operand::Kind::Global:
      return static_cast<int64_t>(GlobalAddress[O.getId()]) +
             O.getOffset();
    case Operand::Kind::Frame:
      return static_cast<int64_t>(Fr.SlotAddress[O.getId()]) +
             O.getOffset();
    default:
      fail("invalid value operand");
      return 0;
    }
  }

  int64_t addressOf(const Frame &Fr, const Operand &O) {
    switch (O.kind()) {
    case Operand::Kind::Reg:
      return Fr.Regs[O.getReg()] + O.getOffset();
    case Operand::Kind::Global:
      return static_cast<int64_t>(GlobalAddress[O.getId()]) +
             O.getOffset();
    case Operand::Kind::Frame:
      return static_cast<int64_t>(Fr.SlotAddress[O.getId()]) +
             O.getOffset();
    default:
      fail("invalid address operand");
      return 0;
    }
  }

  /// Executes \p F with \p Args; returns the returned value (0 if void).
  int64_t callFunction(const IRFunction &F, const std::vector<int64_t> &Args) {
    if (!Result.Error.empty())
      return 0;
    if (CallDepth == MaxCallDepth) {
      fail("call depth limit exceeded");
      return 0;
    }
    ++CallDepth;
    Frame Fr = pushFrame(F);
    for (uint32_t P = 0; P != F.numParams(); ++P) {
      Reg PR = F.paramReg(P);
      if (PR < Fr.Regs.size())
        Fr.Regs[PR] = Args[P];
    }

    int64_t ReturnValue = 0;
    uint32_t Block = 0;
    bool Done = false;
    while (!Done && Result.Error.empty()) {
      const BasicBlock *B = F.block(Block);
      bool Jumped = false;
      for (const Instruction &I : B->insts()) {
        if (++Result.Steps > Config.MaxSteps) {
          fail("step limit exceeded");
          break;
        }
        switch (I.Op) {
        case Opcode::Add:
          Fr.Regs[I.Dst] =
              wrapAdd(operandValue(Fr, I.Ops[0]), operandValue(Fr, I.Ops[1]));
          break;
        case Opcode::Sub:
          Fr.Regs[I.Dst] =
              wrapSub(operandValue(Fr, I.Ops[0]), operandValue(Fr, I.Ops[1]));
          break;
        case Opcode::Mul:
          Fr.Regs[I.Dst] =
              wrapMul(operandValue(Fr, I.Ops[0]), operandValue(Fr, I.Ops[1]));
          break;
        case Opcode::Div: {
          int64_t D = operandValue(Fr, I.Ops[1]);
          if (D == 0) {
            fail("division by zero");
            break;
          }
          Fr.Regs[I.Dst] = wrapDiv(operandValue(Fr, I.Ops[0]), D);
          break;
        }
        case Opcode::Rem: {
          int64_t D = operandValue(Fr, I.Ops[1]);
          if (D == 0) {
            fail("remainder by zero");
            break;
          }
          Fr.Regs[I.Dst] = wrapRem(operandValue(Fr, I.Ops[0]), D);
          break;
        }
        case Opcode::And:
          Fr.Regs[I.Dst] =
              operandValue(Fr, I.Ops[0]) & operandValue(Fr, I.Ops[1]);
          break;
        case Opcode::Or:
          Fr.Regs[I.Dst] =
              operandValue(Fr, I.Ops[0]) | operandValue(Fr, I.Ops[1]);
          break;
        case Opcode::Xor:
          Fr.Regs[I.Dst] =
              operandValue(Fr, I.Ops[0]) ^ operandValue(Fr, I.Ops[1]);
          break;
        case Opcode::Shl:
          Fr.Regs[I.Dst] =
              wrapShl(operandValue(Fr, I.Ops[0]),
                      static_cast<unsigned>(operandValue(Fr, I.Ops[1]) & 63));
          break;
        case Opcode::Shr:
          Fr.Regs[I.Dst] =
              operandValue(Fr, I.Ops[0]) >> (operandValue(Fr, I.Ops[1]) & 63);
          break;
        case Opcode::CmpLt:
          Fr.Regs[I.Dst] =
              operandValue(Fr, I.Ops[0]) < operandValue(Fr, I.Ops[1]);
          break;
        case Opcode::CmpLe:
          Fr.Regs[I.Dst] =
              operandValue(Fr, I.Ops[0]) <= operandValue(Fr, I.Ops[1]);
          break;
        case Opcode::CmpGt:
          Fr.Regs[I.Dst] =
              operandValue(Fr, I.Ops[0]) > operandValue(Fr, I.Ops[1]);
          break;
        case Opcode::CmpGe:
          Fr.Regs[I.Dst] =
              operandValue(Fr, I.Ops[0]) >= operandValue(Fr, I.Ops[1]);
          break;
        case Opcode::CmpEq:
          Fr.Regs[I.Dst] =
              operandValue(Fr, I.Ops[0]) == operandValue(Fr, I.Ops[1]);
          break;
        case Opcode::CmpNe:
          Fr.Regs[I.Dst] =
              operandValue(Fr, I.Ops[0]) != operandValue(Fr, I.Ops[1]);
          break;
        case Opcode::Neg:
          Fr.Regs[I.Dst] = -operandValue(Fr, I.Ops[0]);
          break;
        case Opcode::Not:
          Fr.Regs[I.Dst] = ~operandValue(Fr, I.Ops[0]);
          break;
        case Opcode::Mov:
          Fr.Regs[I.Dst] = operandValue(Fr, I.Ops[0]);
          break;
        case Opcode::Load: {
          int64_t Addr = addressOf(Fr, I.Ops[0]);
          if (memCheck(Addr))
            Fr.Regs[I.Dst] = Memory[static_cast<uint64_t>(Addr)];
          break;
        }
        case Opcode::Store: {
          int64_t Addr = addressOf(Fr, I.Ops[1]);
          if (memCheck(Addr))
            Memory[static_cast<uint64_t>(Addr)] =
                operandValue(Fr, I.Ops[0]);
          break;
        }
        case Opcode::Call: {
          const IRFunction *Callee = M.function(I.Ops[0].getId());
          std::vector<int64_t> CallArgs;
          CallArgs.reserve(I.Ops.size() - 1);
          for (size_t A = 1; A != I.Ops.size(); ++A)
            CallArgs.push_back(operandValue(Fr, I.Ops[A]));
          int64_t Value = callFunction(*Callee, CallArgs);
          if (I.Dst != NoReg)
            Fr.Regs[I.Dst] = Value;
          break;
        }
        case Opcode::Print:
          Result.Output.push_back(operandValue(Fr, I.Ops[0]));
          break;
        case Opcode::Br:
          Block = I.Ops[0].getId();
          Jumped = true;
          break;
        case Opcode::CondBr:
          Block = operandValue(Fr, I.Ops[0]) != 0 ? I.Ops[1].getId()
                                                  : I.Ops[2].getId();
          Jumped = true;
          break;
        case Opcode::Ret:
          if (!I.Ops.empty())
            ReturnValue = operandValue(Fr, I.Ops[0]);
          Done = true;
          break;
        }
        if (Jumped || Done || !Result.Error.empty())
          break;
      }
      if (!Jumped && !Done && Result.Error.empty()) {
        fail(formatString("block .%s fell through without terminator",
                          B->name().c_str()));
      }
    }

    SP = Fr.SavedSP;
    --CallDepth;
    return ReturnValue;
  }

  const IRModule &M;
  InterpConfig Config;
  /// Zero until written; only the pages a program writes are resident.
  ZeroedWords Memory;
  std::vector<uint64_t> GlobalAddress;
  uint64_t SP = 0;
  uint32_t CallDepth = 0;
  InterpResult Result;
};

} // namespace

InterpResult urcm::interpretModule(const IRModule &M,
                                   const InterpConfig &Config) {
  Interpreter I(M, Config);
  return I.run();
}

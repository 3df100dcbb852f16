//===- Verifier.cpp - IR structural verifier ------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/ir/Verifier.h"

#include "urcm/support/StringUtils.h"

#include <deque>

using namespace urcm;

namespace {

class Verifier {
public:
  Verifier(const IRModule &M, const IRFunction &F, DiagnosticEngine &Diags)
      : M(M), F(F), Diags(Diags) {}

  bool run() {
    if (F.numBlocks() == 0) {
      error("function has no blocks");
      return false;
    }
    for (const auto &B : F.blocks())
      checkBlock(*B);
    if (!Failed)
      checkDefiniteAssignment();
    return !Failed;
  }

private:
  void error(const std::string &Message) {
    Failed = true;
    Diags.error(SourceLoc(),
                formatString("%s: %s", F.name().c_str(), Message.c_str()));
  }

  void checkBlock(const BasicBlock &B) {
    if (B.empty() || !B.back().isTerm()) {
      error(formatString("block .%s does not end with a terminator",
                         B.name().c_str()));
      return;
    }
    for (size_t I = 0, E = B.insts().size(); I != E; ++I) {
      const Instruction &Inst = B.insts()[I];
      if (Inst.isTerm() && I + 1 != E)
        error(formatString("terminator in the middle of block .%s",
                           B.name().c_str()));
      checkInst(B, Inst);
    }
  }

  void checkOperandKinds(const BasicBlock &B, const Instruction &I,
                         size_t Index,
                         std::initializer_list<Operand::Kind> Allowed) {
    if (Index >= I.Ops.size())
      return;
    const Operand &O = I.Ops[Index];
    for (Operand::Kind K : Allowed)
      if (O.kind() == K)
        return;
    error(formatString("operand %zu of '%s' in .%s has invalid kind",
                       Index, opcodeName(I.Op), B.name().c_str()));
  }

  void requireOps(const BasicBlock &B, const Instruction &I, size_t Min,
                  size_t Max) {
    if (I.Ops.size() < Min || I.Ops.size() > Max)
      error(formatString("'%s' in .%s has %zu operands; expected %zu..%zu",
                         opcodeName(I.Op), B.name().c_str(), I.Ops.size(),
                         Min, Max));
  }

  void checkInst(const BasicBlock &B, const Instruction &I) {
    using K = Operand::Kind;
    const std::initializer_list<K> Value = {K::Reg, K::Imm};
    const std::initializer_list<K> Address = {K::Reg, K::Global, K::Frame};
    const std::initializer_list<K> Movable = {K::Reg, K::Imm, K::Global,
                                              K::Frame};

    if (I.Dst != NoReg && I.Dst >= F.numRegs())
      error(formatString("destination register r%u out of range in .%s",
                         I.Dst, B.name().c_str()));

    // Range checks on every operand.
    for (const Operand &O : I.Ops) {
      switch (O.kind()) {
      case K::Reg:
        if (O.getReg() >= F.numRegs())
          error(formatString("register r%u out of range in .%s",
                             O.getReg(), B.name().c_str()));
        break;
      case K::Global:
        if (O.getId() >= M.globals().size())
          error("global operand id out of range");
        break;
      case K::Frame:
        if (O.getId() >= F.frameSlots().size())
          error("frame operand id out of range");
        break;
      case K::Block:
        if (O.getId() >= F.numBlocks())
          error("block operand id out of range");
        break;
      case K::Func:
        if (O.getId() >= M.functions().size())
          error("function operand id out of range");
        break;
      case K::Imm:
      case K::None:
        break;
      }
    }

    switch (I.Op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
    case Opcode::CmpEq:
    case Opcode::CmpNe:
      requireOps(B, I, 2, 2);
      if (I.Dst == NoReg)
        error(formatString("'%s' must define a register", opcodeName(I.Op)));
      // Address-of operands are legal arithmetic inputs (pointer math).
      checkOperandKinds(B, I, 0, Movable);
      checkOperandKinds(B, I, 1, Movable);
      break;
    case Opcode::Neg:
    case Opcode::Not:
      requireOps(B, I, 1, 1);
      if (I.Dst == NoReg)
        error(formatString("'%s' must define a register", opcodeName(I.Op)));
      checkOperandKinds(B, I, 0, Value);
      break;
    case Opcode::Mov:
      requireOps(B, I, 1, 1);
      if (I.Dst == NoReg)
        error("'mov' must define a register");
      checkOperandKinds(B, I, 0, Movable);
      break;
    case Opcode::Load:
      requireOps(B, I, 1, 1);
      if (I.Dst == NoReg)
        error("'load' must define a register");
      checkOperandKinds(B, I, 0, Address);
      break;
    case Opcode::Store:
      requireOps(B, I, 2, 2);
      if (I.Dst != NoReg)
        error("'store' must not define a register");
      checkOperandKinds(B, I, 0, Value);
      checkOperandKinds(B, I, 1, Address);
      break;
    case Opcode::Call: {
      if (I.Ops.empty() || !I.Ops[0].isFunc()) {
        error("'call' must name a function in operand 0");
        break;
      }
      const IRFunction *Callee = M.function(I.Ops[0].getId());
      if (I.Ops.size() - 1 != Callee->numParams())
        error(formatString("call to %s passes %zu args; expected %u",
                           Callee->name().c_str(), I.Ops.size() - 1,
                           Callee->numParams()));
      if (I.Dst != NoReg && !Callee->returnsValue())
        error(formatString("call to void function %s defines a register",
                           Callee->name().c_str()));
      for (size_t Idx = 1; Idx < I.Ops.size(); ++Idx)
        checkOperandKinds(B, I, Idx, Movable);
      break;
    }
    case Opcode::Print:
      requireOps(B, I, 1, 1);
      checkOperandKinds(B, I, 0, Value);
      break;
    case Opcode::Br:
      requireOps(B, I, 1, 1);
      checkOperandKinds(B, I, 0, {K::Block});
      break;
    case Opcode::CondBr:
      requireOps(B, I, 3, 3);
      checkOperandKinds(B, I, 0, {K::Reg});
      checkOperandKinds(B, I, 1, {K::Block});
      checkOperandKinds(B, I, 2, {K::Block});
      break;
    case Opcode::Ret:
      requireOps(B, I, 0, 1);
      if (!I.Ops.empty())
        checkOperandKinds(B, I, 0, Value);
      break;
    }
  }

  /// A register may only be used if it is assigned on every path from
  /// entry (definitelyAssignedIn).
  void checkDefiniteAssignment() {
    const uint32_t NumBlocks = F.numBlocks();
    if (F.numRegs() == 0)
      return;
    std::vector<BitSet> Assigned = definitelyAssignedIn(F);

    // Reachability: unreachable blocks never execute, so their uses are
    // exempt from definite-assignment (the frontend replaces their
    // bodies, but synthetic IR may still contain them).
    BitSet Reachable(NumBlocks);
    {
      std::vector<uint32_t> WorkList{0};
      Reachable.set(0);
      while (!WorkList.empty()) {
        uint32_t Block = WorkList.back();
        WorkList.pop_back();
        for (uint32_t Succ : F.block(Block)->successors())
          if (!Reachable.test(Succ)) {
            Reachable.set(Succ);
            WorkList.push_back(Succ);
          }
      }
    }

    // Flag uses of maybe-unassigned registers.
    for (const auto &B : F.blocks()) {
      if (!Reachable.test(B->id()))
        continue;
      BitSet &State = Assigned[B->id()];
      for (const Instruction &I : B->insts()) {
        for (const Operand &O : I.Ops)
          if (O.isReg() && !State.test(O.getReg()))
            error(formatString("r%u used before assignment in .%s",
                               O.getReg(), B->name().c_str()));
        if (I.Dst != NoReg)
          State.set(I.Dst);
      }
    }
  }

  const IRModule &M;
  const IRFunction &F;
  DiagnosticEngine &Diags;
  bool Failed = false;
};

} // namespace

bool urcm::verifyFunction(const IRModule &M, const IRFunction &F,
                          DiagnosticEngine &Diags) {
  Verifier V(M, F, Diags);
  return V.run();
}

std::vector<BitSet> urcm::definitelyAssignedIn(const IRFunction &F) {
  const uint32_t NumBlocks = F.numBlocks();
  const uint32_t NumRegs = F.numRegs();
  std::vector<std::vector<uint32_t>> Succs(NumBlocks), Preds(NumBlocks);
  std::vector<BitSet> Defs(NumBlocks, BitSet(NumRegs));
  for (const auto &B : F.blocks()) {
    Succs[B->id()] = B->successors();
    for (uint32_t Succ : Succs[B->id()])
      Preds[Succ].push_back(B->id());
    for (const Instruction &I : B->insts())
      if (I.Dst != NoReg)
        Defs[B->id()].set(I.Dst);
  }
  BitSet Params(NumRegs);
  for (uint32_t P = 0; P != F.numParams(); ++P)
    if (F.paramReg(P) < NumRegs)
      Params.set(F.paramReg(P));

  // DefinedOut[b] = registers definitely assigned at the end of b,
  // starting from "all" (top) for a meet-over-paths intersection.
  std::vector<BitSet> DefinedOut(NumBlocks, BitSet(NumRegs, true));
  auto ComputeIn = [&](uint32_t Block, BitSet &In) {
    if (Block == 0) {
      In.assign(Params);
      return;
    }
    if (Preds[Block].empty()) {
      In.clear(); // Unreachable block: nothing assigned.
      return;
    }
    In.setAll();
    for (uint32_t Pred : Preds[Block])
      In.intersectWith(DefinedOut[Pred]);
  };

  std::deque<uint32_t> Work;
  for (uint32_t Block = 0; Block != NumBlocks; ++Block)
    Work.push_back(Block);
  BitSet State(NumRegs);
  while (!Work.empty()) {
    uint32_t Block = Work.front();
    Work.pop_front();
    ComputeIn(Block, State);
    State.unionWith(Defs[Block]);
    if (DefinedOut[Block].assign(State))
      for (uint32_t Succ : Succs[Block])
        Work.push_back(Succ);
  }

  std::vector<BitSet> In(NumBlocks, BitSet(NumRegs));
  for (uint32_t Block = 0; Block != NumBlocks; ++Block)
    ComputeIn(Block, In[Block]);
  return In;
}

bool urcm::verifyModule(const IRModule &M, DiagnosticEngine &Diags) {
  bool Ok = true;
  for (const auto &F : M.functions())
    Ok &= verifyFunction(M, *F, Diags);
  return Ok;
}

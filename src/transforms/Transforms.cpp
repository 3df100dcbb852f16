//===- Transforms.cpp - IR cleanup passes --------------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/transforms/Transforms.h"

#include "urcm/analysis/AliasAnalysis.h"
#include "urcm/analysis/CFG.h"
#include "urcm/analysis/MemoryLiveness.h"
#include "urcm/pass/Analyses.h"
#include "urcm/transforms/ValueNumbering.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

using namespace urcm;

//===----------------------------------------------------------------------===//
// Copy propagation
//===----------------------------------------------------------------------===//

uint64_t urcm::propagateCopies(IRFunction &F) {
  uint64_t Rewrites = 0;
  for (const auto &B : F.blocks()) {
    // Reg -> replacement operand (a Reg or Imm), valid at this point.
    std::unordered_map<Reg, Operand> CopyOf;

    auto Invalidate = [&](Reg R) {
      CopyOf.erase(R);
      for (auto It = CopyOf.begin(); It != CopyOf.end();) {
        if (It->second.isReg() && It->second.getReg() == R)
          It = CopyOf.erase(It);
        else
          ++It;
      }
    };

    for (Instruction &I : B->insts()) {
      // Rewrite register operands through the copy map. Address-mode
      // register operands keep their offset.
      for (Operand &O : I.Ops) {
        if (!O.isReg())
          continue;
        auto It = CopyOf.find(O.getReg());
        if (It == CopyOf.end())
          continue;
        const Operand &Repl = It->second;
        if (Repl.isReg()) {
          O = Operand::reg(Repl.getReg(), O.getOffset());
          ++Rewrites;
        } else if (Repl.isImm() && O.getOffset() == 0) {
          // Only pure value positions may become immediates; memory
          // address operands must stay registers (an absolute-immediate
          // address would defeat the verifier and the point of the
          // test).
          bool IsAddressPosition =
              I.isMemAccess() && &O == &I.addressOperand();
          if (!IsAddressPosition) {
            O = Operand::imm(Repl.getImm());
            ++Rewrites;
          }
        }
      }

      if (I.Dst == NoReg)
        continue;
      Invalidate(I.Dst);
      if (I.Op == Opcode::Mov) {
        const Operand &Src = I.Ops[0];
        bool SelfCopy = Src.isReg() && Src.getReg() == I.Dst;
        if (!SelfCopy && ((Src.isReg() && Src.getOffset() == 0) ||
                          Src.isImm()))
          CopyOf[I.Dst] = Src;
      }
    }
  }
  return Rewrites;
}

//===----------------------------------------------------------------------===//
// Dead code elimination
//===----------------------------------------------------------------------===//

static bool hasSideEffects(const Instruction &I) {
  switch (I.Op) {
  case Opcode::Store:
  case Opcode::Call:
  case Opcode::Print:
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
    return true;
  default:
    return false;
  }
}

uint64_t urcm::eliminateDeadCode(IRFunction &F) {
  uint64_t Removed = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Registers used anywhere (including as addresses).
    std::vector<bool> Used(F.numRegs(), false);
    std::vector<Reg> Uses;
    for (const auto &B : F.blocks())
      for (const Instruction &I : B->insts()) {
        Uses.clear();
        I.appendUses(Uses);
        for (Reg R : Uses)
          Used[R] = true;
      }
    for (const auto &B : F.blocks()) {
      auto &Insts = B->insts();
      size_t Before = Insts.size();
      Insts.erase(std::remove_if(Insts.begin(), Insts.end(),
                                 [&](const Instruction &I) {
                                   return !hasSideEffects(I) &&
                                          I.Dst != NoReg && !Used[I.Dst];
                                 }),
                  Insts.end());
      size_t Delta = Before - Insts.size();
      Removed += Delta;
      Changed |= Delta != 0;
    }
  }
  return Removed;
}

//===----------------------------------------------------------------------===//
// Dead store elimination
//===----------------------------------------------------------------------===//

uint64_t urcm::eliminateDeadStores(IRModule &M, IRFunction &F) {
  ModuleEscapeInfo ME(M);
  CFGInfo CFG(F);
  AliasInfo AA(M, F, ME);
  MemoryLiveness ML(M, F, CFG, AA);
  return eliminateDeadStores(M, F, ML);
}

uint64_t urcm::eliminateDeadStores(IRModule &M, IRFunction &F,
                                   const MemoryLiveness &ML) {
  (void)M;
  uint64_t Removed = 0;
  for (const auto &B : F.blocks()) {
    auto &Insts = B->insts();
    std::vector<Instruction> Kept;
    Kept.reserve(Insts.size());
    for (uint32_t Index = 0; Index != Insts.size(); ++Index) {
      const Instruction &I = Insts[Index];
      MemoryLiveness::RefFlags Flags = ML.flags(B->id(), Index);
      if (I.isStore() && Flags.Tracked && Flags.DeadStore) {
        ++Removed;
        continue;
      }
      Kept.push_back(I);
    }
    Insts = std::move(Kept);
  }
  return Removed;
}

//===----------------------------------------------------------------------===//
// Pipeline
//===----------------------------------------------------------------------===//

TransformStats urcm::runCleanupPipeline(IRModule &M,
                                        const TransformOptions &Options,
                                        AnalysisManager &AM) {
  // These passes rewrite instructions but never block structure, so the
  // CFG and everything derived purely from it survive each step.
  PreservedAnalyses KeepCFG;
  KeepCFG.preserve<CFGAnalysis>()
      .preserve<DominatorTreeAnalysis>()
      .preserve<LoopAnalysis>();

  TransformStats Stats;
  for (uint32_t Round = 0; Round != Options.MaxRounds; ++Round) {
    uint64_t Progress = 0;
    for (const auto &F : M.functions()) {
      if (Options.CopyPropagation) {
        uint64_t N = propagateCopies(*F);
        if (N != 0)
          AM.invalidate(*F, KeepCFG);
        Stats.CopiesPropagated += N;
        Progress += N;
      }
      if (Options.ValueNumbering) {
        ValueNumberingStats VN =
            numberValues(M, *F, AM.get<AliasAnalysisInfo>(*F));
        if (VN.RedundantComputations + VN.ForwardedLoads != 0)
          AM.invalidate(*F, KeepCFG);
        Stats.RedundantComputations += VN.RedundantComputations;
        Stats.ForwardedLoads += VN.ForwardedLoads;
        Progress += VN.RedundantComputations + VN.ForwardedLoads;
      }
      if (Options.DeadCodeElimination) {
        uint64_t N = eliminateDeadCode(*F);
        if (N != 0)
          AM.invalidate(*F, KeepCFG);
        Stats.DeadInstsRemoved += N;
        Progress += N;
      }
      if (Options.DeadStoreElimination) {
        uint64_t N = eliminateDeadStores(
            M, *F, AM.get<MemoryLivenessAnalysis>(*F));
        if (N != 0)
          AM.invalidate(*F, KeepCFG);
        Stats.DeadStoresRemoved += N;
        Progress += N;
      }
    }
    if (Progress == 0)
      break;
  }
  return Stats;
}

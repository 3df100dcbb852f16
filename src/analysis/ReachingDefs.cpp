//===- ReachingDefs.cpp - Reaching definitions -------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/analysis/ReachingDefs.h"

#include "urcm/support/Telemetry.h"

using namespace urcm;

URCM_STAT(NumReachingDefsRuns, "analysis.reachingdefs.runs",
          "Reaching-definition problems solved");

ReachingDefs::ReachingDefs(const IRFunction &F, const CFGInfo &CFG) {
  telemetry::ScopedPhase Phase("analysis.reachingdefs");
  NumReachingDefsRuns.add();
  const uint32_t NumBlocks = F.numBlocks();
  const uint32_t NumRegs = F.numRegs();

  // Enumerate definition sites: parameter pseudo-defs first, then
  // instruction defs in block order.
  DefsOfReg.resize(NumRegs);
  for (uint32_t P = 0; P != F.numParams(); ++P) {
    Reg PR = F.paramReg(P);
    DefsOfReg[PR].push_back(static_cast<uint32_t>(Defs.size()));
    Defs.push_back(DefSite{PR, 0, ~0u});
  }
  for (const auto &B : F.blocks())
    for (uint32_t I = 0, E = static_cast<uint32_t>(B->insts().size());
         I != E; ++I) {
      Reg D = B->insts()[I].Dst;
      if (D == NoReg)
        continue;
      DefsOfReg[D].push_back(static_cast<uint32_t>(Defs.size()));
      Defs.push_back(DefSite{D, B->id(), I});
    }

  // Per-block transfer: Out = Gen U (In - Kill). Gen holds the last def
  // of each register the block defines; Kill holds every def (parameter
  // pseudo-defs included) of those registers. One pass over the defs,
  // which are in block order: a block's defs are contiguous, and
  // LastDefIn marks the registers already seen in the current block.
  const uint32_t NumDefs = static_cast<uint32_t>(Defs.size());
  std::vector<BitSet> Gen(NumBlocks, BitSet(NumDefs));
  std::vector<BitSet> Kill(NumBlocks, BitSet(NumDefs));
  std::vector<uint32_t> LastDef(NumRegs);
  std::vector<uint32_t> LastDefIn(NumRegs, ~0u);
  std::vector<Reg> Defined;
  for (uint32_t First = F.numParams(); First != NumDefs;) {
    const uint32_t Block = Defs[First].Block;
    uint32_t End = First;
    Defined.clear();
    for (; End != NumDefs && Defs[End].Block == Block; ++End) {
      const Reg R = Defs[End].Register;
      if (LastDefIn[R] != Block) {
        LastDefIn[R] = Block;
        Defined.push_back(R);
      }
      LastDef[R] = End;
    }
    for (Reg R : Defined) {
      Gen[Block].set(LastDef[R]);
      for (uint32_t DefId : DefsOfReg[R])
        Kill[Block].set(DefId);
    }
    First = End;
  }

  // Every def set only grows from the empty start, so each meet is a
  // union into In; the entry block also receives the parameter
  // pseudo-defs.
  In.assign(NumBlocks, BitSet(NumDefs));
  std::vector<BitSet> Out(NumBlocks, BitSet(NumDefs));
  for (uint32_t P = 0; P != F.numParams(); ++P)
    In[0].set(P);

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t Block : CFG.rpo()) {
      for (uint32_t Pred : CFG.preds(Block))
        Changed |= In[Block].unionWith(Out[Pred]);
      Changed |= Out[Block].assignTransfer(Gen[Block], In[Block], Kill[Block]);
    }
  }
}

std::vector<uint32_t> ReachingDefs::reachingDefsAt(const IRFunction &F,
                                                   uint32_t Block,
                                                   uint32_t Index,
                                                   Reg R) const {
  // Scan the block prefix: the last def of R before Index wins.
  const auto &Insts = F.block(Block)->insts();
  uint32_t LastLocal = ~0u;
  for (uint32_t I = 0; I < Index && I < Insts.size(); ++I)
    if (Insts[I].Dst == R)
      LastLocal = I;
  std::vector<uint32_t> Result;
  if (LastLocal != ~0u) {
    // Find the def id of that site.
    for (uint32_t DefId : DefsOfReg[R]) {
      const DefSite &D = Defs[DefId];
      if (!D.isParam() && D.Block == Block && D.Index == LastLocal)
        Result.push_back(DefId);
    }
    return Result;
  }
  for (uint32_t DefId : DefsOfReg[R])
    if (In[Block].test(DefId))
      Result.push_back(DefId);
  return Result;
}

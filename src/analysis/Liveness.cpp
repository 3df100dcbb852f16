//===- Liveness.cpp - Register liveness -------------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/analysis/Liveness.h"

#include "urcm/support/Telemetry.h"

using namespace urcm;

URCM_STAT(NumLivenessRuns, "analysis.liveness.runs",
          "Register liveness problems solved");
URCM_STAT(NumLivenessIters, "analysis.liveness.iterations",
          "Backward dataflow passes until fixpoint");

Liveness::Liveness(const IRFunction &F, const CFGInfo &CFG) {
  telemetry::ScopedPhase Phase("analysis.liveness");
  NumLivenessRuns.add();
  const uint32_t NumBlocks = F.numBlocks();
  const uint32_t NumRegs = F.numRegs();
  LiveIn.assign(NumBlocks, BitSet(NumRegs));
  LiveOut.assign(NumBlocks, BitSet(NumRegs));

  // Per-block gen (upward-exposed uses) and kill (defs) sets.
  std::vector<BitSet> Gen(NumBlocks, BitSet(NumRegs));
  std::vector<BitSet> Kill(NumBlocks, BitSet(NumRegs));
  for (const auto &B : F.blocks()) {
    BitSet &G = Gen[B->id()];
    BitSet &K = Kill[B->id()];
    for (const Instruction &I : B->insts()) {
      for (const Operand &O : I.Ops)
        if (O.isReg() && !K.test(O.getReg()))
          G.set(O.getReg());
      if (I.Dst != NoReg)
        K.set(I.Dst);
    }
  }

  // Backward fixpoint, iterating blocks in postorder for fast convergence.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    NumLivenessIters.add();
    const auto &Order = CFG.rpo();
    for (auto It = Order.rbegin(), E = Order.rend(); It != E; ++It) {
      uint32_t Block = *It;
      BitSet &Out = LiveOut[Block];
      for (uint32_t Succ : CFG.succs(Block))
        Changed |= Out.unionWith(LiveIn[Succ]);
      Changed |= LiveIn[Block].assignTransfer(Gen[Block], Out, Kill[Block]);
    }
  }
}

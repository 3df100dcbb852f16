//===- MemoryLiveness.cpp - Location liveness --------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/analysis/MemoryLiveness.h"

#include "urcm/support/Telemetry.h"

using namespace urcm;

URCM_STAT(NumMemLivenessRuns, "analysis.memliveness.runs",
          "Memory liveness problems solved");
URCM_STAT(NumTrackedLocations, "analysis.memliveness.tracked",
          "Scalar locations tracked for last-ref/dead-store tagging");

MemoryLiveness::MemoryLiveness(const IRModule &M, const IRFunction &F,
                               const CFGInfo &CFG, const AliasInfo &AA) {
  telemetry::ScopedPhase Phase("analysis.memliveness");
  NumMemLivenessRuns.add();
  // Enumerate tracked locations: scalar, non-escaping, non-External
  // objects. Globals come first, so the globals are locations
  // [0, NumGlobals).
  const uint32_t NumObjects = AA.numObjects();
  std::vector<int32_t> LocOfObject(NumObjects, -1);
  for (uint32_t G = 0; G != M.globals().size(); ++G) {
    uint32_t Obj = AA.objectForGlobal(G);
    if (M.globals()[G].SizeWords == 1 && !AA.objectEscapes(Obj))
      LocOfObject[Obj] = static_cast<int32_t>(NumTracked++);
  }
  const uint32_t NumGlobals = NumTracked;
  for (uint32_t S = 0; S != F.frameSlots().size(); ++S) {
    uint32_t Obj = AA.objectForFrame(S);
    if (F.frameSlots()[S].SizeWords == 1 && !AA.objectEscapes(Obj))
      LocOfObject[Obj] = static_cast<int32_t>(NumTracked++);
  }

  NumTrackedLocations.add(NumTracked);

  Flags.resize(F.numBlocks());
  for (const auto &B : F.blocks())
    Flags[B->id()].resize(B->insts().size());
  if (NumTracked == 0)
    return;

  // Location referenced by a memory instruction, or -1 if untracked. Only
  // whole-scalar direct references (offset 0 on a 1-word object) map to a
  // tracked location.
  auto LocationOf = [&](const Instruction &I) -> int32_t {
    const Operand &Addr = I.addressOperand();
    if (Addr.isGlobal() && Addr.getOffset() == 0)
      return LocOfObject[AA.objectForGlobal(Addr.getId())];
    if (Addr.isFrame() && Addr.getOffset() == 0)
      return LocOfObject[AA.objectForFrame(Addr.getId())];
    return -1;
  };

  // Globals survive the activation, so they are live at exit; and a
  // callee may read any global it names, so a call makes them all live.
  BitSet Globals(NumTracked);
  for (uint32_t Loc = 0; Loc != NumGlobals; ++Loc)
    Globals.set(Loc);

  // Per-block gen/kill, composed walking backward: a load generates its
  // location, a store kills it (and cancels a later load's gen), a call
  // generates every global.
  const uint32_t NumBlocks = F.numBlocks();
  std::vector<BitSet> Gen(NumBlocks, BitSet(NumTracked));
  std::vector<BitSet> Kill(NumBlocks, BitSet(NumTracked));
  for (const auto &B : F.blocks()) {
    BitSet &G = Gen[B->id()];
    BitSet &K = Kill[B->id()];
    const auto &Insts = B->insts();
    for (uint32_t I = static_cast<uint32_t>(Insts.size()); I-- > 0;) {
      const Instruction &Inst = Insts[I];
      if (Inst.isCall()) {
        G.unionWith(Globals);
        continue;
      }
      if (!Inst.isMemAccess())
        continue;
      int32_t Loc = LocationOf(Inst);
      if (Loc < 0)
        continue;
      if (Inst.isStore()) {
        G.reset(Loc);
        K.set(Loc);
      } else {
        G.set(Loc);
      }
    }
  }

  // Backward bitvector dataflow. Both sets only grow from the empty
  // start, so the meet is a union into LiveOut.
  std::vector<BitSet> LiveIn(NumBlocks, BitSet(NumTracked));
  std::vector<BitSet> LiveOut = LiveIn;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    const auto &Order = CFG.rpo();
    for (auto It = Order.rbegin(), E = Order.rend(); It != E; ++It) {
      uint32_t Block = *It;
      BitSet &Out = LiveOut[Block];
      const auto &Succs = CFG.succs(Block);
      if (Succs.empty())
        Changed |= Out.unionWith(Globals);
      for (uint32_t Succ : Succs)
        Changed |= Out.unionWith(LiveIn[Succ]);
      Changed |= LiveIn[Block].assignTransfer(Gen[Block], Out, Kill[Block]);
    }
  }

  // Final pass: record per-instruction flags.
  for (const auto &B : F.blocks()) {
    BitSet Live = LiveOut[B->id()];
    const auto &Insts = B->insts();
    for (uint32_t I = static_cast<uint32_t>(Insts.size()); I-- > 0;) {
      const Instruction &Inst = Insts[I];
      if (Inst.isCall()) {
        Live.unionWith(Globals);
        continue;
      }
      if (!Inst.isMemAccess())
        continue;
      int32_t Loc = LocationOf(Inst);
      if (Loc < 0)
        continue;
      RefFlags &RF = Flags[B->id()][I];
      RF.Tracked = true;
      if (Inst.isStore()) {
        RF.DeadStore = !Live.test(Loc);
        Live.reset(Loc);
      } else {
        RF.LastRef = !Live.test(Loc);
        Live.set(Loc);
      }
    }
  }
}

MemoryLiveness::RefFlags MemoryLiveness::flags(uint32_t Block,
                                               uint32_t Index) const {
  if (Block >= Flags.size() || Index >= Flags[Block].size())
    return RefFlags();
  return Flags[Block][Index];
}

//===- urcm/analysis/Liveness.h - Register liveness -------------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward liveness over virtual registers (paper Definition 1,
/// section 3.1: the live range of a value). Drives interference-graph
/// construction and the last-reference (dead) tagging of spill reloads.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_ANALYSIS_LIVENESS_H
#define URCM_ANALYSIS_LIVENESS_H

#include "urcm/analysis/CFG.h"
#include "urcm/support/BitSet.h"

#include <utility>

namespace urcm {

/// Per-block live-in/live-out sets for all virtual registers.
class Liveness {
public:
  Liveness(const IRFunction &F, const CFGInfo &CFG);

  bool isLiveIn(uint32_t Block, Reg R) const {
    return LiveIn[Block].test(R);
  }
  bool isLiveOut(uint32_t Block, Reg R) const {
    return LiveOut[Block].test(R);
  }

  const BitSet &liveIn(uint32_t Block) const { return LiveIn[Block]; }
  const BitSet &liveOut(uint32_t Block) const { return LiveOut[Block]; }

  /// Walks \p Block backwards, invoking \p Visit(Index, LiveAfter) for
  /// each instruction, where LiveAfter is the set of registers live
  /// immediately *after* the instruction executes.
  template <typename Callback>
  void scanBlockBackward(const IRFunction &F, uint32_t Block,
                         Callback Visit) const {
    BitSet Live = LiveOut[Block];
    const auto &Insts = F.block(Block)->insts();
    for (uint32_t I = static_cast<uint32_t>(Insts.size()); I-- > 0;) {
      const Instruction &Inst = Insts[I];
      Visit(I, std::as_const(Live));
      if (Inst.Dst != NoReg)
        Live.reset(Inst.Dst);
      for (const Operand &O : Inst.Ops)
        if (O.isReg())
          Live.set(O.getReg());
    }
  }

private:
  std::vector<BitSet> LiveIn;
  std::vector<BitSet> LiveOut;
};

} // namespace urcm

#endif // URCM_ANALYSIS_LIVENESS_H

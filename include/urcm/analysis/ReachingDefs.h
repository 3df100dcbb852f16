//===- urcm/analysis/ReachingDefs.h - Reaching definitions ------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reaching-definitions dataflow over virtual registers, producing the
/// D-U and U-D chains the paper's name-splitting rule (Definition 2 in
/// section 4.1.1.1) is phrased in.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_ANALYSIS_REACHINGDEFS_H
#define URCM_ANALYSIS_REACHINGDEFS_H

#include "urcm/analysis/CFG.h"
#include "urcm/support/BitSet.h"

namespace urcm {

/// One definition site: an instruction defining a register, or a
/// function-parameter pseudo-def at entry (Index == ~0u).
struct DefSite {
  Reg Register = NoReg;
  uint32_t Block = 0;
  /// Instruction index within Block, or ~0u for a parameter pseudo-def.
  uint32_t Index = 0;

  bool isParam() const { return Index == ~0u; }
};

/// Reaching definitions for one function.
class ReachingDefs {
public:
  ReachingDefs(const IRFunction &F, const CFGInfo &CFG);

  const std::vector<DefSite> &defs() const { return Defs; }

  /// Definition ids of \p R reaching the *start* of instruction
  /// (\p Block, \p Index). Scans the block prefix, so a caller visiting
  /// every use should walk the block forward instead (WebAnalysis does).
  std::vector<uint32_t> reachingDefsAt(const IRFunction &F, uint32_t Block,
                                       uint32_t Index, Reg R) const;

  /// Definition ids reaching block entry.
  const BitSet &reachIn(uint32_t Block) const { return In[Block]; }

  /// All def ids for register \p R.
  const std::vector<uint32_t> &defsOf(Reg R) const { return DefsOfReg[R]; }

private:
  std::vector<DefSite> Defs;
  std::vector<std::vector<uint32_t>> DefsOfReg;
  std::vector<BitSet> In;
};

} // namespace urcm

#endif // URCM_ANALYSIS_REACHINGDEFS_H

//===- urcm/analysis/Webs.h - Value webs (paper Definition 2) ---*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Webs implement the paper's user-name splitting rule (section 4.1.1.1,
/// Definition 2): the U-D chains of a register are merged whenever they
/// share a definition; each resulting equivalence class — a *web* — is an
/// independent value and a separate register-allocation candidate. A
/// variable reused for several unrelated values therefore yields several
/// webs, exactly the paper's "user names are mapped into multiple
/// aliased-object names".
///
//===----------------------------------------------------------------------===//

#ifndef URCM_ANALYSIS_WEBS_H
#define URCM_ANALYSIS_WEBS_H

#include "urcm/analysis/ReachingDefs.h"

namespace urcm {

/// One use site of a register.
struct UseSite {
  Reg Register = NoReg;
  uint32_t Block = 0;
  uint32_t Index = 0;
};

/// One web: a maximal set of defs and uses of a single virtual register
/// connected through D-U chains.
struct Web {
  Reg Register = NoReg;
  std::vector<uint32_t> DefIds;  // Indexes into ReachingDefs::defs().
  std::vector<UseSite> Uses;
  /// True if one of the defs is the function-parameter pseudo-def.
  bool IncludesParam = false;
};

/// Computes the webs of a function.
class WebAnalysis {
public:
  WebAnalysis(const IRFunction &F, const CFGInfo &CFG,
              const ReachingDefs &RD);

  const std::vector<Web> &webs() const { return Webs; }

  /// Web id owning definition \p DefId.
  uint32_t webOfDef(uint32_t DefId) const { return WebOfDef[DefId]; }

  /// Web id of every register use in program order: blocks in
  /// F.blocks() order, instructions in order, register operands in
  /// operand order (Instruction::appendUses). ~0u marks a use no
  /// definition reaches (the verifier rejects those).
  const std::vector<uint32_t> &useWebs() const { return UseWebs; }

private:
  std::vector<Web> Webs;
  std::vector<uint32_t> WebOfDef;
  std::vector<uint32_t> UseWebs;
};

} // namespace urcm

#endif // URCM_ANALYSIS_WEBS_H

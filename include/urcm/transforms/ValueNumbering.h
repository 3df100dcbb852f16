//===- urcm/transforms/ValueNumbering.h - Local value numbering -*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Block-local value numbering with alias-aware memory forwarding:
///
///  * pure instructions (ALU, compares, moves) computing an
///    already-available value are rewritten to register copies;
///  * a load from an address whose current value is available (from a
///    preceding load or store) is forwarded — but only when every
///    intervening store provably cannot alias the address, using the
///    same object/points-to machinery as the unified-management pass;
///  * calls invalidate all memory knowledge (the callee may write any
///    escaped or global location).
///
/// This is exactly where the paper's ambiguous-alias problem bites a
/// classical optimizer: `a[i] = ...; x = a[j];` cannot forward because
/// a[i] and a[j] are *sometimes aliases* (paper Figure 2). The tests
/// pin this behavior.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_TRANSFORMS_VALUENUMBERING_H
#define URCM_TRANSFORMS_VALUENUMBERING_H

#include "urcm/ir/IR.h"

#include <cstdint>

namespace urcm {

class AliasInfo;

/// Value-numbering statistics.
struct ValueNumberingStats {
  uint64_t RedundantComputations = 0;
  uint64_t ForwardedLoads = 0;
};

/// Runs local value numbering over \p F against caller-provided alias
/// facts (typically the AnalysisManager's cached result).
ValueNumberingStats numberValues(IRModule &M, IRFunction &F,
                                 const AliasInfo &AA);

} // namespace urcm

#endif // URCM_TRANSFORMS_VALUENUMBERING_H

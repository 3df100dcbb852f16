//===- urcm/ir/Verifier.h - IR structural verifier --------------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural well-formedness checks for the URCM IR. Run after IRGen,
/// after spill insertion, and after the unified-management pass in debug
/// pipelines.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_IR_VERIFIER_H
#define URCM_IR_VERIFIER_H

#include "urcm/ir/IR.h"
#include "urcm/support/BitSet.h"
#include "urcm/support/Diagnostics.h"

#include <vector>

namespace urcm {

/// Verifies \p M; reports problems to \p Diags. Returns true if clean.
///
/// Checks performed:
///  * every block ends with exactly one terminator, and terminators appear
///    only at block ends;
///  * operand counts and kinds match each opcode's shape;
///  * register numbers are below the function's register counter;
///  * block/global/frame/function operand ids are in range;
///  * every register use is dominated by some definition along every path
///    from entry (a dataflow "definitely assigned" check);
///  * Load/Store address operands are Reg, Global or Frame.
bool verifyModule(const IRModule &M, DiagnosticEngine &Diags);

/// Verifies a single function.
bool verifyFunction(const IRModule &M, const IRFunction &F,
                    DiagnosticEngine &Diags);

/// The registers definitely assigned on entry to each block of \p F (one
/// set of F.numRegs() bits per block id): the forward "must" dataflow
/// behind verifyFunction's use-before-assignment check. The entry block
/// starts with the parameters, a block without predecessors with
/// nothing, and any other block with the intersection of its
/// predecessors' exit sets. \p F must be structurally valid (blocks end
/// in terminators, registers in range).
std::vector<BitSet> definitelyAssignedIn(const IRFunction &F);

} // namespace urcm

#endif // URCM_IR_VERIFIER_H

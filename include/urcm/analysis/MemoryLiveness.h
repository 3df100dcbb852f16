//===- urcm/analysis/MemoryLiveness.h - Location liveness -------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward liveness of *memory locations* (scalar, non-escaping globals
/// and frame slots — including spill slots). This is the analysis behind
/// the paper's last-reference tagging (section 3.1): a load whose location
/// is dead afterwards is the value's final use, so the cache line holding
/// it may be freed and a dirty copy dropped without write-back.
///
/// Conservatism:
///  * calls are treated as reading every global (other functions name
///    globals directly);
///  * escaped or array locations are untracked (never tagged);
///  * at function exit globals are live (they outlive the activation),
///    frame slots are dead.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_ANALYSIS_MEMORYLIVENESS_H
#define URCM_ANALYSIS_MEMORYLIVENESS_H

#include "urcm/analysis/AliasAnalysis.h"
#include "urcm/analysis/CFG.h"
#include "urcm/support/BitSet.h"

namespace urcm {

/// Last-reference facts for the memory instructions of one function.
class MemoryLiveness {
public:
  MemoryLiveness(const IRModule &M, const IRFunction &F, const CFGInfo &CFG,
                 const AliasInfo &AA);

  struct RefFlags {
    /// The instruction references a tracked (scalar, private) location.
    bool Tracked = false;
    /// Load: the location is dead after this read (final use).
    bool LastRef = false;
    /// Store: the stored value is never read (dead store).
    bool DeadStore = false;
  };

  /// Flags for the instruction at (\p Block, \p Index); all-false for
  /// non-memory instructions and untracked locations.
  RefFlags flags(uint32_t Block, uint32_t Index) const;

  /// Number of locations this analysis tracks.
  uint32_t numTracked() const { return NumTracked; }

private:
  std::vector<std::vector<RefFlags>> Flags; // [block][index]
  uint32_t NumTracked = 0;
};

} // namespace urcm

#endif // URCM_ANALYSIS_MEMORYLIVENESS_H

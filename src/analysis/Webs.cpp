//===- Webs.cpp - Value webs (paper Definition 2) ---------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/analysis/Webs.h"

#include "urcm/support/Telemetry.h"

#include <cassert>
#include <numeric>

using namespace urcm;

URCM_STAT(NumWebsBuilt, "analysis.webs.built",
          "Value webs constructed (paper Definition 2)");

namespace {

/// Minimal union-find.
class UnionFind {
public:
  explicit UnionFind(uint32_t N) : Parent(N) {
    std::iota(Parent.begin(), Parent.end(), 0u);
  }
  uint32_t find(uint32_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }
  void merge(uint32_t A, uint32_t B) { Parent[find(A)] = find(B); }

private:
  std::vector<uint32_t> Parent;
};

} // namespace

WebAnalysis::WebAnalysis(const IRFunction &F, const CFGInfo &CFG,
                         const ReachingDefs &RD) {
  telemetry::ScopedPhase Phase("analysis.webs");
  (void)CFG;
  const uint32_t NumDefs = static_cast<uint32_t>(RD.defs().size());
  UnionFind UF(NumDefs);

  // Walk each block forward, resolving every use's reaching defs: the
  // block's last def of the register so far, else the defs of it that
  // reach block entry. Merge all defs that reach one use (Definition 2:
  // if two U-D chains intersect, they are one value), and remember the
  // first; ~0u when none reaches. Def ids follow ReachingDefs'
  // numbering: parameters first, then instruction defs in this order.
  std::vector<UseSite> UseSites;
  std::vector<uint32_t> UseDef;
  std::vector<uint32_t> LocalDef(F.numRegs());
  std::vector<uint32_t> LocalDefIn(F.numRegs(), ~0u);
  uint32_t NextDef = F.numParams();
  for (const auto &B : F.blocks()) {
    const uint32_t Block = B->id();
    const BitSet &In = RD.reachIn(Block);
    for (uint32_t I = 0, E = static_cast<uint32_t>(B->insts().size());
         I != E; ++I) {
      const Instruction &Inst = B->insts()[I];
      for (const Operand &O : Inst.Ops) {
        if (!O.isReg())
          continue;
        const Reg R = O.getReg();
        uint32_t First = ~0u;
        if (LocalDefIn[R] == Block) {
          First = LocalDef[R];
        } else {
          for (uint32_t DefId : RD.defsOf(R)) {
            if (!In.test(DefId))
              continue;
            if (First == ~0u)
              First = DefId;
            else
              UF.merge(First, DefId);
          }
        }
        UseSites.push_back(UseSite{R, Block, I});
        UseDef.push_back(First);
      }
      if (Inst.Dst != NoReg) {
        assert(RD.defs()[NextDef].Block == Block &&
               RD.defs()[NextDef].Index == I && "def numbering drifted");
        LocalDef[Inst.Dst] = NextDef++;
        LocalDefIn[Inst.Dst] = Block;
      }
    }
  }

  // Group defs by representative into webs, numbered by their lowest
  // def id.
  std::vector<uint32_t> RepToWeb(NumDefs, ~0u);
  WebOfDef.assign(NumDefs, ~0u);
  for (uint32_t DefId = 0; DefId != NumDefs; ++DefId) {
    uint32_t &WebId = RepToWeb[UF.find(DefId)];
    if (WebId == ~0u) {
      WebId = static_cast<uint32_t>(Webs.size());
      Web W;
      W.Register = RD.defs()[DefId].Register;
      Webs.push_back(std::move(W));
    }
    WebOfDef[DefId] = WebId;
    Webs[WebId].DefIds.push_back(DefId);
    if (RD.defs()[DefId].isParam())
      Webs[WebId].IncludesParam = true;
  }

  UseWebs.resize(UseDef.size());
  for (size_t U = 0; U != UseDef.size(); ++U) {
    if (UseDef[U] == ~0u) {
      UseWebs[U] = ~0u; // Verifier rejects this; be defensive anyway.
      continue;
    }
    UseWebs[U] = WebOfDef[UseDef[U]];
    Webs[UseWebs[U]].Uses.push_back(UseSites[U]);
  }

  NumWebsBuilt.add(Webs.size());
}

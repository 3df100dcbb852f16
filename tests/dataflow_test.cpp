//===- dataflow_test.cpp - Dataflow analyses and their differential oracle ----===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/analysis/Liveness.h"
#include "urcm/analysis/MemoryLiveness.h"
#include "urcm/analysis/ReachingDefs.h"
#include "urcm/analysis/Webs.h"
#include "urcm/ir/Verifier.h"
#include "urcm/irgen/IRGen.h"
#include "urcm/pass/Analyses.h"
#include "urcm/pass/Passes.h"
#include "urcm/workloads/Workloads.h"

#include "IRTestHelpers.h"
#include "ProgramGenerator.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <map>
#include <optional>
#include <set>

#include <gtest/gtest.h>

using namespace urcm;
using urcm::testing::FuncBuilder;
using urcm::testing::ProgramGenerator;

TEST(Liveness, StraightLine) {
  IRModule M;
  M.addGlobal(IRGlobal{"g", 1, nullptr, 0});
  FuncBuilder B(M, "f");
  auto *Entry = B.block("entry");
  Reg A = B.reg();
  Reg C = B.reg();
  B.at(Entry).mov(A, 1);
  B.inst(Opcode::Add, C, {Operand::reg(A), Operand::imm(2)});
  B.store(C, Operand::global(0));
  B.ret();

  CFGInfo CFG(*B.function());
  Liveness LV(*B.function(), CFG);
  EXPECT_FALSE(LV.isLiveIn(Entry->id(), A));
  EXPECT_FALSE(LV.isLiveOut(Entry->id(), A));

  // Per-instruction: A is live after its def (mov) and dead after the
  // add consumes it.
  std::vector<BitSet> LiveAfter(4);
  LV.scanBlockBackward(*B.function(), Entry->id(),
                       [&](uint32_t Index, const BitSet &Live) {
                         LiveAfter[Index] = Live;
                       });
  EXPECT_TRUE(LiveAfter[0].test(A));  // After mov A.
  EXPECT_FALSE(LiveAfter[1].test(A)); // After add (last use of A).
  EXPECT_TRUE(LiveAfter[1].test(C));
  EXPECT_FALSE(LiveAfter[2].test(C)); // After store (last use of C).
}

TEST(Liveness, LoopCarried) {
  IRModule M;
  FuncBuilder B(M, "f", true, 1);
  auto *Entry = B.block("entry");
  auto *Loop = B.block("loop");
  auto *Exit = B.block("exit");
  Reg X = B.reg();
  B.at(Entry).mov(X, 0).br(Loop);
  B.at(Loop).add(X, X, 0).condbr(0, Loop, Exit);
  B.at(Exit).ret(X);

  CFGInfo CFG(*B.function());
  Liveness LV(*B.function(), CFG);
  // X is live around the loop and out of it.
  EXPECT_TRUE(LV.isLiveIn(Loop->id(), X));
  EXPECT_TRUE(LV.isLiveOut(Loop->id(), X));
  EXPECT_TRUE(LV.isLiveIn(Exit->id(), X));
  // The parameter (r0) is used by the loop condition and add.
  EXPECT_TRUE(LV.isLiveIn(Loop->id(), 0));
}

TEST(ReachingDefs, ParamPseudoDefs) {
  IRModule M;
  FuncBuilder B(M, "f", true, 2);
  auto *Entry = B.block("entry");
  Reg S = B.reg();
  B.at(Entry).add(S, 0, 1).ret(S);

  CFGInfo CFG(*B.function());
  ReachingDefs RD(*B.function(), CFG);
  // Defs: two params + one add.
  ASSERT_EQ(RD.defs().size(), 3u);
  EXPECT_TRUE(RD.defs()[0].isParam());
  EXPECT_TRUE(RD.defs()[1].isParam());
  EXPECT_FALSE(RD.defs()[2].isParam());

  auto Reaching = RD.reachingDefsAt(*B.function(), Entry->id(), 0, 0);
  ASSERT_EQ(Reaching.size(), 1u);
  EXPECT_TRUE(RD.defs()[Reaching[0]].isParam());
}

TEST(ReachingDefs, LocalKill) {
  IRModule M;
  FuncBuilder B(M, "f", true, 0);
  auto *Entry = B.block("entry");
  Reg X = B.reg();
  B.at(Entry).mov(X, 1).mov(X, 2).ret(X);

  CFGInfo CFG(*B.function());
  ReachingDefs RD(*B.function(), CFG);
  // The use in ret sees only the second def.
  auto Reaching = RD.reachingDefsAt(*B.function(), Entry->id(), 2, X);
  ASSERT_EQ(Reaching.size(), 1u);
  EXPECT_EQ(RD.defs()[Reaching[0]].Index, 1u);
}

TEST(ReachingDefs, MergeAtJoin) {
  IRModule M;
  FuncBuilder B(M, "f", true, 1);
  auto *Entry = B.block("entry");
  auto *Then = B.block("then");
  auto *Else = B.block("else");
  auto *Join = B.block("join");
  Reg X = B.reg();
  B.at(Entry).condbr(0, Then, Else);
  B.at(Then).mov(X, 1).br(Join);
  B.at(Else).mov(X, 2).br(Join);
  B.at(Join).ret(X);

  CFGInfo CFG(*B.function());
  ReachingDefs RD(*B.function(), CFG);
  auto Reaching = RD.reachingDefsAt(*B.function(), Join->id(), 0, X);
  EXPECT_EQ(Reaching.size(), 2u);
}

TEST(Webs, DisjointLifetimesSplit) {
  // The same register holds two unrelated values; Definition 2 splits
  // them into separate webs.
  IRModule M;
  M.addGlobal(IRGlobal{"g", 1, nullptr, 0});
  FuncBuilder B(M, "f");
  auto *Entry = B.block("entry");
  Reg X = B.reg();
  B.at(Entry).mov(X, 1);
  B.store(X, Operand::global(0)); // Last use of value 1.
  B.mov(X, 2);                    // Fresh value, same register.
  B.store(X, Operand::global(0));
  B.ret();

  CFGInfo CFG(*B.function());
  ReachingDefs RD(*B.function(), CFG);
  WebAnalysis WA(*B.function(), CFG, RD);
  EXPECT_EQ(WA.webs().size(), 2u);
}

TEST(Webs, JoinMergesDefs) {
  // Defs on both branch arms reach one use: a single web.
  IRModule M;
  FuncBuilder B(M, "f", true, 1);
  auto *Entry = B.block("entry");
  auto *Then = B.block("then");
  auto *Else = B.block("else");
  auto *Join = B.block("join");
  Reg X = B.reg();
  B.at(Entry).condbr(0, Then, Else);
  B.at(Then).mov(X, 1).br(Join);
  B.at(Else).mov(X, 2).br(Join);
  B.at(Join).ret(X);

  CFGInfo CFG(*B.function());
  ReachingDefs RD(*B.function(), CFG);
  WebAnalysis WA(*B.function(), CFG, RD);
  // Webs: the param web (r0) and the merged X web.
  uint32_t XWebs = 0;
  for (const Web &W : WA.webs())
    if (W.Register == X)
      ++XWebs;
  EXPECT_EQ(XWebs, 1u);
  for (const Web &W : WA.webs())
    if (W.Register == X) {
      EXPECT_EQ(W.DefIds.size(), 2u);
      EXPECT_EQ(W.Uses.size(), 1u);
    }
}

TEST(Webs, LoopValueSingleWeb) {
  IRModule M;
  FuncBuilder B(M, "f", true, 1);
  auto *Entry = B.block("entry");
  auto *Loop = B.block("loop");
  auto *Exit = B.block("exit");
  Reg X = B.reg();
  B.at(Entry).mov(X, 0).br(Loop);
  B.at(Loop).add(X, X, 0).condbr(0, Loop, Exit);
  B.at(Exit).ret(X);

  CFGInfo CFG(*B.function());
  ReachingDefs RD(*B.function(), CFG);
  WebAnalysis WA(*B.function(), CFG, RD);
  uint32_t XWebs = 0;
  for (const Web &W : WA.webs())
    if (W.Register == X)
      ++XWebs;
  // The init def and the loop-carried def share uses: one web.
  EXPECT_EQ(XWebs, 1u);
}

TEST(Webs, ParamWebFlagged) {
  IRModule M;
  FuncBuilder B(M, "f", true, 1);
  auto *Entry = B.block("entry");
  B.at(Entry).ret(0);
  CFGInfo CFG(*B.function());
  ReachingDefs RD(*B.function(), CFG);
  WebAnalysis WA(*B.function(), CFG, RD);
  ASSERT_EQ(WA.webs().size(), 1u);
  EXPECT_TRUE(WA.webs()[0].IncludesParam);
}

//===----------------------------------------------------------------------===//
// Differential oracle: the word-parallel analyses against naive std::set
// reference solutions written here, over every function of every
// workload at each pass boundary of the report's pipelines and over
// fuzz_test's generated programs. Each function is checked at its own
// register count and again padded to a multiple of 64, so the last word
// of every set is full.
//===----------------------------------------------------------------------===//

namespace {

using IdSet = std::set<uint32_t>;

IdSet toSet(const BitSet &Bits) {
  IdSet Out;
  for (size_t I = 0; I != Bits.numWords(); ++I)
    for (BitSet::Word W = Bits.words()[I]; W; W &= W - 1)
      Out.insert(static_cast<uint32_t>(I * BitSet::WordBits +
                                       std::countr_zero(W)));
  return Out;
}

std::vector<std::vector<uint32_t>> predecessors(const IRFunction &F) {
  std::vector<std::vector<uint32_t>> Preds(F.numBlocks());
  for (const auto &B : F.blocks())
    for (uint32_t Succ : B->successors())
      Preds[Succ].push_back(B->id());
  return Preds;
}

IdSet reachableBlocks(const IRFunction &F) {
  IdSet Seen{0};
  std::vector<uint32_t> Work{0};
  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    for (uint32_t Succ : F.block(B)->successors())
      if (Seen.insert(Succ).second)
        Work.push_back(Succ);
  }
  return Seen;
}

std::vector<Reg> usesOf(const Instruction &I) {
  std::vector<Reg> Uses;
  I.appendUses(Uses);
  return Uses;
}

/// Register liveness: live-in/live-out of every reachable block (the
/// unreachable ones stay empty, as in Liveness), then live-after of
/// every instruction.
void checkLiveness(const IRFunction &F, const std::string &Where) {
  const IdSet Reach = reachableBlocks(F);
  std::vector<IdSet> In(F.numBlocks()), Out(F.numBlocks());
  auto Backward = [&](uint32_t B, IdSet Live, auto &&Visit) {
    const auto &Insts = F.block(B)->insts();
    for (uint32_t I = static_cast<uint32_t>(Insts.size()); I-- > 0;) {
      Visit(I, Live);
      if (Insts[I].Dst != NoReg)
        Live.erase(Insts[I].Dst);
      for (Reg R : usesOf(Insts[I]))
        Live.insert(R);
    }
    return Live;
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (uint32_t B : Reach) {
      IdSet NewOut;
      for (uint32_t Succ : F.block(B)->successors())
        NewOut.insert(In[Succ].begin(), In[Succ].end());
      IdSet NewIn = Backward(B, NewOut, [](uint32_t, const IdSet &) {});
      if (NewOut != Out[B] || NewIn != In[B]) {
        Out[B] = NewOut;
        In[B] = NewIn;
        Changed = true;
      }
    }
  }

  CFGInfo CFG(F);
  Liveness LV(F, CFG);
  for (uint32_t B = 0; B != F.numBlocks(); ++B) {
    ASSERT_EQ(LV.liveIn(B).size(), F.numRegs()) << Where;
    EXPECT_EQ(toSet(LV.liveIn(B)), In[B]) << Where << " block " << B;
    EXPECT_EQ(toSet(LV.liveOut(B)), Out[B]) << Where << " block " << B;
    std::vector<IdSet> Expected(F.block(B)->insts().size());
    Backward(B, Out[B],
             [&](uint32_t I, const IdSet &Live) { Expected[I] = Live; });
    std::vector<IdSet> Actual(Expected.size());
    LV.scanBlockBackward(F, B, [&](uint32_t I, const BitSet &Live) {
      Actual[I] = toSet(Live);
    });
    EXPECT_EQ(Actual, Expected) << Where << " block " << B;
  }
}

/// Reaching definitions (entry sets and the defs reaching every use) and
/// the webs built from them.
void checkReachingDefsAndWebs(const IRFunction &F, const std::string &Where) {
  // Def sites: parameter pseudo-defs, then instruction defs in block
  // order.
  std::vector<DefSite> Defs;
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> DefAt;
  for (uint32_t P = 0; P != F.numParams(); ++P)
    Defs.push_back(DefSite{F.paramReg(P), 0, ~0u});
  for (const auto &B : F.blocks())
    for (uint32_t I = 0; I != B->insts().size(); ++I)
      if (B->insts()[I].Dst != NoReg) {
        DefAt[{B->id(), I}] = static_cast<uint32_t>(Defs.size());
        Defs.push_back(DefSite{B->insts()[I].Dst, B->id(), I});
      }

  // Reaching defs as (register, def id) pairs, so the defs of one
  // register are one range. Each def replaces every def of its
  // register. Forward calls \p Visit(Index, Reaching) before each
  // instruction.
  using DefSet = std::set<std::pair<Reg, uint32_t>>;
  auto Range = [](const DefSet &S, Reg R) {
    return std::make_pair(S.lower_bound({R, 0}), S.lower_bound({R + 1, 0}));
  };
  auto Forward = [&](uint32_t B, DefSet Reaching, auto &&Visit) {
    const auto &Insts = F.block(B)->insts();
    for (uint32_t I = 0; I != Insts.size(); ++I) {
      Visit(I, Reaching);
      if (Insts[I].Dst == NoReg)
        continue;
      auto [First, Last] = Range(Reaching, Insts[I].Dst);
      Reaching.erase(First, Last);
      Reaching.insert({Insts[I].Dst, DefAt.at({B, I})});
    }
    return Reaching;
  };
  const IdSet Reach = reachableBlocks(F);
  const auto Preds = predecessors(F);
  std::vector<DefSet> In(F.numBlocks()), Out(F.numBlocks());
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (uint32_t B : Reach) {
      DefSet NewIn;
      if (B == 0)
        for (uint32_t P = 0; P != F.numParams(); ++P)
          NewIn.insert({Defs[P].Register, P});
      for (uint32_t Pred : Preds[B])
        NewIn.insert(Out[Pred].begin(), Out[Pred].end());
      DefSet NewOut = Forward(B, NewIn, [](uint32_t, const DefSet &) {});
      if (NewIn != In[B] || NewOut != Out[B]) {
        In[B] = NewIn;
        Out[B] = NewOut;
        Changed = true;
      }
    }
  }

  CFGInfo CFG(F);
  ReachingDefs RD(F, CFG);
  ASSERT_EQ(RD.defs().size(), Defs.size()) << Where;
  for (uint32_t D = 0; D != Defs.size(); ++D) {
    EXPECT_EQ(RD.defs()[D].Register, Defs[D].Register) << Where;
    EXPECT_EQ(RD.defs()[D].Block, Defs[D].Block) << Where;
    EXPECT_EQ(RD.defs()[D].Index, Defs[D].Index) << Where;
  }

  // Webs: defs reaching one use are one web (a union-find over def
  // ids); webs are numbered by their lowest def id; each use belongs to
  // the web of its reaching defs.
  std::vector<uint32_t> Parent(Defs.size());
  for (uint32_t D = 0; D != Defs.size(); ++D)
    Parent[D] = D;
  auto Root = [&](uint32_t D) {
    while (Parent[D] != D)
      D = Parent[D];
    return D;
  };
  std::vector<std::vector<uint32_t>> UseDefs;
  for (const auto &B : F.blocks()) {
    IdSet ExpectedIn;
    for (const auto &[R, D] : In[B->id()])
      ExpectedIn.insert(D);
    EXPECT_EQ(toSet(RD.reachIn(B->id())), ExpectedIn)
        << Where << " block " << B->id();
    Forward(B->id(), In[B->id()], [&](uint32_t I, const DefSet &Reaching) {
      for (Reg R : usesOf(B->insts()[I])) {
        std::vector<uint32_t> Expected;
        auto [First, Last] = Range(Reaching, R);
        for (auto It = First; It != Last; ++It)
          Expected.push_back(It->second);
        EXPECT_EQ(RD.reachingDefsAt(F, B->id(), I, R), Expected)
            << Where << " block " << B->id() << " inst " << I << " r" << R;
        for (uint32_t D : Expected)
          Parent[Root(D)] = Root(Expected[0]);
        UseDefs.push_back(Expected);
      }
    });
  }
  std::map<uint32_t, uint32_t> WebOfRoot;
  std::vector<uint32_t> WebOfDef(Defs.size());
  for (uint32_t D = 0; D != Defs.size(); ++D)
    WebOfDef[D] = WebOfRoot
                      .try_emplace(Root(D),
                                   static_cast<uint32_t>(WebOfRoot.size()))
                      .first->second;
  std::vector<uint32_t> UseWebs;
  for (const auto &Reaching : UseDefs)
    UseWebs.push_back(Reaching.empty() ? ~0u : WebOfDef[Reaching[0]]);

  WebAnalysis WA(F, CFG, RD);
  EXPECT_EQ(WA.webs().size(), WebOfRoot.size()) << Where;
  for (uint32_t D = 0; D != Defs.size(); ++D)
    EXPECT_EQ(WA.webOfDef(D), WebOfDef[D]) << Where << " def " << D;
  EXPECT_EQ(WA.useWebs(), UseWebs) << Where;
}

/// Memory liveness: the LastRef and dead-store flags of every memory
/// instruction. Locations are (global?, id) pairs: scalar, non-escaping
/// globals and frame slots.
void checkMemoryLiveness(const IRModule &M, const IRFunction &F,
                         const AliasInfo &AA, const std::string &Where) {
  using Loc = std::pair<bool, uint32_t>;
  auto LocationOf = [&](const Instruction &I) -> std::optional<Loc> {
    const Operand &Addr = I.addressOperand();
    if (Addr.getOffset() != 0)
      return std::nullopt;
    if (Addr.isGlobal() && M.globals()[Addr.getId()].SizeWords == 1 &&
        !AA.objectEscapes(AA.objectForGlobal(Addr.getId())))
      return Loc{true, Addr.getId()};
    if (Addr.isFrame() && F.frameSlots()[Addr.getId()].SizeWords == 1 &&
        !AA.objectEscapes(AA.objectForFrame(Addr.getId())))
      return Loc{false, Addr.getId()};
    return std::nullopt;
  };
  std::set<Loc> Globals;
  for (uint32_t G = 0; G != M.globals().size(); ++G)
    if (M.globals()[G].SizeWords == 1 &&
        !AA.objectEscapes(AA.objectForGlobal(G)))
      Globals.insert(Loc{true, G});

  using Flags = MemoryLiveness::RefFlags;
  auto Backward = [&](uint32_t B, std::set<Loc> Live, auto &&Record) {
    const auto &Insts = F.block(B)->insts();
    for (uint32_t I = static_cast<uint32_t>(Insts.size()); I-- > 0;) {
      const Instruction &Inst = Insts[I];
      if (Inst.isCall())
        Live.insert(Globals.begin(), Globals.end());
      if (!Inst.isMemAccess())
        continue;
      std::optional<Loc> L = LocationOf(Inst);
      if (!L)
        continue;
      Flags RF;
      RF.Tracked = true;
      if (Inst.isStore()) {
        RF.DeadStore = !Live.count(*L);
        Live.erase(*L);
      } else {
        RF.LastRef = !Live.count(*L);
        Live.insert(*L);
      }
      Record(I, RF);
    }
    return Live;
  };
  const IdSet Reach = reachableBlocks(F);
  std::vector<std::set<Loc>> In(F.numBlocks()), Out(F.numBlocks());
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (uint32_t B : Reach) {
      std::set<Loc> NewOut;
      const auto Succs = F.block(B)->successors();
      if (Succs.empty())
        NewOut = Globals;
      for (uint32_t Succ : Succs)
        NewOut.insert(In[Succ].begin(), In[Succ].end());
      std::set<Loc> NewIn = Backward(B, NewOut, [](uint32_t, Flags) {});
      if (NewOut != Out[B] || NewIn != In[B]) {
        Out[B] = NewOut;
        In[B] = NewIn;
        Changed = true;
      }
    }
  }

  CFGInfo CFG(F);
  MemoryLiveness ML(M, F, CFG, AA);
  for (uint32_t B = 0; B != F.numBlocks(); ++B) {
    std::vector<Flags> Expected(F.block(B)->insts().size());
    Backward(B, Out[B], [&](uint32_t I, Flags RF) { Expected[I] = RF; });
    for (uint32_t I = 0; I != Expected.size(); ++I) {
      Flags Actual = ML.flags(B, I);
      EXPECT_EQ(Actual.Tracked, Expected[I].Tracked)
          << Where << " block " << B << " inst " << I;
      EXPECT_EQ(Actual.LastRef, Expected[I].LastRef)
          << Where << " block " << B << " inst " << I;
      EXPECT_EQ(Actual.DeadStore, Expected[I].DeadStore)
          << Where << " block " << B << " inst " << I;
    }
  }
}

/// Definite assignment: the greatest fixpoint from "every register
/// assigned", by round-robin over the blocks.
void checkDefiniteAssignment(const IRFunction &F, const std::string &Where) {
  IdSet All;
  for (uint32_t R = 0; R != F.numRegs(); ++R)
    All.insert(R);
  const auto Preds = predecessors(F);
  std::vector<IdSet> Out(F.numBlocks(), All);
  auto InOf = [&](uint32_t B) {
    IdSet In;
    if (B == 0) {
      for (uint32_t P = 0; P != F.numParams(); ++P)
        In.insert(F.paramReg(P));
      return In;
    }
    if (Preds[B].empty())
      return In;
    In = All;
    for (uint32_t Pred : Preds[B]) {
      IdSet Meet;
      std::set_intersection(In.begin(), In.end(), Out[Pred].begin(),
                            Out[Pred].end(),
                            std::inserter(Meet, Meet.begin()));
      In = Meet;
    }
    return In;
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (uint32_t B = 0; B != F.numBlocks(); ++B) {
      IdSet NewOut = InOf(B);
      for (const Instruction &I : F.block(B)->insts())
        if (I.Dst != NoReg)
          NewOut.insert(I.Dst);
      if (NewOut != Out[B]) {
        Out[B] = NewOut;
        Changed = true;
      }
    }
  }
  std::vector<BitSet> Assigned = definitelyAssignedIn(F);
  ASSERT_EQ(Assigned.size(), F.numBlocks()) << Where;
  for (uint32_t B = 0; B != F.numBlocks(); ++B)
    EXPECT_EQ(toSet(Assigned[B]), InOf(B)) << Where << " block " << B;
}

/// Runs every oracle over every function of \p M, at the function's own
/// register count and padded to the next multiple of 64.
void checkAllAnalyses(IRModule &M, AnalysisManager &AM,
                      const std::string &Where) {
  for (const auto &F : M.functions()) {
    const uint32_t NumRegs = F->numRegs();
    for (uint32_t Regs : {NumRegs, (NumRegs + 64) & ~63u}) {
      F->setNumRegs(Regs);
      std::string At = Where + " " + F->name() + " regs=" +
                       std::to_string(Regs);
      checkLiveness(*F, At);
      checkReachingDefsAndWebs(*F, At);
      checkMemoryLiveness(M, *F, AM.get<AliasAnalysisInfo>(*F), At);
      checkDefiniteAssignment(*F, At);
    }
    F->setNumRegs(NumRegs);
  }
}

/// Lowers \p Source and steps it through the report's pipelines — the
/// Figure-5 era compile (regalloc, unified) and the complete system
/// (promote, regalloc, unified) — checking every analysis on the input
/// IR and after each pass.
void checkPipelines(const std::string &Source, const std::string &Name) {
  struct Pipeline {
    const char *Label;
    bool Era;
    std::vector<std::unique_ptr<Pass>> (*Passes)();
  };
  const Pipeline Pipelines[] = {
      {"fig5", true,
       [] {
         std::vector<std::unique_ptr<Pass>> P;
         P.push_back(createRegAllocPass());
         P.push_back(createUnifiedManagementPass());
         return P;
       }},
      {"complete", false, [] {
         std::vector<std::unique_ptr<Pass>> P;
         P.push_back(createPromotePass());
         P.push_back(createRegAllocPass());
         P.push_back(createUnifiedManagementPass());
         return P;
       }}};
  for (const Pipeline &PL : Pipelines) {
    DiagnosticEngine Diags;
    IRGenOptions IRGen;
    IRGen.ScalarLocalsInMemory = PL.Era;
    CompiledModule Module = compileToIR(Source, Diags, IRGen);
    ASSERT_TRUE(static_cast<bool>(Module)) << Name << ": " << Diags.str();
    IRModule &M = *Module.IR;
    AnalysisManager AM(M);
    PipelineState State;
    State.Diags = &Diags;
    std::string Where = Name + " " + PL.Label + " input";
    checkAllAnalyses(M, AM, Where);
    for (const auto &P : PL.Passes()) {
      AM.invalidate(P->run(M, AM, State));
      ASSERT_FALSE(State.Failed) << Name << ": " << Diags.str();
      Where = Name + " " + PL.Label + " after " + P->name();
      checkAllAnalyses(M, AM, Where);
      if (::testing::Test::HasFailure())
        return;
    }
  }
}

} // namespace

TEST(DataflowOracle, EveryWorkloadAtEveryPassBoundary) {
  for (const auto *Set : {&paperWorkloads(), &extendedWorkloads()})
    for (const Workload &W : *Set)
      checkPipelines(W.Source, W.Name);
}

class DataflowOracleFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DataflowOracleFuzz, GeneratedProgram) {
  checkPipelines(ProgramGenerator(GetParam()).generate(),
                 "seed " + std::to_string(GetParam()));
}

// The seeds fuzz_test runs.
INSTANTIATE_TEST_SUITE_P(Seeds, DataflowOracleFuzz,
                         ::testing::Range<uint64_t>(1, 41));

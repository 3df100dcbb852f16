//===- ValueNumbering.cpp - Local value numbering ------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/transforms/ValueNumbering.h"

#include "urcm/analysis/AliasAnalysis.h"

#include <algorithm>
#include <map>
#include <vector>

using namespace urcm;

namespace {

/// Canonical operand for hashing: either a value number (for registers)
/// or the literal operand payload.
struct CanonOperand {
  enum class Kind { VN, Imm, Global, Frame } K;
  int64_t A = 0; // VN id / immediate / object id.
  int64_t B = 0; // Offset for Global/Frame.

  bool operator<(const CanonOperand &RHS) const {
    return std::tie(K, A, B) < std::tie(RHS.K, RHS.A, RHS.B);
  }
  bool operator==(const CanonOperand &RHS) const {
    return K == RHS.K && A == RHS.A && B == RHS.B;
  }
};

/// Expression key: opcode plus canonical operands.
struct ExprKey {
  Opcode Op;
  std::vector<CanonOperand> Ops;

  bool operator<(const ExprKey &RHS) const {
    return std::tie(Op, Ops) < std::tie(RHS.Op, RHS.Ops);
  }
};

/// Memory address key: (base canonical operand, offset).
struct AddrKey {
  CanonOperand Base;
  int32_t Offset;

  bool operator<(const AddrKey &RHS) const {
    return std::tie(Base, Offset) < std::tie(RHS.Base, RHS.Offset);
  }
};

bool isCommutative(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
    return true;
  default:
    return false;
  }
}

bool isPureComputation(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::Neg:
  case Opcode::Not:
    return true;
  default:
    return false;
  }
}

class BlockNumberer {
public:
  BlockNumberer(const IRModule &M, IRFunction &F, const AliasInfo &AA,
                ValueNumberingStats &Stats)
      : M(M), F(F), AA(AA), Stats(Stats) {}

  void run(BasicBlock &B) {
    VNOfReg.assign(F.numRegs(), -1);
    NextVN = 0;
    Exprs.clear();
    RegHoldingVN.clear();
    Memory.clear();

    for (Instruction &I : B.insts())
      visit(I);
  }

private:
  int64_t freshVN() { return NextVN++; }

  int64_t vnOfReg(Reg R) {
    if (VNOfReg[R] < 0)
      VNOfReg[R] = freshVN();
    return VNOfReg[R];
  }

  /// Canonicalizes an operand for hashing; returns false for operand
  /// kinds that should not participate (blocks, functions).
  bool canonicalize(const Operand &O, CanonOperand &Out) {
    switch (O.kind()) {
    case Operand::Kind::Reg:
      if (O.getOffset() != 0)
        return false; // Address-mode register operand.
      Out = {CanonOperand::Kind::VN, vnOfReg(O.getReg()), 0};
      return true;
    case Operand::Kind::Imm:
      Out = {CanonOperand::Kind::Imm, O.getImm(), 0};
      return true;
    case Operand::Kind::Global:
      Out = {CanonOperand::Kind::Global, O.getId(), O.getOffset()};
      return true;
    case Operand::Kind::Frame:
      Out = {CanonOperand::Kind::Frame, O.getId(), O.getOffset()};
      return true;
    default:
      return false;
    }
  }

  /// Canonical key for a memory address operand.
  bool addressKey(const Operand &Addr, AddrKey &Out) {
    switch (Addr.kind()) {
    case Operand::Kind::Reg:
      Out.Base = {CanonOperand::Kind::VN, vnOfReg(Addr.getReg()), 0};
      Out.Offset = Addr.getOffset();
      return true;
    case Operand::Kind::Global:
      Out.Base = {CanonOperand::Kind::Global, Addr.getId(), 0};
      Out.Offset = Addr.getOffset();
      return true;
    case Operand::Kind::Frame:
      Out.Base = {CanonOperand::Kind::Frame, Addr.getId(), 0};
      Out.Offset = Addr.getOffset();
      return true;
    default:
      return false;
    }
  }

  /// May a store to \p StoreAddr modify the location \p Key describes?
  bool mayAliasKey(const Instruction &Store, const AddrKey &Key) {
    const Operand &SA = Store.addressOperand();
    AddrKey StoreKey{};
    if (addressKey(SA, StoreKey)) {
      if (StoreKey.Base == Key.Base)
        return StoreKey.Offset == Key.Offset; // Same base: exact offsets.
    }
    // Different bases: consult the object machinery. Direct object
    // bases are disjoint when the objects differ; register bases may
    // reach anything in their points-to set.
    auto ObjectsOf =
        [&](const CanonOperand &Base) -> std::vector<uint32_t> {
      switch (Base.K) {
      case CanonOperand::Kind::Global:
        return {AA.objectForGlobal(static_cast<uint32_t>(Base.A))};
      case CanonOperand::Kind::Frame:
        return {AA.objectForFrame(static_cast<uint32_t>(Base.A))};
      default:
        return {}; // Unknown (register base): resolved below.
      }
    };
    std::vector<uint32_t> KeyObjects = ObjectsOf(Key.Base);
    std::vector<uint32_t> StoreObjects;
    if (SA.isReg()) {
      StoreObjects = AA.pointsTo(SA.getReg());
      if (StoreObjects.empty())
        return true; // Unknown pointer: assume aliasing.
    } else {
      StoreObjects = ObjectsOf(StoreKey.Base);
    }
    if (KeyObjects.empty())
      return true; // Register-based key vs different base: be safe.
    for (uint32_t KO : KeyObjects) {
      for (uint32_t SO : StoreObjects)
        if (KO == SO || SO == AA.externalObject())
          return true;
      // External on the store side covers escaped objects.
      if (std::find(StoreObjects.begin(), StoreObjects.end(),
                    AA.externalObject()) != StoreObjects.end() &&
          AA.objectEscapes(KO))
        return true;
    }
    return false;
  }

  void killRegister(Reg R) {
    // The register changes identity. Stale *keys* referring to its old
    // VN can never match again (fresh VNs are handed out), but entries
    // whose *value* is this register would forward the new value:
    // scrub them.
    VNOfReg[R] = -1;
    for (auto It = RegHoldingVN.begin(); It != RegHoldingVN.end();) {
      if (It->second == R)
        It = RegHoldingVN.erase(It);
      else
        ++It;
    }
    for (auto It = Memory.begin(); It != Memory.end();) {
      if (It->second.isReg() && It->second.getReg() == R)
        It = Memory.erase(It);
      else
        ++It;
    }
  }

  void visit(Instruction &I) {
    // 1. Pure computations: reuse an available value when possible.
    if (isPureComputation(I.Op) && I.Dst != NoReg) {
      ExprKey Key{I.Op, {}};
      bool Canonical = true;
      for (const Operand &O : I.Ops) {
        CanonOperand C{};
        if (!canonicalize(O, C)) {
          Canonical = false;
          break;
        }
        Key.Ops.push_back(C);
      }
      if (Canonical && isCommutative(I.Op) && Key.Ops.size() == 2 &&
          !(Key.Ops[0] < Key.Ops[1]))
        std::swap(Key.Ops[0], Key.Ops[1]);

      if (Canonical) {
        auto It = Exprs.find(Key);
        if (It != Exprs.end()) {
          auto HolderIt = RegHoldingVN.find(It->second);
          if (HolderIt != RegHoldingVN.end() &&
              HolderIt->second != I.Dst) {
            Reg Holder = HolderIt->second;
            Reg Dst = I.Dst;
            killRegister(Dst);
            I = Instruction(Opcode::Mov, Dst,
                            {Operand::reg(Holder)}, I.Loc);
            VNOfReg[Dst] = It->second;
            ++Stats.RedundantComputations;
            return;
          }
        }
        Reg Dst = I.Dst;
        killRegister(Dst);
        int64_t VN = freshVN();
        VNOfReg[Dst] = VN;
        Exprs[Key] = VN;
        RegHoldingVN[VN] = Dst;
        return;
      }
      // Fall through: uncanonical operands, treat as opaque def.
    }

    switch (I.Op) {
    case Opcode::Mov: {
      Reg Dst = I.Dst;
      const Operand &Src = I.Ops[0];
      if (Src.isReg() && Src.getOffset() == 0) {
        int64_t VN = vnOfReg(Src.getReg());
        killRegister(Dst);
        VNOfReg[Dst] = VN;
        // Do not claim VN ownership: the source register keeps it.
        return;
      }
      if (Src.isImm()) {
        ExprKey Key{Opcode::Mov,
                    {{CanonOperand::Kind::Imm, Src.getImm(), 0}}};
        killRegister(Dst);
        auto It = Exprs.find(Key);
        if (It != Exprs.end()) {
          VNOfReg[Dst] = It->second;
          return;
        }
        int64_t VN = freshVN();
        VNOfReg[Dst] = VN;
        Exprs[Key] = VN;
        RegHoldingVN[VN] = Dst;
        return;
      }
      killRegister(Dst);
      return;
    }
    case Opcode::Load: {
      AddrKey Key{};
      bool HaveKey = addressKey(I.Ops[0], Key);
      Reg Dst = I.Dst;
      if (HaveKey) {
        auto It = Memory.find(Key);
        if (It != Memory.end()) {
          // Forward the known value (kept fresh by killRegister).
          Operand Known = It->second;
          killRegister(Dst);
          I = Instruction(Opcode::Mov, Dst, {Known}, I.Loc);
          if (Known.isReg())
            VNOfReg[Dst] = vnOfReg(Known.getReg());
          ++Stats.ForwardedLoads;
          return;
        }
      }
      killRegister(Dst);
      if (HaveKey)
        Memory[Key] = Operand::reg(Dst);
      return;
    }
    case Opcode::Store: {
      // Kill every remembered location the store may alias.
      for (auto It = Memory.begin(); It != Memory.end();) {
        if (mayAliasKey(I, It->first))
          It = Memory.erase(It);
        else
          ++It;
      }
      AddrKey Key{};
      if (addressKey(I.Ops[1], Key)) {
        const Operand &Value = I.Ops[0];
        if (Value.isImm() ||
            (Value.isReg() && Value.getOffset() == 0))
          Memory[Key] = Value;
      }
      return;
    }
    case Opcode::Call:
      Memory.clear(); // The callee may write anything reachable.
      if (I.Dst != NoReg)
        killRegister(I.Dst);
      return;
    default:
      if (I.Dst != NoReg)
        killRegister(I.Dst);
      return;
    }
  }

  [[maybe_unused]] const IRModule &M;
  IRFunction &F;
  const AliasInfo &AA;
  ValueNumberingStats &Stats;

  std::vector<int64_t> VNOfReg;
  int64_t NextVN = 0;
  std::map<ExprKey, int64_t> Exprs;
  std::map<int64_t, Reg> RegHoldingVN;
  std::map<AddrKey, Operand> Memory;
};

} // namespace

ValueNumberingStats urcm::numberValues(IRModule &M, IRFunction &F,
                                       const AliasInfo &AA) {
  ValueNumberingStats Stats;
  BlockNumberer BN(M, F, AA, Stats);
  for (const auto &B : F.blocks())
    BN.run(*B);
  return Stats;
}

//===- IRParser.cpp - Textual IR parser ----------------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/ir/IRParser.h"

#include "urcm/support/StringUtils.h"

#include <cctype>
#include <charconv>
#include <cstring>
#include <map>
#include <optional>
#include <utility>
#include <vector>

using namespace urcm;

namespace {

/// Splits \p Text into lines (without terminators).
std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  size_t Start = 0;
  while (Start <= Text.size()) {
    size_t End = Text.find('\n', Start);
    if (End == std::string::npos) {
      if (Start < Text.size())
        Lines.push_back(Text.substr(Start));
      break;
    }
    Lines.push_back(Text.substr(Start, End - Start));
    Start = End + 1;
  }
  return Lines;
}

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t");
  return S.substr(B, E - B + 1);
}

/// Cursor over one line.
class LineCursor {
public:
  explicit LineCursor(const std::string &Line) : Line(Line) {}

  void skipSpace() {
    while (Pos < Line.size() && Line[Pos] == ' ')
      ++Pos;
  }
  bool atEnd() {
    skipSpace();
    return Pos >= Line.size();
  }
  char peek() {
    skipSpace();
    return Pos < Line.size() ? Line[Pos] : '\0';
  }
  bool consume(char C) {
    skipSpace();
    if (Pos < Line.size() && Line[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  bool consumeWord(const char *Word) {
    skipSpace();
    size_t Len = std::strlen(Word);
    if (Line.compare(Pos, Len, Word) == 0) {
      Pos += Len;
      return true;
    }
    return false;
  }
  /// Reads an identifier-ish token [A-Za-z0-9_.]+.
  std::string ident() {
    skipSpace();
    size_t Begin = Pos;
    while (Pos < Line.size() &&
           (std::isalnum(static_cast<unsigned char>(Line[Pos])) ||
            Line[Pos] == '_' || Line[Pos] == '.'))
      ++Pos;
    return Line.substr(Begin, Pos - Begin);
  }
  /// Reads an optionally signed decimal integer. A numeral that does
  /// not fit in int64_t is consumed and yields std::nullopt, and is
  /// remembered in badNumeral() so the caller can report it.
  std::optional<int64_t> integer() {
    skipSpace();
    size_t Begin = Pos;
    if (Pos < Line.size() && (Line[Pos] == '-' || Line[Pos] == '+'))
      ++Pos;
    size_t DigitsBegin = Pos;
    while (Pos < Line.size() &&
           std::isdigit(static_cast<unsigned char>(Line[Pos])))
      ++Pos;
    if (Pos == DigitsBegin) {
      Pos = Begin;
      return std::nullopt;
    }
    // from_chars takes a leading '-' but not '+'.
    const size_t From = Line[Begin] == '+' ? DigitsBegin : Begin;
    int64_t Value = 0;
    if (std::from_chars(Line.data() + From, Line.data() + Pos, Value).ec !=
        std::errc()) {
      if (BadNumeral.empty())
        BadNumeral = Line.substr(Begin, Pos - Begin);
      return std::nullopt;
    }
    return Value;
  }
  std::string rest() { return Line.substr(std::min(Pos, Line.size())); }
  /// The first numeral integer() could not represent, or empty.
  const std::string &badNumeral() const { return BadNumeral; }

private:
  const std::string &Line;
  size_t Pos = 0;
  std::string BadNumeral;
};

/// Parses the decimal register number \p Digits; nullopt if it names no
/// register (NoReg and beyond).
std::optional<Reg> parseRegNumber(const std::string &Digits) {
  Reg Value = 0;
  const char *End = Digits.data() + Digits.size();
  auto [Ptr, EC] = std::from_chars(Digits.data(), End, Value);
  if (EC != std::errc() || Ptr != End || Value == NoReg)
    return std::nullopt;
  return Value;
}

struct NameTables {
  std::map<std::string, uint32_t> Globals;
  std::map<std::string, uint32_t> Functions;
};

class Parser {
public:
  Parser(const std::string &Text, DiagnosticEngine &Diags)
      : Lines(splitLines(Text)), Diags(Diags) {}

  std::unique_ptr<IRModule> run() {
    M = std::make_unique<IRModule>();
    // Pass 1: globals and function signatures (needed for call targets).
    for (size_t Index = 0; Index != Lines.size(); ++Index) {
      std::string Line = trim(Lines[Index]);
      if (startsWith(Line, "global "))
        parseGlobal(Index, Line);
      else if (startsWith(Line, "func "))
        parseFunctionHeader(Index, Line, /*CreateOnly=*/true);
    }
    if (Failed)
      return nullptr;

    // Pass 2: bodies.
    CurFunc = nullptr;
    for (size_t Index = 0; Index != Lines.size(); ++Index) {
      std::string Line = trim(Lines[Index]);
      if (Line.empty() || startsWith(Line, "global "))
        continue;
      if (startsWith(Line, "func ")) {
        parseFunctionHeader(Index, Line, /*CreateOnly=*/false);
        // Pre-create blocks in label order so ids match the printed
        // order even when branches reference blocks before their labels.
        for (size_t Ahead = Index + 1; Ahead != Lines.size(); ++Ahead) {
          std::string Next = trim(Lines[Ahead]);
          if (startsWith(Next, "func "))
            break;
          if (!Next.empty() && Next.front() == '.' &&
              Next.back() == ':')
            blockFor(Next.substr(1, Next.size() - 2));
        }
        continue;
      }
      if (!CurFunc) {
        error(Index, "statement outside a function");
        continue;
      }
      if (startsWith(Line, "frame ")) {
        parseFrameSlot(Index, Line);
        continue;
      }
      if (Line.front() == '.' && Line.back() == ':') {
        std::string Name = Line.substr(1, Line.size() - 2);
        CurBlock = blockFor(Name);
        continue;
      }
      if (!CurBlock) {
        error(Index, "instruction outside a block");
        continue;
      }
      parseInstruction(Index, Line);
    }
    if (Failed)
      return nullptr;
    return std::move(M);
  }

private:
  void error(size_t LineIndex, const std::string &Message) {
    Failed = true;
    Diags.error(SourceLoc(static_cast<uint32_t>(LineIndex + 1), 1),
                Message);
  }

  /// Reports the first numeral on \p C's line that did not fit; true if
  /// there was one.
  bool badNumeral(size_t LineIndex, const LineCursor &C) {
    if (C.badNumeral().empty())
      return false;
    error(LineIndex, formatString("integer '%s' out of range",
                                  C.badNumeral().c_str()));
    return true;
  }

  /// \p Value narrowed to \p T, or a line-numbered "<What> 'V' out of
  /// range" diagnostic and nullopt when \p T cannot hold it.
  template <typename T>
  std::optional<T> narrowed(size_t LineIndex, int64_t Value,
                            const char *What) {
    if (std::in_range<T>(Value))
      return static_cast<T>(Value);
    error(LineIndex, formatString("%s '%lld' out of range", What,
                                  static_cast<long long>(Value)));
    return std::nullopt;
  }

  /// Register number \p Value, or a diagnostic and nullopt if it names
  /// no register (negative, NoReg and beyond).
  std::optional<Reg> regNumber(size_t LineIndex, int64_t Value) {
    if (Value >= 0 && Value < static_cast<int64_t>(NoReg))
      return static_cast<Reg>(Value);
    error(LineIndex, formatString("register number 'r%lld' out of range",
                                  static_cast<long long>(Value)));
    return std::nullopt;
  }

  /// Register number \p Digits, or a diagnostic and nullopt if it names
  /// no register.
  std::optional<Reg> regNumber(size_t LineIndex, const std::string &Digits) {
    std::optional<Reg> R = parseRegNumber(Digits);
    if (!R)
      error(LineIndex, formatString("register number 'r%s' out of range",
                                    Digits.c_str()));
    return R;
  }

  void parseGlobal(size_t LineIndex, const std::string &Line) {
    // global @name : N words
    LineCursor C(Line);
    C.consumeWord("global");
    if (!C.consume('@'))
      return;
    std::string Name = C.ident();
    C.consume(':');
    auto Size = C.integer();
    if (badNumeral(LineIndex, C))
      return;
    std::optional<uint32_t> Words =
        narrowed<uint32_t>(LineIndex, Size.value_or(1), "global size");
    if (!Words)
      return;
    if (Names.Globals.count(Name))
      return; // Pass-2 revisit.
    uint32_t Id = M->addGlobal(IRGlobal{Name, *Words, nullptr, 0});
    Names.Globals[Name] = Id;
  }

  void parseFunctionHeader(size_t LineIndex, const std::string &Line,
                           bool CreateOnly) {
    // func name(params=P, regs=R, returns=T[, paramregs=[rA rB]])
    LineCursor C(Line);
    C.consumeWord("func");
    std::string Name = C.ident();
    C.consume('(');
    C.consumeWord("params=");
    int64_t Params = C.integer().value_or(0);
    C.consume(',');
    C.consumeWord("regs=");
    int64_t Regs = C.integer().value_or(0);
    C.consume(',');
    C.consumeWord("returns=");
    std::string Returns = C.ident();
    std::vector<int64_t> ParamRegNumbers;
    if (C.consume(',')) {
      C.consumeWord("paramregs=");
      C.consume('[');
      while (C.consume('r')) {
        ParamRegNumbers.push_back(C.integer().value_or(0));
        C.skipSpace();
      }
      C.consume(']');
    }
    if (badNumeral(LineIndex, C))
      return;
    std::optional<uint32_t> NumParams =
        narrowed<uint32_t>(LineIndex, Params, "params count");
    std::optional<uint32_t> NumRegs =
        narrowed<uint32_t>(LineIndex, Regs, "regs count");
    if (!NumParams || !NumRegs)
      return;
    std::vector<Reg> ParamRegs;
    for (int64_t Number : ParamRegNumbers) {
      std::optional<Reg> R = regNumber(LineIndex, Number);
      if (!R)
        return;
      ParamRegs.push_back(*R);
    }

    if (CreateOnly) {
      if (Names.Functions.count(Name))
        return;
      IRFunction *F = M->addFunction(Name, Returns == "int", *NumParams);
      Names.Functions[Name] = F->id();
      return;
    }

    CurFunc = M->function(Names.Functions.at(Name));
    CurFunc->setNumRegs(*NumRegs);
    for (uint32_t P = 0; P != ParamRegs.size(); ++P)
      CurFunc->setParamReg(P, ParamRegs[P]);
    CurBlock = nullptr;
    BlockIds.clear();
  }

  void parseFrameSlot(size_t LineIndex, const std::string &Line) {
    // frame %name : N words [(spill)]
    LineCursor C(Line);
    C.consumeWord("frame");
    if (!C.consume('%')) {
      error(LineIndex, "expected %name in frame declaration");
      return;
    }
    std::string Name = C.ident();
    C.consume(':');
    int64_t Size = C.integer().value_or(1);
    if (badNumeral(LineIndex, C))
      return;
    std::optional<uint32_t> Words =
        narrowed<uint32_t>(LineIndex, Size, "frame slot size");
    if (!Words)
      return;
    bool IsSpill = Line.find("(spill)") != std::string::npos;
    CurFunc->addFrameSlot(IRFrameSlot{
        Name, *Words,
        IsSpill ? FrameSlotKind::Spill : FrameSlotKind::LocalVar, nullptr,
        0});
  }

  BasicBlock *blockFor(const std::string &Name) {
    auto It = BlockIds.find(Name);
    if (It != BlockIds.end())
      return CurFunc->block(It->second);
    BasicBlock *B = CurFunc->addBlock(Name);
    BlockIds[Name] = B->id();
    return B;
  }

  /// Frame slot id by name (slots are declared before use).
  std::optional<uint32_t> frameIdFor(const std::string &Name) {
    for (uint32_t S = 0; S != CurFunc->frameSlots().size(); ++S)
      if (CurFunc->frameSlots()[S].Name == Name)
        return S;
    return std::nullopt;
  }

  /// True if \p Name is a register spelling (r followed by digits only).
  static bool isRegisterName(const std::string &Name) {
    if (Name.size() < 2 || Name[0] != 'r')
      return false;
    for (size_t I = 1; I != Name.size(); ++I)
      if (!std::isdigit(static_cast<unsigned char>(Name[I])))
        return false;
    return true;
  }

  std::optional<Operand> parseOperand(size_t LineIndex, LineCursor &C) {
    C.skipSpace();
    char Next = C.peek();
    if (Next == '[') {
      // [r5+3]: register with addressing offset.
      C.consume('[');
      C.consume('r');
      auto RegNo = C.integer();
      if (!RegNo) {
        if (!badNumeral(LineIndex, C))
          error(LineIndex, "malformed register operand");
        return std::nullopt;
      }
      std::optional<Reg> R = regNumber(LineIndex, *RegNo);
      if (!R)
        return std::nullopt;
      int64_t Offset = C.integer().value_or(0);
      if (badNumeral(LineIndex, C))
        return std::nullopt;
      std::optional<int32_t> Off =
          narrowed<int32_t>(LineIndex, Offset, "offset");
      if (!Off)
        return std::nullopt;
      C.consume(']');
      return Operand::reg(*R, *Off);
    }
    if (Next == '@') {
      C.consume('@');
      std::string Name = C.ident();
      auto It = Names.Globals.find(Name);
      if (It == Names.Globals.end()) {
        error(LineIndex, formatString("unknown global '@%s'",
                                      Name.c_str()));
        return std::nullopt;
      }
      int64_t Offset = C.integer().value_or(0);
      if (badNumeral(LineIndex, C))
        return std::nullopt;
      std::optional<int32_t> Off =
          narrowed<int32_t>(LineIndex, Offset, "offset");
      if (!Off)
        return std::nullopt;
      return Operand::global(It->second, *Off);
    }
    if (Next == '%') {
      C.consume('%');
      std::string Name = C.ident();
      auto Slot = frameIdFor(Name);
      if (!Slot) {
        error(LineIndex, formatString("unknown frame slot '%%%s'",
                                      Name.c_str()));
        return std::nullopt;
      }
      int64_t Offset = C.integer().value_or(0);
      if (badNumeral(LineIndex, C))
        return std::nullopt;
      std::optional<int32_t> Off =
          narrowed<int32_t>(LineIndex, Offset, "offset");
      if (!Off)
        return std::nullopt;
      return Operand::frame(*Slot, *Off);
    }
    if (Next == '.') {
      C.consume('.');
      std::string Name = C.ident();
      return Operand::block(blockFor(Name)->id());
    }
    if (Next == '-' || Next == '+' ||
        std::isdigit(static_cast<unsigned char>(Next))) {
      auto Value = C.integer();
      if (!Value) {
        if (!badNumeral(LineIndex, C))
          error(LineIndex, "malformed immediate");
        return std::nullopt;
      }
      return Operand::imm(*Value);
    }
    // Bare identifier: a register (r<digits>) or a function reference.
    std::string Name = C.ident();
    if (isRegisterName(Name)) {
      std::optional<Reg> R = regNumber(LineIndex, Name.substr(1));
      if (!R)
        return std::nullopt;
      return Operand::reg(*R);
    }
    auto It = Names.Functions.find(Name);
    if (It == Names.Functions.end()) {
      error(LineIndex,
            formatString("unknown operand '%s'", Name.c_str()));
      return std::nullopt;
    }
    return Operand::func(It->second);
  }

  std::optional<Opcode> opcodeByName(const std::string &Name) {
    static const std::map<std::string, Opcode> Table = {
        {"add", Opcode::Add},       {"sub", Opcode::Sub},
        {"mul", Opcode::Mul},       {"div", Opcode::Div},
        {"rem", Opcode::Rem},       {"and", Opcode::And},
        {"or", Opcode::Or},         {"xor", Opcode::Xor},
        {"shl", Opcode::Shl},       {"shr", Opcode::Shr},
        {"cmplt", Opcode::CmpLt},   {"cmple", Opcode::CmpLe},
        {"cmpgt", Opcode::CmpGt},   {"cmpge", Opcode::CmpGe},
        {"cmpeq", Opcode::CmpEq},   {"cmpne", Opcode::CmpNe},
        {"neg", Opcode::Neg},       {"not", Opcode::Not},
        {"mov", Opcode::Mov},       {"load", Opcode::Load},
        {"store", Opcode::Store},   {"call", Opcode::Call},
        {"print", Opcode::Print},   {"br", Opcode::Br},
        {"condbr", Opcode::CondBr}, {"ret", Opcode::Ret},
    };
    auto It = Table.find(Name);
    if (It == Table.end())
      return std::nullopt;
    return It->second;
  }

  void parseInstruction(size_t LineIndex, const std::string &Line) {
    // Split off annotation tags ("!um !bypass !lastref").
    std::string Body = Line;
    MemRefInfo Info;
    size_t Bang = Body.find(" !");
    if (Bang != std::string::npos) {
      std::string Tags = Body.substr(Bang);
      Body = trim(Body.substr(0, Bang));
      auto Has = [&](const char *Tag) {
        return Tags.find(Tag) != std::string::npos;
      };
      if (Has("!am"))
        Info.Class = RefClass::Ambiguous;
      if (Has("!um"))
        Info.Class = RefClass::Unambiguous;
      if (Has("!spill"))
        Info.Class = RefClass::Spill;
      if (Has("!reload"))
        Info.Class = RefClass::SpillReload;
      Info.Bypass = Has("!bypass");
      Info.LastRef = Has("!lastref");
    }

    // Optional "rN = " destination prefix.
    Reg Dst = NoReg;
    if (Body.size() > 1 && Body[0] == 'r' &&
        std::isdigit(static_cast<unsigned char>(Body[1]))) {
      size_t DigitsEnd = 1;
      while (DigitsEnd < Body.size() &&
             std::isdigit(static_cast<unsigned char>(Body[DigitsEnd])))
        ++DigitsEnd;
      size_t EqPos = DigitsEnd;
      while (EqPos < Body.size() && Body[EqPos] == ' ')
        ++EqPos;
      if (EqPos < Body.size() && Body[EqPos] == '=') {
        std::optional<Reg> R =
            regNumber(LineIndex, Body.substr(1, DigitsEnd - 1));
        if (!R)
          return;
        Dst = *R;
        Body = trim(Body.substr(EqPos + 1));
      }
    }

    LineCursor C(Body);
    std::string Mnemonic = C.ident();
    auto Op = opcodeByName(Mnemonic);
    if (!Op) {
      error(LineIndex, formatString("unknown opcode '%s'",
                                    Mnemonic.c_str()));
      return;
    }

    std::vector<Operand> Ops;
    while (!C.atEnd()) {
      auto O = parseOperand(LineIndex, C);
      if (!O)
        return;
      Ops.push_back(*O);
      if (!C.consume(','))
        break;
    }

    Instruction I(*Op, Dst, std::move(Ops));
    I.MemInfo = Info;
    CurBlock->insts().push_back(std::move(I));
  }

  std::vector<std::string> Lines;
  DiagnosticEngine &Diags;
  std::unique_ptr<IRModule> M;
  NameTables Names;
  IRFunction *CurFunc = nullptr;
  BasicBlock *CurBlock = nullptr;
  std::map<std::string, uint32_t> BlockIds;
  bool Failed = false;
};

} // namespace

std::unique_ptr<IRModule> urcm::parseIR(const std::string &Text,
                                        DiagnosticEngine &Diags) {
  Parser P(Text, Diags);
  return P.run();
}

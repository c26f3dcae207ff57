//===- WamCompiler.cpp - WAM-style clause compiler ----------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "wamlite/WamCompiler.h"

#include "reader/Parser.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

using namespace lpa;

namespace {

/// Per-clause compilation context: variable classification and register
/// assignment.
class ClauseContext {
public:
  ClauseContext(const TermStore &Store, const SymbolTable &Symbols,
                std::vector<WamInstr> &Code)
      : Store(Store), Symbols(Symbols), Code(Code) {}

  const TermStore &Store;
  const SymbolTable &Symbols;
  std::vector<WamInstr> &Code;

  /// Permanent (environment) variables and their Y indexes.
  std::unordered_map<TermRef, uint32_t> Permanent;
  /// Temporary variables and their X registers.
  std::unordered_map<TermRef, uint32_t> Temporary;
  /// Variables already materialized (second occurrence => Value form).
  std::unordered_set<TermRef> Seen;
  uint32_t NextTemp = 0;

  /// \returns the (tagged) register of \p Var, allocating a temp X on
  /// first sight of a non-permanent variable.
  uint32_t regOf(TermRef Var) {
    auto P = Permanent.find(Var);
    if (P != Permanent.end())
      return P->second | WamInstr::YBit;
    auto T = Temporary.find(Var);
    if (T != Temporary.end())
      return T->second;
    uint32_t Reg = NextTemp++;
    Temporary.emplace(Var, Reg);
    return Reg;
  }

  void emit(WamInstr I) { Code.push_back(I); }
};

/// Emits the get/unify stream for one head argument.
void compileHeadArg(ClauseContext &Ctx, TermRef Arg, uint32_t ArgReg) {
  const TermStore &S = Ctx.Store;
  TermRef D = S.deref(Arg);
  switch (S.tag(D)) {
  case TermTag::Ref: {
    uint32_t Reg = Ctx.regOf(D);
    bool First = Ctx.Seen.insert(D).second;
    Ctx.emit({First ? WamOp::GetVariable : WamOp::GetValue, Reg, ArgReg, 0,
              0, 0});
    return;
  }
  case TermTag::Atom:
    Ctx.emit({WamOp::GetConstant, 0, ArgReg, S.symbol(D), 0, 0});
    return;
  case TermTag::Int:
    Ctx.emit({WamOp::GetInteger, 0, ArgReg, 0, 0, S.intValue(D)});
    return;
  case TermTag::Struct:
    break;
  }

  // Breadth-first flattening: nested structures drop into fresh temps that
  // are matched by their own later get_structure.
  std::deque<std::pair<TermRef, uint32_t>> Queue{{D, ArgReg}};
  while (!Queue.empty()) {
    auto [T, Reg] = Queue.front();
    Queue.pop_front();
    Ctx.emit({WamOp::GetStructure, Reg, 0, S.symbol(T), S.arity(T), 0});
    for (uint32_t I = 0, E = S.arity(T); I < E; ++I) {
      TermRef A = S.deref(S.arg(T, I));
      switch (S.tag(A)) {
      case TermTag::Ref: {
        uint32_t VReg = Ctx.regOf(A);
        bool First = Ctx.Seen.insert(A).second;
        Ctx.emit({First ? WamOp::UnifyVariable : WamOp::UnifyValue, VReg, 0,
                  0, 0, 0});
        break;
      }
      case TermTag::Atom:
        Ctx.emit({WamOp::UnifyConstant, 0, 0, S.symbol(A), 0, 0});
        break;
      case TermTag::Int:
        Ctx.emit({WamOp::UnifyInteger, 0, 0, 0, 0, S.intValue(A)});
        break;
      case TermTag::Struct: {
        uint32_t Temp = Ctx.NextTemp++;
        Ctx.emit({WamOp::UnifyVariable, Temp, 0, 0, 0, 0});
        Queue.push_back({A, Temp});
        break;
      }
      }
    }
  }
}

/// Builds the set stream of a structure already scheduled into \p Reg;
/// nested structures must have been built into temps beforehand.
void emitSetArgs(ClauseContext &Ctx, TermRef T,
                 const std::unordered_map<TermRef, uint32_t> &SubTemps) {
  const TermStore &S = Ctx.Store;
  for (uint32_t I = 0, E = S.arity(T); I < E; ++I) {
    TermRef A = S.deref(S.arg(T, I));
    switch (S.tag(A)) {
    case TermTag::Ref: {
      uint32_t VReg = Ctx.regOf(A);
      bool First = Ctx.Seen.insert(A).second;
      Ctx.emit({First ? WamOp::SetVariable : WamOp::SetValue, VReg, 0, 0, 0,
                0});
      break;
    }
    case TermTag::Atom:
      Ctx.emit({WamOp::SetConstant, 0, 0, S.symbol(A), 0, 0});
      break;
    case TermTag::Int:
      Ctx.emit({WamOp::SetInteger, 0, 0, 0, 0, S.intValue(A)});
      break;
    case TermTag::Struct:
      Ctx.emit({WamOp::SetValue, SubTemps.at(A), 0, 0, 0, 0});
      break;
    }
  }
}

/// Builds \p T bottom-up; \returns the temp register holding it.
uint32_t buildStructure(ClauseContext &Ctx, TermRef T) {
  const TermStore &S = Ctx.Store;
  std::unordered_map<TermRef, uint32_t> SubTemps;
  for (uint32_t I = 0, E = S.arity(T); I < E; ++I) {
    TermRef A = S.deref(S.arg(T, I));
    if (S.tag(A) == TermTag::Struct)
      SubTemps.emplace(A, buildStructure(Ctx, A));
  }
  uint32_t Reg = Ctx.NextTemp++;
  Ctx.emit({WamOp::PutStructure, Reg, 0, S.symbol(T), S.arity(T), 0});
  emitSetArgs(Ctx, T, SubTemps);
  return Reg;
}

/// Emits the put stream for one body-goal argument.
void compileBodyArg(ClauseContext &Ctx, TermRef Arg, uint32_t ArgReg) {
  const TermStore &S = Ctx.Store;
  TermRef D = S.deref(Arg);
  switch (S.tag(D)) {
  case TermTag::Ref: {
    uint32_t Reg = Ctx.regOf(D);
    bool First = Ctx.Seen.insert(D).second;
    Ctx.emit({First ? WamOp::PutVariable : WamOp::PutValue, Reg, ArgReg, 0,
              0, 0});
    return;
  }
  case TermTag::Atom:
    Ctx.emit({WamOp::PutConstant, 0, ArgReg, S.symbol(D), 0, 0});
    return;
  case TermTag::Int:
    Ctx.emit({WamOp::PutInteger, 0, ArgReg, 0, 0, S.intValue(D)});
    return;
  case TermTag::Struct: {
    // Sub-structures first, then the top structure straight into A<Arg>.
    std::unordered_map<TermRef, uint32_t> SubTemps;
    for (uint32_t I = 0, E = S.arity(D); I < E; ++I) {
      TermRef A = S.deref(S.arg(D, I));
      if (S.tag(A) == TermTag::Struct)
        SubTemps.emplace(A, buildStructure(Ctx, A));
    }
    Ctx.emit({WamOp::PutStructure, ArgReg, ArgReg, S.symbol(D), S.arity(D),
              0});
    emitSetArgs(Ctx, D, SubTemps);
    return;
  }
  }
}

} // namespace

ErrorOr<CompiledClause> WamCompiler::compileClause(const TermStore &Store,
                                                   TermRef Clause) {
  TermRef D = Store.deref(Clause);
  TermRef Head = D;
  std::vector<TermRef> Goals;
  if (Store.tag(D) == TermTag::Struct && Store.symbol(D) == Symbols.Neck &&
      Store.arity(D) == 2) {
    Head = Store.deref(Store.arg(D, 0));
    flattenConjunction(Store, Symbols, Store.arg(D, 1), Goals);
  }
  TermTag HT = Store.tag(Head);
  if (HT != TermTag::Atom && HT != TermTag::Struct)
    return Diagnostic("clause head must be an atom or compound term");

  CompiledClause Out;
  Out.Pred = {Store.symbol(Head), Store.arity(Head)};

  ClauseContext Ctx(Store, Symbols, Out.Code);

  // Variable classification (Ait-Kaci): permanent iff it occurs in more
  // than one chunk, chunk 0 being head + first body goal. Y indexes follow
  // first occurrence (head, then goals), the order classifyClauseVars
  // numbers variables in.
  VarRenaming Numbering;
  std::vector<ClauseVarUse> Uses;
  classifyClauseVars(Store, Head, Goals, Numbering, Uses);
  for (const ClauseVarUse &U : Uses)
    if (U.permanent())
      Ctx.Permanent.emplace(U.Var, static_cast<uint32_t>(Ctx.Permanent.size()));
  Out.NumPermanent = static_cast<uint32_t>(Ctx.Permanent.size());

  // Temporaries start above the widest argument-register window.
  uint32_t MaxArgs = Store.arity(Head);
  for (TermRef G : Goals) {
    TermRef GD = Store.deref(G);
    if (Store.tag(GD) == TermTag::Struct)
      MaxArgs = std::max(MaxArgs, Store.arity(GD));
  }
  Ctx.NextTemp = MaxArgs;

  if (Out.NumPermanent > 0)
    Ctx.emit({WamOp::Allocate, 0, 0, 0, 0,
              static_cast<int64_t>(Out.NumPermanent)});

  // Head: get phase.
  for (uint32_t I = 0, E = Store.arity(Head); I < E; ++I)
    compileHeadArg(Ctx, Store.arg(Head, I), I);

  // Body: put + call per goal, last-call optimized.
  for (size_t G = 0; G < Goals.size(); ++G) {
    TermRef GD = Store.deref(Goals[G]);
    TermTag GT = Store.tag(GD);
    if (GT != TermTag::Atom && GT != TermTag::Struct)
      return Diagnostic("cannot compile a variable goal");
    for (uint32_t I = 0, E = Store.arity(GD); I < E; ++I)
      compileBodyArg(Ctx, Store.arg(GD, I), I);
    bool Last = G + 1 == Goals.size();
    if (Last && Out.NumPermanent > 0)
      Ctx.emit({WamOp::Deallocate, 0, 0, 0, 0, 0});
    Ctx.emit({Last ? WamOp::Execute : WamOp::Call, 0, 0, Store.symbol(GD),
              Store.arity(GD), 0});
  }
  if (Goals.empty())
    Ctx.emit({WamOp::Proceed, 0, 0, 0, 0, 0});

  Out.NumTemporaries = Ctx.NextTemp;
  return Out;
}

ErrorOr<CompiledProgram> WamCompiler::compileText(std::string_view Source) {
  TermStore Store;
  auto Clauses = Parser::parseProgram(Symbols, Store, Source);
  if (!Clauses)
    return Clauses.getError();
  CompiledProgram Out;
  for (TermRef C : *Clauses) {
    TermRef D = Store.deref(C);
    // Skip directives.
    if (Store.tag(D) == TermTag::Struct && Store.symbol(D) == Symbols.Neck &&
        Store.arity(D) == 1)
      continue;
    auto Compiled = compileClause(Store, C);
    if (!Compiled)
      return Compiled.getError();
    Out.Clauses.push_back(std::move(*Compiled));
  }
  return Out;
}

std::string WamCompiler::disassemble(const CompiledClause &C) const {
  std::string Out = Symbols.name(C.Pred.Sym) + "/" +
                    std::to_string(C.Pred.Arity) + ":\n";
  auto Reg = [](uint32_t R) {
    return (WamInstr::isYReg(R) ? "Y" : "X") +
           std::to_string(WamInstr::regIndex(R));
  };
  for (const WamInstr &I : C.Code) {
    Out += "  ";
    auto FA = [&]() {
      return Symbols.name(I.Sym) + "/" + std::to_string(I.Arity);
    };
    switch (I.Op) {
    case WamOp::GetVariable:
      Out += "get_variable " + Reg(I.Reg) + ", A" + std::to_string(I.Arg);
      break;
    case WamOp::GetValue:
      Out += "get_value " + Reg(I.Reg) + ", A" + std::to_string(I.Arg);
      break;
    case WamOp::GetConstant:
      Out += "get_constant " + Symbols.name(I.Sym) + ", A" +
             std::to_string(I.Arg);
      break;
    case WamOp::GetInteger:
      Out += "get_integer " + std::to_string(I.Imm) + ", A" +
             std::to_string(I.Arg);
      break;
    case WamOp::GetStructure:
      Out += "get_structure " + FA() + ", " + Reg(I.Reg);
      break;
    case WamOp::UnifyVariable:
      Out += "unify_variable " + Reg(I.Reg);
      break;
    case WamOp::UnifyValue:
      Out += "unify_value " + Reg(I.Reg);
      break;
    case WamOp::UnifyConstant:
      Out += "unify_constant " + Symbols.name(I.Sym);
      break;
    case WamOp::UnifyInteger:
      Out += "unify_integer " + std::to_string(I.Imm);
      break;
    case WamOp::UnifyVoid:
      Out += "unify_void";
      break;
    case WamOp::PutVariable:
      Out += "put_variable " + Reg(I.Reg) + ", A" + std::to_string(I.Arg);
      break;
    case WamOp::PutValue:
      Out += "put_value " + Reg(I.Reg) + ", A" + std::to_string(I.Arg);
      break;
    case WamOp::PutConstant:
      Out += "put_constant " + Symbols.name(I.Sym) + ", A" +
             std::to_string(I.Arg);
      break;
    case WamOp::PutInteger:
      Out += "put_integer " + std::to_string(I.Imm) + ", A" +
             std::to_string(I.Arg);
      break;
    case WamOp::PutStructure:
      Out += "put_structure " + FA() + ", " + Reg(I.Reg);
      break;
    case WamOp::SetVariable:
      Out += "set_variable " + Reg(I.Reg);
      break;
    case WamOp::SetValue:
      Out += "set_value " + Reg(I.Reg);
      break;
    case WamOp::SetConstant:
      Out += "set_constant " + Symbols.name(I.Sym);
      break;
    case WamOp::SetInteger:
      Out += "set_integer " + std::to_string(I.Imm);
      break;
    case WamOp::SetVoid:
      Out += "set_void";
      break;
    case WamOp::Allocate:
      Out += "allocate " + std::to_string(I.Imm);
      break;
    case WamOp::Deallocate:
      Out += "deallocate";
      break;
    case WamOp::Call:
      Out += "call " + FA();
      break;
    case WamOp::Execute:
      Out += "execute " + FA();
      break;
    case WamOp::Proceed:
      Out += "proceed";
      break;
    }
    Out += "\n";
  }
  return Out;
}

//===- Database.cpp - Dynamic clause database -------------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "engine/Database.h"

#include "reader/Parser.h"

#include <algorithm>

using namespace lpa;

void lpa::flattenConjunction(const TermStore &Store,
                             const SymbolTable &Symbols, TermRef Body,
                             std::vector<TermRef> &Goals) {
  TermRef Cur = Store.deref(Body);
  while (Store.tag(Cur) == TermTag::Struct &&
         Store.symbol(Cur) == Symbols.Comma && Store.arity(Cur) == 2) {
    flattenConjunction(Store, Symbols, Store.arg(Cur, 0), Goals);
    Cur = Store.deref(Store.arg(Cur, 1));
  }
  // 'true' goals contribute nothing.
  if (Store.tag(Cur) == TermTag::Atom && Store.symbol(Cur) == Symbols.True)
    return;
  Goals.push_back(Cur);
}

void lpa::classifyClauseVars(const TermStore &Store, TermRef Head,
                             std::span<const TermRef> Goals,
                             VarRenaming &Numbering,
                             std::vector<ClauseVarUse> &Uses) {
  Uses.clear();
  Numbering.clear();
  std::vector<TermRef> Work;
  Work.reserve(16);
  // Term 0 is the head; term G + 1 is body goal G.
  for (size_t I = 0; I <= Goals.size(); ++I) {
    Work.assign(1, I == 0 ? Head : Goals[I - 1]);
    while (!Work.empty()) {
      TermRef D = Store.deref(Work.back());
      Work.pop_back();
      if (Store.tag(D) == TermTag::Struct) {
        for (uint32_t A = Store.arity(D); A-- > 0;)
          Work.push_back(Store.arg(D, A));
        continue;
      }
      if (Store.tag(D) != TermTag::Ref)
        continue;
      TermRef N = Numbering.lookup(D);
      if (N == InvalidTerm) {
        N = static_cast<TermRef>(Uses.size());
        Numbering.insert(D, N);
        Uses.push_back({D});
      }
      ClauseVarUse &U = Uses[N];
      if (I == 0) {
        U.InHead = true;
        continue;
      }
      uint32_t G = static_cast<uint32_t>(I - 1);
      if (U.FirstGoal == ClauseVarUse::NoGoal)
        U.FirstGoal = G;
      U.LastGoal = G;
    }
  }
}

uint32_t Database::predId(PredKey Key) const {
  auto It = IdByKey.find(Key);
  return It == IdByKey.end() ? NoPredId : It->second;
}

uint32_t Database::internPredId(PredKey Key) {
  auto [It, Inserted] =
      IdByKey.try_emplace(Key, static_cast<uint32_t>(Preds.size()));
  if (Inserted) {
    Predicate &P = Preds.emplace_back();
    P.Key = Key;
    P.Id = It->second;
  }
  return It->second;
}

ErrorOr<TermRef> Database::compileCode(const TermStore &Src,
                                       TermRef ClauseTerm) {
  TermRef Head = Src.deref(ClauseTerm);
  LoadGoals.clear();
  if (Src.tag(Head) == TermTag::Struct && Src.symbol(Head) == Symbols.Neck &&
      Src.arity(Head) == 2) {
    flattenConjunction(Src, Symbols, Src.arg(Head, 1), LoadGoals);
    Head = Src.deref(Src.arg(Head, 0));
  }
  TermTag HT = Src.tag(Head);
  if (HT != TermTag::Atom && HT != TermTag::Struct)
    return Diagnostic("clause head must be an atom or compound term");

  // Classifying numbers the variables in first-occurrence order, which is
  // the numbering the skeletons use.
  classifyClauseVars(Src, Head, LoadGoals, LoadRen, LoadUses);
  LoadCode.clear();
  LoadGoalCode.clear();
  compileSkeleton(Src, Head, LoadRen, LoadCode, LoadSkel);
  for (TermRef G : LoadGoals) {
    LoadGoalCode.push_back(static_cast<uint32_t>(LoadCode.size()));
    compileSkeleton(Src, G, LoadRen, LoadCode, LoadSkel);
  }
  return Head;
}

void Database::compileClause(const TermStore &Src, Clause &C) {
  const std::vector<ClauseVarUse> &Uses = LoadUses;
  C.NumVars = static_cast<uint32_t>(Uses.size());
  // Skeletons were compiled into scratch; the clause's code is a single
  // exact-size allocation.
  C.Code.assign(LoadCode.begin(), LoadCode.end());

  C.Pure = true;
  C.Goals.reserve(LoadGoals.size());
  for (size_t I = 0; I < LoadGoals.size(); ++I) {
    CompiledGoal CG{LoadGoalCode[I], {0, 0}, CompiledGoal::NoPred,
                    BuiltinKind::None};
    TermRef D = Src.deref(LoadGoals[I]);
    TermTag T = Src.tag(D);
    if (T == TermTag::Atom || T == TermTag::Struct) {
      CG.Key = {Src.symbol(D), Src.arity(D)};
      CG.PredId = internPredId(CG.Key);
      CG.Builtin = Builtins.classify(CG.Key.Sym, CG.Key.Arity);
    }
    switch (CG.Builtin) {
    case BuiltinKind::Cut:
    case BuiltinKind::Not:
    case BuiltinKind::Disj:
    case BuiltinKind::IfThen:
    case BuiltinKind::Call:
      C.Pure = false;
      break;
    default:
      if (CG.PredId == CompiledGoal::NoPred)
        C.Pure = false; // Variable or number goal: metacall territory.
      break;
    }
    C.Goals.push_back(CG);
  }

  uint32_t NumGoals = static_cast<uint32_t>(C.Goals.size());
  size_t LiveSize = 0, CarrySize = 0;
  for (const ClauseVarUse &U : Uses)
    if (U.LastGoal != ClauseVarUse::NoGoal) {
      LiveSize += U.LastGoal + 1;
      CarrySize += U.LastGoal;
    }
  C.LiveVars.reserve(LiveSize);
  C.CarryPos.reserve(CarrySize);
  C.LiveBegin.reserve(NumGoals + 2);
  for (uint32_t J = 0; J <= NumGoals; ++J) {
    C.LiveBegin.push_back(static_cast<uint32_t>(C.LiveVars.size()));
    for (uint32_t V = 0; V < C.NumVars; ++V)
      if (Uses[V].liveAt(J))
        C.LiveVars.push_back(V);
  }
  C.LiveBegin.push_back(static_cast<uint32_t>(C.LiveVars.size()));
  for (uint32_t J = 0; J < NumGoals; ++J) {
    std::span<const uint32_t> Here = C.live(J);
    for (uint32_t V : C.live(J + 1))
      C.CarryPos.push_back(static_cast<uint32_t>(
          std::lower_bound(Here.begin(), Here.end(), V) - Here.begin()));
  }
}

uint64_t Database::firstArgKey(const TermStore &Store, TermRef Arg) {
  TermRef D = Store.deref(Arg);
  switch (Store.tag(D)) {
  case TermTag::Ref:
    return 0;
  case TermTag::Atom:
    return (uint64_t(1) << 62) | Store.symbol(D);
  case TermTag::Int:
    return (uint64_t(2) << 62) |
           (static_cast<uint64_t>(Store.intValue(D)) & ((uint64_t(1) << 62) - 1));
  case TermTag::Struct:
    return (uint64_t(3) << 62) | (uint64_t(Store.arity(D)) << 32) |
           Store.symbol(D);
  }
  return 0;
}

ErrorOr<bool> Database::stageTableSpec(const TermStore &Src, TermRef Spec,
                                       Staging &Out) {
  TermRef D = Src.deref(Spec);
  // A list of specs.
  while (Src.tag(D) == TermTag::Struct && Src.symbol(D) == Symbols.Cons &&
         Src.arity(D) == 2) {
    auto Res = stageTableSpec(Src, Src.arg(D, 0), Out);
    if (!Res)
      return Res;
    D = Src.deref(Src.arg(D, 1));
  }
  if (Src.tag(D) == TermTag::Atom && Src.symbol(D) == Symbols.Nil)
    return true;
  // p/N.
  SymbolId Slash = Symbols.intern("/");
  if (Src.tag(D) == TermTag::Struct && Src.symbol(D) == Slash &&
      Src.arity(D) == 2) {
    TermRef NameT = Src.deref(Src.arg(D, 0));
    TermRef ArityT = Src.deref(Src.arg(D, 1));
    if (Src.tag(NameT) == TermTag::Atom && Src.tag(ArityT) == TermTag::Int) {
      Out.Tabled.push_back(internPredId(
          {Src.symbol(NameT), static_cast<uint32_t>(Src.intValue(ArityT))}));
      return true;
    }
  }
  return Diagnostic("malformed table declaration");
}

ErrorOr<bool> Database::stage(const TermStore &Src, TermRef ClauseTerm,
                              Staging &Out) {
  TermRef D = Src.deref(ClauseTerm);

  // Directive ":- Body.": ":- table Specs." is the one handled; other
  // directives are ignored.
  if (Src.tag(D) == TermTag::Struct && Src.symbol(D) == Symbols.Neck &&
      Src.arity(D) == 1) {
    TermRef Dir = Src.deref(Src.arg(D, 0));
    if (Src.tag(Dir) == TermTag::Struct &&
        Src.symbol(Dir) == Symbols.intern("table"))
      return stageTableSpec(Src, Src.arg(Dir, 0), Out);
    return true;
  }

  auto Head = compileCode(Src, D);
  if (!Head)
    return Head.getError();
  PredKey Key{Src.symbol(*Head), Src.arity(*Head)};
  uint32_t Id = internPredId(Key);
  Clause C;
  C.FirstArgKey = Key.Arity == 0 ? 0 : firstArgKey(Src, Src.arg(*Head, 0));
  compileClause(Src, C);
  Out.Clauses.emplace_back(Id, std::move(C));
  return true;
}

void Database::commit(Staging &S) {
  for (uint32_t Id : S.Tabled)
    Preds[Id].Tabled = true;
  for (auto &[Id, C] : S.Clauses) {
    Predicate &P = Preds[Id];
    if (!P.Defined) {
      P.Defined = true;
      PredOrder.push_back(P.Key);
    }
    P.Clauses.push_back(std::move(C));
    noteMutation(Id);
  }
}

ErrorOr<bool> Database::loadClause(const TermStore &Src, TermRef ClauseTerm) {
  auto Res = stage(Src, ClauseTerm, LoadStaged);
  if (Res)
    commit(LoadStaged);
  LoadStaged.Clauses.clear();
  LoadStaged.Tabled.clear();
  return Res;
}

ErrorOr<bool> Database::loadProgram(const TermStore &Src,
                                    const std::vector<TermRef> &Clauses) {
  for (TermRef C : Clauses) {
    auto Res = loadClause(Src, C);
    if (!Res)
      return Res;
  }
  return true;
}

ErrorOr<bool> Database::consult(std::string_view Text, size_t MaxClauses) {
  // Phase 1: parse the whole text. A syntax error anywhere aborts before
  // anything is stored.
  TermStore Scratch;
  Parser P(Symbols, Scratch, Text);
  std::vector<TermRef> Clauses;
  while (true) {
    auto Clause = P.nextClause();
    if (!Clause)
      return Clause.getError();
    if (*Clause == InvalidTerm)
      break;
    if (Clauses.size() == MaxClauses)
      return Diagnostic("consult: more than " + std::to_string(MaxClauses) +
                        " clauses in one request");
    Clauses.push_back(*Clause);
  }
  // Phase 2: compile every clause and table declaration, storing nothing.
  // Compiling assigns ids to new predicates; a failure takes them back.
  Staging S;
  size_t KnownIds = Preds.size();
  for (TermRef C : Clauses) {
    auto Res = stage(Scratch, C, S);
    if (!Res) {
      for (size_t Id = KnownIds; Id < Preds.size(); ++Id)
        IdByKey.erase(Preds[Id].Key);
      Preds.resize(KnownIds);
      return Res;
    }
  }
  // Phase 3: store them all.
  commit(S);
  return true;
}

ErrorOr<size_t> Database::retract(std::string_view Text) {
  TermStore Scratch;
  Parser P(Symbols, Scratch, Text);
  auto First = P.nextClause();
  if (!First)
    return First.getError();
  if (*First == InvalidTerm)
    return Diagnostic("retract: expected a clause");
  auto Extra = P.nextClause();
  if (!Extra)
    return Extra.getError();
  if (*Extra != InvalidTerm)
    return Diagnostic("retract: expected exactly one clause");

  TermRef D = Scratch.deref(*First);
  if (Scratch.tag(D) == TermTag::Struct && Scratch.symbol(D) == Symbols.Neck &&
      Scratch.arity(D) == 1)
    return Diagnostic("retract: cannot retract a directive");

  // The pattern compiles exactly as loading compiled the stored clauses,
  // variables numbered in first-occurrence order, so a stored clause is a
  // variant of it exactly when its code is equal.
  auto Head = compileCode(Scratch, D);
  if (!Head)
    return Head.getError();
  uint32_t Id = predId({Scratch.symbol(*Head), Scratch.arity(*Head)});
  if (Id == NoPredId)
    return size_t(0);
  std::vector<Clause> &Clauses = Preds[Id].Clauses;
  auto It = std::find_if(Clauses.begin(), Clauses.end(),
                         [&](const Clause &C) { return C.Code == LoadCode; });
  if (It == Clauses.end())
    return size_t(0);
  Clauses.erase(It);
  noteMutation(Id);
  return size_t(1);
}

size_t Database::retractAll(PredKey Key) {
  uint32_t Id = predId(Key);
  if (Id == NoPredId)
    return 0;
  size_t N = Preds[Id].Clauses.size();
  Preds[Id].Clauses.clear();
  if (N)
    noteMutation(Id);
  return N;
}

std::vector<PredKey> Database::predsChangedSince(uint64_t Rev) const {
  std::vector<PredKey> Changed;
  for (const Predicate &P : Preds)
    if (P.Revision > Rev)
      Changed.push_back(P.Key);
  return Changed;
}

void Database::setTabled(SymbolId Sym, uint32_t Arity) {
  Preds[internPredId({Sym, Arity})].Tabled = true;
}

void Database::tableAllPredicates() {
  for (Predicate &P : Preds)
    if (P.Defined)
      P.Tabled = true;
}

const Predicate *Database::lookup(PredKey Key) const {
  return predicate(predId(Key));
}

const Predicate *Database::predicate(uint32_t Id) const {
  LkLookups.fetch_add(1, std::memory_order_relaxed);
  if (Id >= Preds.size() || !Preds[Id].Defined) {
    LkMisses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  return &Preds[Id];
}

bool Database::isTabled(PredKey Key) const {
  uint32_t Id = predId(Key);
  return Id != NoPredId && Preds[Id].Tabled;
}

size_t Database::numClauses() const {
  size_t N = 0;
  for (const Predicate &P : Preds)
    N += P.Clauses.size();
  return N;
}

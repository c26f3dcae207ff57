//===- table_trie_test.cpp - Term-trie table tests -------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// The trie contract: a root-to-leaf path is the canonical preorder
// encoding of a term (tuple) with variables numbered in first-occurrence
// order, so two keys land on the same leaf exactly when canonicalKey()
// produces the same string — i.e. when the terms are variants. The
// property test below checks that equivalence on randomized terms, and
// the end-to-end tests check that the tabled analyses built on tries
// match the special-purpose baseline and pinned expected results.
//
//===----------------------------------------------------------------------===//

#include "baseline/GaiaLike.h"
#include "engine/Solver.h"
#include "prop/Groundness.h"
#include "reader/Parser.h"
#include "term/TermWriter.h"
#include "strictness/Strictness.h"
#include "table/TermTrie.h"
#include "term/Variant.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace lpa;

namespace {

class TermTrieTest : public ::testing::Test {
protected:
  TermRef parse(const char *Text) {
    auto T = Parser::parseTerm(Syms, S, Text);
    EXPECT_TRUE(T.hasValue()) << Text;
    return *T;
  }

  SymbolTable Syms;
  TermStore S;
  TermTrie Trie;
};

TEST_F(TermTrieTest, InsertThenFindGroundTerms) {
  EXPECT_TRUE(Trie.insert(S, parse("f(a, 1)"), 7).Inserted);
  EXPECT_TRUE(Trie.insert(S, parse("f(a, 2)"), 8).Inserted);
  EXPECT_TRUE(Trie.insert(S, parse("g(a, 1)"), 9).Inserted);
  EXPECT_EQ(Trie.find(S, parse("f(a, 1)")), 7u);
  EXPECT_EQ(Trie.find(S, parse("f(a, 2)")), 8u);
  EXPECT_EQ(Trie.find(S, parse("g(a, 1)")), 9u);
  EXPECT_EQ(Trie.find(S, parse("f(a, 3)")), TermTrie::NoValue);
  EXPECT_EQ(Trie.find(S, parse("f(b, 1)")), TermTrie::NoValue);
  EXPECT_EQ(Trie.valueCount(), 3u);
}

TEST_F(TermTrieTest, DuplicateInsertIsAHit) {
  auto First = Trie.insert(S, parse("p(a, f(b))"), 1);
  EXPECT_TRUE(First.Inserted);
  auto Second = Trie.insert(S, parse("p(a, f(b))"), 2);
  EXPECT_FALSE(Second.Inserted);
  EXPECT_EQ(Second.Value, 1u);
  EXPECT_EQ(Second.NodesCreated, 0u);
  EXPECT_EQ(Trie.valueCount(), 1u);
}

TEST_F(TermTrieTest, VariantsShareOneKey) {
  // Renamed variables are the same key; sharing patterns are not.
  EXPECT_TRUE(Trie.insert(S, parse("p(X, Y)"), 1).Inserted);
  EXPECT_FALSE(Trie.insert(S, parse("p(A, B)"), 2).Inserted);
  EXPECT_TRUE(Trie.insert(S, parse("p(X, X)"), 3).Inserted);
  EXPECT_FALSE(Trie.insert(S, parse("p(C, C)"), 4).Inserted);
  // Instances are distinct keys from their generalizations.
  EXPECT_TRUE(Trie.insert(S, parse("p(a, X)"), 5).Inserted);
  EXPECT_EQ(Trie.valueCount(), 3u);
}

TEST_F(TermTrieTest, VarsOutInFirstOccurrenceOrder) {
  TermRef T = parse("p(X, f(Y, X), Z)");
  std::vector<TermRef> Vars;
  Trie.insert(S, T, 0, &Vars);
  // X, Y, Z in left-to-right first-occurrence order; X listed once.
  ASSERT_EQ(Vars.size(), 3u);
  EXPECT_EQ(Vars[0], S.deref(S.arg(T, 0)));
  EXPECT_EQ(Vars[1], S.deref(S.arg(S.deref(S.arg(T, 1)), 0)));
  EXPECT_EQ(Vars[2], S.deref(S.arg(T, 2)));
  // A hit reports the same variables for the probing term.
  TermRef U = parse("p(A, f(B, A), C)");
  std::vector<TermRef> Vars2;
  EXPECT_FALSE(Trie.insert(S, U, 1, &Vars2).Inserted);
  ASSERT_EQ(Vars2.size(), 3u);
  EXPECT_EQ(Vars2[0], S.deref(S.arg(U, 0)));
}

TEST_F(TermTrieTest, TupleKeysShareOneNumbering) {
  // The variable numbering spans the whole tuple: (X, X) != (X, Y).
  TermRef A = S.mkVar(), B = S.mkVar();
  TermRef SameTwice[2] = {A, A};
  TermRef Distinct[2] = {A, B};
  EXPECT_TRUE(Trie.insert(S, std::span<const TermRef>(SameTwice), 1).Inserted);
  EXPECT_TRUE(Trie.insert(S, std::span<const TermRef>(Distinct), 2).Inserted);
  TermRef C = S.mkVar(), D = S.mkVar();
  TermRef SameAgain[2] = {C, C};
  TermRef DistinctAgain[2] = {C, D};
  EXPECT_EQ(Trie.find(S, std::span<const TermRef>(SameAgain)), 1u);
  EXPECT_EQ(Trie.find(S, std::span<const TermRef>(DistinctAgain)), 2u);
}

TEST_F(TermTrieTest, EmptyTupleKeyUsesTheRoot) {
  // A ground call has no free variables: its answer binding tuple is
  // empty, and the empty key must behave like any other (one slot).
  std::span<const TermRef> Empty;
  EXPECT_TRUE(Trie.insert(S, Empty, 5).Inserted);
  auto Again = Trie.insert(S, Empty, 6);
  EXPECT_FALSE(Again.Inserted);
  EXPECT_EQ(Again.Value, 5u);
  EXPECT_EQ(Trie.find(S, Empty), 5u);
}

TEST_F(TermTrieTest, IntAndAtomPayloadsDoNotAlias) {
  // An atom whose SymbolId happens to equal an integer's value must not
  // collide with it: the token kind disambiguates.
  SymbolId A = Syms.intern("aliasing_probe");
  TermRef Atom = S.mkAtom(A);
  TermRef Int = S.mkInt(static_cast<int64_t>(A));
  EXPECT_TRUE(Trie.insert(S, Atom, 1).Inserted);
  EXPECT_TRUE(Trie.insert(S, Int, 2).Inserted);
  EXPECT_EQ(Trie.find(S, Atom), 1u);
  EXPECT_EQ(Trie.find(S, Int), 2u);
}

TEST_F(TermTrieTest, HashEscalationKeepsWideFanoutsCorrect) {
  // 64 distinct children under one node: well past EscalateFanout, so the
  // chain escalates to a hash map mid-test and must stay consistent.
  for (int I = 0; I < 64; ++I)
    EXPECT_TRUE(Trie.insert(S, S.mkInt(I), static_cast<uint32_t>(I)).Inserted);
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(Trie.find(S, S.mkInt(I)), static_cast<uint32_t>(I));
  EXPECT_EQ(Trie.find(S, S.mkInt(64)), TermTrie::NoValue);
  EXPECT_EQ(Trie.nodeCount(), 64u);
}

TEST_F(TermTrieTest, LongRefChainsDerefToTheirTarget) {
  // v -> v -> ... -> X (unbound): keys through the chain are the same key
  // as X itself.
  TermRef X = S.mkVar();
  TermRef Chain = X;
  for (int I = 0; I < 32; ++I) {
    TermRef V = S.mkVar();
    S.bind(V, Chain);
    Chain = V;
  }
  TermRef Args1[1] = {Chain};
  std::vector<TermRef> Vars;
  TermRef F1 = S.mkStruct(Syms.intern("f"), std::span<const TermRef>(Args1));
  EXPECT_TRUE(Trie.insert(S, F1, 1, &Vars).Inserted);
  ASSERT_EQ(Vars.size(), 1u);
  EXPECT_EQ(Vars[0], X); // The dereffed variable, not a chain link.
  TermRef Args2[1] = {X};
  TermRef F2 = S.mkStruct(Syms.intern("f"), std::span<const TermRef>(Args2));
  EXPECT_FALSE(Trie.insert(S, F2, 2).Inserted);
  // A chain ending in a ground term keys as that term.
  TermRef G = S.mkVar();
  S.bind(G, parse("g(a)"));
  EXPECT_TRUE(Trie.insert(S, G, 3).Inserted);
  EXPECT_EQ(Trie.find(S, parse("g(a)")), 3u);
}

TEST_F(TermTrieTest, ClearDropsEverything) {
  Trie.insert(S, parse("f(a)"), 1);
  Trie.insert(S, parse("f(X)"), 2);
  Trie.clear();
  EXPECT_EQ(Trie.valueCount(), 0u);
  EXPECT_EQ(Trie.nodeCount(), 0u);
  EXPECT_EQ(Trie.find(S, parse("f(a)")), TermTrie::NoValue);
  EXPECT_TRUE(Trie.insert(S, parse("f(a)"), 9).Inserted);
  EXPECT_EQ(Trie.find(S, parse("f(a)")), 9u);
}

/// Builds a random term over a small vocabulary. Shared subterms come from
/// reusing entries of \p Built; variables from a small pool (repeats make
/// nontrivial sharing patterns) plus occasional Ref chains onto them.
class RandomTermGen {
public:
  RandomTermGen(SymbolTable &Syms, TermStore &S, uint32_t Seed)
      : Syms(Syms), S(S), Rng(Seed) {
    for (const char *N : {"a", "b", "c"})
      Atoms.push_back(Syms.intern(N));
    Funcs = {Syms.intern("f"), Syms.intern("g"), Syms.intern("h")};
    for (int I = 0; I < 4; ++I)
      VarPool.push_back(S.mkVar());
  }

  TermRef gen(int Depth) {
    switch (pick(Depth <= 0 ? 4 : 7)) {
    case 0:
      return S.mkAtom(Atoms[pick(Atoms.size())]);
    case 1:
      return S.mkInt(static_cast<int64_t>(pick(5)));
    case 2:
      return VarPool[pick(VarPool.size())];
    case 3: { // Ref chain of length 1..8 onto a pool variable.
      TermRef T = VarPool[pick(VarPool.size())];
      for (size_t I = 0, E = 1 + pick(8); I < E; ++I) {
        TermRef V = S.mkVar();
        S.bind(V, T);
        T = V;
      }
      return T;
    }
    case 4: // Shared subterm: reuse something generated earlier.
      if (!Built.empty())
        return Built[pick(Built.size())];
      [[fallthrough]];
    default: {
      std::vector<TermRef> Args;
      for (size_t I = 0, E = 1 + pick(3); I < E; ++I)
        Args.push_back(gen(Depth - 1));
      TermRef T = S.mkStruct(Funcs[pick(Funcs.size())],
                             std::span<const TermRef>(Args));
      Built.push_back(T);
      return T;
    }
    }
  }

private:
  size_t pick(size_t N) { return std::uniform_int_distribution<size_t>(0, N - 1)(Rng); }

  SymbolTable &Syms;
  TermStore &S;
  std::mt19937 Rng;
  std::vector<SymbolId> Atoms;
  std::vector<SymbolId> Funcs;
  std::vector<TermRef> VarPool;
  std::vector<TermRef> Built;
};

TEST_F(TermTrieTest, PropertyTrieEqualsCanonicalKeyEquality) {
  // The central invariant: two terms reach the same trie leaf exactly
  // when their canonical keys are equal (path equality == variance).
  RandomTermGen Gen(Syms, S, /*Seed=*/0xC0FFEE);
  std::map<std::string, uint32_t> FirstByKey;
  uint32_t NextValue = 0;
  for (int I = 0; I < 500; ++I) {
    TermRef T = Gen.gen(/*Depth=*/3);
    std::string Key = canonicalKey(S, T);
    auto [It, New] = FirstByKey.emplace(Key, NextValue);
    auto R = Trie.insert(S, T, NextValue);
    EXPECT_EQ(R.Inserted, New) << "term " << I << " key " << Key;
    EXPECT_EQ(R.Value, It->second) << "term " << I << " key " << Key;
    EXPECT_EQ(Trie.find(S, T), It->second);
    if (New)
      ++NextValue;
  }
  EXPECT_EQ(Trie.valueCount(), FirstByKey.size());
  // Sanity: the workload actually produced both hits and misses.
  EXPECT_GT(FirstByKey.size(), 50u);
  EXPECT_LT(FirstByKey.size(), 500u);
}

TEST(TrieTables, GroundnessMatchesBaselineAndPinnedCallPatterns) {
  const char *Prog = R"(
    app([], Ys, Ys).
    app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
    rev([], []).
    rev([X|Xs], R) :- rev(Xs, T), app(T, [X], R).
    perm([], []).
    perm(L, [H|T]) :- sel(H, L, R), perm(R, T).
    sel(X, [X|T], T).
    sel(X, [H|T], [H|R]) :- sel(X, T, R).
    main(X) :- rev([a,b,c], Y), perm(Y, X).
  )";
  SymbolTable Syms, BaseSyms;
  GroundnessAnalyzer Analyzer(Syms);
  GaiaLikeAnalyzer Baseline(BaseSyms);
  auto R = Analyzer.analyze(Prog);
  auto B = Baseline.analyze(Prog);
  ASSERT_TRUE(R.hasValue()) << R.getError().str();
  ASSERT_TRUE(B.hasValue()) << B.getError().str();
  // Success sets: the special-purpose baseline is the oracle. Call
  // patterns come only from the engine's subgoal table, so they are pinned.
  const std::map<std::string, std::string> Calls = {
      {"app", "{(f,f,f),(f,f,t),(f,t,f),(f,t,t),(t,f,f),(t,f,t),(t,t,f),"
              "(t,t,t)}"},
      {"rev", "{(f,f),(t,f)}"},
      {"perm", "{(f,f),(f,t),(t,f),(t,t)}"},
      {"sel", "{(f,f,f),(f,f,t),(f,t,f),(f,t,t),(t,f,f),(t,f,t),(t,t,f),"
              "(t,t,t)}"},
      {"main", "{(f)}"},
  };
  ASSERT_EQ(R->Predicates.size(), B->Predicates.size());
  ASSERT_EQ(R->Predicates.size(), Calls.size());
  for (size_t I = 0; I < R->Predicates.size(); ++I) {
    const PredGroundness &P = R->Predicates[I];
    SCOPED_TRACE(P.Name);
    EXPECT_EQ(P.Name, B->Predicates[I].Name);
    EXPECT_EQ(P.Arity, B->Predicates[I].Arity);
    EXPECT_EQ(P.SuccessSet, B->Predicates[I].SuccessSet);
    ASSERT_TRUE(Calls.count(P.Name));
    EXPECT_EQ(formatTruthTable(P.CallPatterns), Calls.at(P.Name));
  }
}

/// Solves \p GoalText and returns every answer of the goal's subgoal,
/// materialized in recording order through findSubgoal + answerInstance.
std::vector<std::string> enumerateAnswers(const char *Prog,
                                          const char *GoalText) {
  SymbolTable Syms;
  Database DB(Syms);
  auto C = DB.consult(Prog);
  EXPECT_TRUE(C.hasValue()) << (C ? "" : C.getError().str());
  Solver Engine(DB);
  auto Goal = Parser::parseTerm(Syms, Engine.store(), GoalText);
  EXPECT_TRUE(Goal.hasValue()) << GoalText;
  Engine.solve(*Goal, nullptr);
  const Subgoal *SG = Engine.findSubgoal(*Goal);
  EXPECT_NE(SG, nullptr) << GoalText;
  std::vector<std::string> Out;
  if (!SG)
    return Out;
  for (size_t I = 0, N = Engine.answerCount(*SG); I < N; ++I) {
    TermStore Scratch;
    TermRef Inst = Engine.answerInstance(*SG, I, Scratch);
    Out.push_back(TermWriter::toString(Syms, Scratch, Inst));
  }
  return Out;
}

TEST(TrieTables, AnswerEnumerationOrderIsPinned) {
  // The findSubgoal/answerInstance API exposes answers in recording order:
  // downstream consumers (provenance premise indices, fleet fingerprints)
  // identify an answer by its position, so order is part of the contract,
  // not an implementation detail.
  const char *Prog = R"(
    :- table path/2.
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    edge(a, b). edge(b, c). edge(c, a). edge(b, d).
    :- table app/3.
    app([], Ys, Ys).
    app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
    :- table splits/2.
    splits(L, s(A, B)) :- app(A, B, L).
  )";
  using Answers = std::vector<std::string>;
  EXPECT_EQ(enumerateAnswers(Prog, "path(a, X)"),
            (Answers{"path(a,b)", "path(a,c)", "path(a,d)", "path(a,a)"}));
  EXPECT_EQ(enumerateAnswers(Prog, "path(X, Y)"),
            (Answers{"path(a,b)", "path(b,c)", "path(c,a)", "path(b,d)",
                     "path(a,c)", "path(a,d)", "path(b,a)", "path(c,b)",
                     "path(a,a)", "path(b,b)", "path(c,c)", "path(c,d)"}));
  EXPECT_EQ(enumerateAnswers(Prog, "splits([a,b,c], S)"),
            (Answers{"splits([a,b,c],s([],[a,b,c]))",
                     "splits([a,b,c],s([a],[b,c]))",
                     "splits([a,b,c],s([a,b],[c]))",
                     "splits([a,b,c],s([a,b,c],[]))"}));
}

TEST(TrieTables, StrictnessResultsArePinned) {
  const char *Prog = R"(
    ap(nil, ys) = ys.
    ap(cons(x, xs), ys) = cons(x, ap(xs, ys)).
    len(nil) = zero.
    len(cons(x, xs)) = succ(len(xs)).
    rev(nil) = nil.
    rev(cons(x, xs)) = ap(rev(xs), cons(x, nil)).
  )";
  StrictnessAnalyzer A;
  auto R = A.analyze(Prog);
  ASSERT_TRUE(R.hasValue()) << R.getError().str();
  using D = Demand;
  struct Expected {
    const char *Name;
    std::vector<Demand> UnderE, UnderD;
  };
  const Expected Want[] = {
      {"ap", {D::Full, D::Full}, {D::Head, D::None}},
      {"len", {D::Head}, {D::Head}},
      {"rev", {D::Full}, {D::Head}},
  };
  ASSERT_EQ(R->Functions.size(), std::size(Want));
  for (size_t I = 0; I < R->Functions.size(); ++I) {
    const FuncStrictness &F = R->Functions[I];
    SCOPED_TRACE(F.Name);
    EXPECT_EQ(F.Name, Want[I].Name);
    EXPECT_EQ(F.UnderE, Want[I].UnderE);
    EXPECT_EQ(F.UnderD, Want[I].UnderD);
    EXPECT_FALSE(F.DivergesUnderE);
    EXPECT_FALSE(F.DivergesUnderD);
  }
}

} // namespace

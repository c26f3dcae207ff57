//===- term_test.cpp - TermStore / symbol / writer unit tests --------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "reader/Parser.h"
#include "term/Symbol.h"
#include "term/TermCopy.h"
#include "term/TermSkel.h"
#include "term/TermStore.h"
#include "term/TermWriter.h"
#include "term/Unify.h"

#include <algorithm>

#include <gtest/gtest.h>

using namespace lpa;

namespace {

TEST(SymbolTable, InterningIsIdempotent) {
  SymbolTable Syms;
  SymbolId A = Syms.intern("foo");
  SymbolId B = Syms.intern("foo");
  EXPECT_EQ(A, B);
  EXPECT_EQ(Syms.name(A), "foo");
}

TEST(SymbolTable, DistinctNamesGetDistinctIds) {
  SymbolTable Syms;
  EXPECT_NE(Syms.intern("foo"), Syms.intern("bar"));
}

TEST(SymbolTable, LookupWithoutInterning) {
  SymbolTable Syms;
  EXPECT_EQ(Syms.lookup("nonexistent"), SymbolTable::NotFound);
  SymbolId Id = Syms.intern("present");
  EXPECT_EQ(Syms.lookup("present"), Id);
}

TEST(SymbolTable, WellKnownSymbolsExist) {
  SymbolTable Syms;
  EXPECT_EQ(Syms.name(Syms.Nil), "[]");
  EXPECT_EQ(Syms.name(Syms.Cons), ".");
  EXPECT_EQ(Syms.name(Syms.True), "true");
  EXPECT_EQ(Syms.name(Syms.BoolFalse), "false");
  EXPECT_EQ(Syms.name(Syms.Iff), "iff");
}

TEST(TermStore, FreshVariableIsUnbound) {
  TermStore S;
  TermRef V = S.mkVar();
  EXPECT_TRUE(S.isUnboundVar(V));
  EXPECT_EQ(S.deref(V), V);
}

TEST(TermStore, BindAndDeref) {
  SymbolTable Syms;
  TermStore S;
  TermRef V = S.mkVar();
  TermRef A = S.mkAtom(Syms.intern("a"));
  S.bind(V, A);
  EXPECT_FALSE(S.isUnboundVar(V));
  EXPECT_EQ(S.deref(V), A);
}

TEST(TermStore, BindChainsDereference) {
  SymbolTable Syms;
  TermStore S;
  TermRef V1 = S.mkVar(), V2 = S.mkVar();
  TermRef A = S.mkAtom(Syms.intern("a"));
  S.bind(V1, V2);
  S.bind(V2, A);
  EXPECT_EQ(S.deref(V1), A);
}

TEST(TermStore, UndoRestoresBindingsAndHeap) {
  SymbolTable Syms;
  TermStore S;
  TermRef V = S.mkVar();
  auto M = S.mark();
  TermRef A = S.mkAtom(Syms.intern("a"));
  S.bind(V, A);
  EXPECT_FALSE(S.isUnboundVar(V));
  size_t SizeWithAtom = S.size();
  EXPECT_GT(SizeWithAtom, M.HeapSize);
  S.undoTo(M);
  EXPECT_TRUE(S.isUnboundVar(V));
  EXPECT_EQ(S.size(), M.HeapSize);
}

TEST(TermStore, StructArguments) {
  SymbolTable Syms;
  TermStore S;
  TermRef X = S.mkInt(1), Y = S.mkInt(2);
  TermRef F = S.mkStruct2(Syms.intern("f"), X, Y);
  ASSERT_EQ(S.tag(F), TermTag::Struct);
  EXPECT_EQ(S.arity(F), 2u);
  EXPECT_EQ(S.intValue(S.deref(S.arg(F, 0))), 1);
  EXPECT_EQ(S.intValue(S.deref(S.arg(F, 1))), 2);
}

TEST(TermStore, ListConstruction) {
  SymbolTable Syms;
  TermStore S;
  std::vector<TermRef> Elems{S.mkInt(1), S.mkInt(2), S.mkInt(3)};
  TermRef L = S.mkList(Syms, Elems);
  TermWriter W(Syms, S);
  EXPECT_EQ(W.str(L), "[1,2,3]");
}

TEST(TermStore, PartialListWithTail) {
  SymbolTable Syms;
  TermStore S;
  TermRef Tail = S.mkVar();
  std::vector<TermRef> Elems{S.mkInt(1)};
  TermRef L = S.mkList(Syms, Elems, Tail);
  TermWriter W(Syms, S);
  EXPECT_EQ(W.str(L), "[1|_A]");
}

TEST(TermWriter, QuotesNonPlainAtoms) {
  SymbolTable Syms;
  TermStore S;
  EXPECT_EQ(TermWriter::toString(Syms, S, S.mkAtom(Syms.intern("hello"))),
            "hello");
  EXPECT_EQ(TermWriter::toString(Syms, S, S.mkAtom(Syms.intern("Hello"))),
            "'Hello'");
  EXPECT_EQ(TermWriter::toString(Syms, S, S.mkAtom(Syms.intern("two words"))),
            "'two words'");
  EXPECT_EQ(TermWriter::toString(Syms, S, S.mkAtom(Syms.intern(":-"))), ":-");
}

TEST(TermWriter, NegativeIntegers) {
  SymbolTable Syms;
  TermStore S;
  EXPECT_EQ(TermWriter::toString(Syms, S, S.mkInt(-42)), "-42");
}

// Standard Prolog unification omits the occur check, so X = f(X) builds a
// genuinely cyclic term. The writer must terminate on it with an explicit
// "..." marker and never emit unbalanced brackets.
bool bracketsBalanced(const std::string &S) {
  return std::count(S.begin(), S.end(), '(') ==
             std::count(S.begin(), S.end(), ')') &&
         std::count(S.begin(), S.end(), '[') ==
             std::count(S.begin(), S.end(), ']');
}

TEST(TermWriter, CyclicStructTerminatesWithEllipsis) {
  SymbolTable Syms;
  TermStore S;
  TermRef X = S.mkVar();
  TermRef Args[1] = {X};
  TermRef F = S.mkStruct(Syms.intern("f"), Args);
  ASSERT_TRUE(unify(S, X, F, /*OccursCheck=*/false));
  std::string Out = TermWriter::toString(Syms, S, X);
  EXPECT_NE(Out.find("..."), std::string::npos) << Out;
  EXPECT_TRUE(bracketsBalanced(Out)) << Out;
  EXPECT_EQ(Out.substr(0, 2), "f(");
}

TEST(TermWriter, CyclicListTailTerminatesBalanced) {
  SymbolTable Syms;
  TermStore S;
  // X = [a|X]: the list-tail fast path must hit the same guard as the
  // recursive writer, closing the bracket it opened.
  TermRef X = S.mkVar();
  TermRef L = S.mkStruct2(Syms.Cons, S.mkAtom(Syms.intern("a")), X);
  ASSERT_TRUE(unify(S, X, L, /*OccursCheck=*/false));
  std::string Out = TermWriter::toString(Syms, S, X);
  EXPECT_NE(Out.find("..."), std::string::npos) << Out;
  EXPECT_TRUE(bracketsBalanced(Out)) << Out;
  EXPECT_EQ(Out.front(), '[');
  EXPECT_EQ(Out.back(), ']');
}

TEST(TermWriter, CyclicTermInsideArgumentsStaysBalanced) {
  SymbolTable Syms;
  TermStore S;
  TermRef X = S.mkVar();
  TermRef Args[1] = {X};
  TermRef F = S.mkStruct(Syms.intern("loop"), Args);
  ASSERT_TRUE(unify(S, X, F, /*OccursCheck=*/false));
  // Wrap the cycle in a normal term: pair(loop(loop(...)), ok).
  TermRef P = S.mkStruct2(Syms.intern("pair"), F, S.mkAtom(Syms.intern("ok")));
  std::string Out = TermWriter::toString(Syms, S, P);
  EXPECT_NE(Out.find("..."), std::string::npos) << Out;
  EXPECT_TRUE(bracketsBalanced(Out)) << Out;
  // The sibling argument after the truncated cycle still renders.
  EXPECT_NE(Out.find("ok"), std::string::npos) << Out;
}

TEST(TermCopy, CopiesResolvedStructure) {
  SymbolTable Syms;
  TermStore Src, Dst;
  TermRef V = Src.mkVar();
  TermRef F = Src.mkStruct2(Syms.intern("f"), V, Src.mkInt(7));
  Src.bind(V, Src.mkAtom(Syms.intern("a")));

  TermRef C = copyTerm(Src, F, Dst);
  EXPECT_EQ(TermWriter::toString(Syms, Dst, C), "f(a,7)");
}

TEST(TermCopy, RenamesVariablesConsistently) {
  SymbolTable Syms;
  TermStore Src, Dst;
  TermRef V = Src.mkVar();
  // f(X, X) must copy to f(Y, Y) with one fresh Y.
  TermRef F = Src.mkStruct2(Syms.intern("f"), V, V);
  TermRef C = copyTerm(Src, F, Dst);
  TermRef A0 = Dst.deref(Dst.arg(C, 0));
  TermRef A1 = Dst.deref(Dst.arg(C, 1));
  EXPECT_EQ(A0, A1);
  EXPECT_TRUE(Dst.isUnboundVar(A0));
}

TEST(TermCopy, SharedRenamingLinksSeparateCopies) {
  SymbolTable Syms;
  TermStore Src, Dst;
  TermRef V = Src.mkVar();
  TermRef F = Src.mkStruct2(Syms.intern("f"), V, Src.mkInt(1));
  TermRef G = Src.mkStruct2(Syms.intern("g"), V, Src.mkInt(2));

  VarRenaming R;
  TermRef CF = copyTerm(Src, F, Dst, R);
  TermRef CG = copyTerm(Src, G, Dst, R);
  EXPECT_EQ(Dst.deref(Dst.arg(CF, 0)), Dst.deref(Dst.arg(CG, 0)));
}

TEST(TermCopy, DeepListDoesNotOverflow) {
  SymbolTable Syms;
  TermStore Src, Dst;
  TermRef L = Src.mkAtom(Syms.Nil);
  for (int I = 0; I < 200000; ++I)
    L = Src.mkStruct2(Syms.Cons, Src.mkInt(I), L);
  TermRef C = copyTerm(Src, L, Dst);
  EXPECT_EQ(Dst.tag(C), TermTag::Struct);
  EXPECT_GT(termSizeCells(Dst, C), 200000u);
}

TEST(TermCopy, TermSizeCountsCells) {
  SymbolTable Syms;
  TermStore S;
  TermRef A = S.mkAtom(Syms.intern("a"));
  EXPECT_EQ(termSizeCells(S, A), 1u);
  TermRef F = S.mkStruct2(Syms.intern("f"), A, S.mkInt(1));
  // Struct cell + 2 arg slots + atom + int.
  EXPECT_EQ(termSizeCells(S, F), 5u);
}

TEST(TermCopy, PreservesSharedSubterms) {
  SymbolTable Syms;
  TermStore Src, Dst;
  TermRef G = Src.mkStruct2(Syms.intern("g"), Src.mkVar(), Src.mkInt(1));
  TermRef F = Src.mkStruct2(Syms.intern("f"), G, G);
  TermRef C = copyTerm(Src, F, Dst);
  EXPECT_EQ(Dst.deref(Dst.arg(C, 0)), Dst.deref(Dst.arg(C, 1)));
  EXPECT_EQ(TermWriter::toString(Syms, Dst, C), "f(g(_A,1),g(_A,1))");
}

TEST(VarRenaming, IndexedLookupPastTheLinearLimit) {
  VarRenaming R;
  const TermRef N = 10 * VarRenaming::LinearLimit;
  for (TermRef I = 0; I < N; ++I)
    R.insert(3 * I + 1, I);
  EXPECT_EQ(R.size(), size_t(N));
  for (TermRef I = 0; I < N; ++I)
    EXPECT_EQ(R.lookup(3 * I + 1), I);
  EXPECT_EQ(R.lookup(0), InvalidTerm);
  EXPECT_EQ(R.lookup(3 * N + 1), InvalidTerm);
  R.clear();
  EXPECT_TRUE(R.empty());
  EXPECT_EQ(R.lookup(1), InvalidTerm);
  R.insert(1, 7);
  EXPECT_EQ(R.lookup(1), 7u);
}

/// Parses \p Text into \p S and compiles it as a skeleton.
std::vector<SkelCell> skeletonOf(SymbolTable &Syms, TermStore &S,
                                 const char *Text, VarRenaming &Numbering) {
  auto T = Parser::parseTerm(Syms, S, Text);
  EXPECT_TRUE(T.hasValue()) << Text;
  std::vector<SkelCell> Code;
  SkelScratch Scratch;
  compileSkeleton(S, *T, Numbering, Code, Scratch);
  return Code;
}

TEST(TermSkel, InstantiateFillsTheFrame) {
  SymbolTable Syms;
  TermStore Clause, Heap;
  VarRenaming Numbering;
  std::vector<SkelCell> Code =
      skeletonOf(Syms, Clause, "p(X, f(Y, X), a, 3)", Numbering);
  ASSERT_EQ(Numbering.size(), 2u);
  std::vector<TermRef> Frame(2, InvalidTerm);
  SkelScratch Scratch;
  uint32_t PC = 0;
  TermRef T = instantiateSkeleton(Heap, Code, PC, Frame, Scratch);
  EXPECT_EQ(PC, Code.size());
  EXPECT_EQ(TermWriter::toString(Syms, Heap, T), "p(_A,f(_B,_A),a,3)");
  EXPECT_TRUE(Heap.isUnboundVar(Frame[0]));
  EXPECT_EQ(Heap.deref(Heap.arg(T, 0)), Heap.deref(Frame[0]));
  // A second instance through the same frame shares its variables.
  PC = 0;
  TermRef U = instantiateSkeleton(Heap, Code, PC, Frame, Scratch);
  EXPECT_EQ(Heap.deref(Heap.arg(U, 0)), Heap.deref(Frame[0]));
}

TEST(TermSkel, MatchBuildsOnlyWhereTheTermIsUnbound) {
  SymbolTable Syms;
  TermStore Clause, Heap;
  VarRenaming Numbering;
  std::vector<SkelCell> Code =
      skeletonOf(Syms, Clause, "p(X, f(Y), X, b)", Numbering);
  auto Call = Parser::parseTerm(Syms, Heap, "p(1, Z, W, B)");
  ASSERT_TRUE(Call.hasValue());
  std::vector<TermRef> Frame(Numbering.size(), InvalidTerm);
  SkelScratch Scratch;
  uint32_t PC = 0;
  ASSERT_TRUE(matchSkeleton(Heap, *Call, Code, PC, Frame, false, Scratch));
  EXPECT_EQ(PC, Code.size());
  EXPECT_EQ(TermWriter::toString(Syms, Heap, *Call), "p(1,f(_A),1,b)");

  auto Clash = Parser::parseTerm(Syms, Heap, "p(1, g(a), 2, b)");
  ASSERT_TRUE(Clash.hasValue());
  std::fill(Frame.begin(), Frame.end(), InvalidTerm);
  PC = 0;
  auto M = Heap.mark();
  EXPECT_FALSE(matchSkeleton(Heap, *Clash, Code, PC, Frame, false, Scratch));
  Heap.undoTo(M);
}

TEST(TermSkel, MatchHonoursTheOccursCheck) {
  SymbolTable Syms;
  TermStore Clause, Heap;
  VarRenaming Numbering;
  std::vector<SkelCell> Code =
      skeletonOf(Syms, Clause, "p(X, f(X))", Numbering);
  auto Call = Parser::parseTerm(Syms, Heap, "p(Y, Y)");
  ASSERT_TRUE(Call.hasValue());
  std::vector<TermRef> Frame(Numbering.size(), InvalidTerm);
  SkelScratch Scratch;
  uint32_t PC = 0;
  auto M = Heap.mark();
  EXPECT_FALSE(matchSkeleton(Heap, *Call, Code, PC, Frame, true, Scratch));
  Heap.undoTo(M);
  std::fill(Frame.begin(), Frame.end(), InvalidTerm);
  PC = 0;
  EXPECT_TRUE(matchSkeleton(Heap, *Call, Code, PC, Frame, false, Scratch));
}

} // namespace

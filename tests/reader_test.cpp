//===- reader_test.cpp - Lexer / parser unit tests --------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "reader/Lexer.h"
#include "reader/Parser.h"
#include "term/TermWriter.h"

#include <gtest/gtest.h>

using namespace lpa;

namespace {

std::string roundTrip(const char *Text) {
  SymbolTable Syms;
  TermStore S;
  auto T = Parser::parseTerm(Syms, S, Text);
  if (!T)
    return "<error: " + T.getError().str() + ">";
  return TermWriter::toString(Syms, S, *T);
}

TEST(Lexer, BasicTokens) {
  Lexer L("foo Bar 42 [X|Xs] % comment\n :- 'quoted atom'");
  EXPECT_EQ(L.next().Kind, TokenKind::Atom);
  EXPECT_EQ(L.next().Kind, TokenKind::Var);
  Token I = L.next();
  EXPECT_EQ(I.Kind, TokenKind::Int);
  EXPECT_EQ(I.IntValue, 42);
  EXPECT_EQ(L.next().Kind, TokenKind::LBracket);
  EXPECT_EQ(L.next().Kind, TokenKind::Var);
  EXPECT_EQ(L.next().Kind, TokenKind::Bar);
  EXPECT_EQ(L.next().Kind, TokenKind::Var);
  EXPECT_EQ(L.next().Kind, TokenKind::RBracket);
  Token Neck = L.next();
  EXPECT_EQ(Neck.Kind, TokenKind::Atom);
  EXPECT_EQ(Neck.Text, ":-");
  Token Q = L.next();
  EXPECT_EQ(Q.Kind, TokenKind::Atom);
  EXPECT_EQ(Q.Text, "quoted atom");
  EXPECT_EQ(L.next().Kind, TokenKind::EndOfFile);
}

TEST(Lexer, EndTokenRequiresLayoutAfterDot) {
  // "foo." at EOF terminates; "=.." is one symbolic atom.
  Lexer L1("foo.");
  EXPECT_EQ(L1.next().Kind, TokenKind::Atom);
  EXPECT_EQ(L1.next().Kind, TokenKind::End);

  Lexer L2("X =.. L.");
  EXPECT_EQ(L2.next().Kind, TokenKind::Var);
  Token Univ = L2.next();
  EXPECT_EQ(Univ.Kind, TokenKind::Atom);
  EXPECT_EQ(Univ.Text, "=..");
}

TEST(Lexer, BlockComments) {
  Lexer L("a /* comment with . and :- */ b");
  EXPECT_EQ(L.next().Text, "a");
  Token B = L.next();
  EXPECT_EQ(B.Text, "b");
  EXPECT_TRUE(B.PrecededByLayout);
}

TEST(Lexer, CharCodeLiteral) {
  Lexer L("0'a 0' ");
  Token A = L.next();
  EXPECT_EQ(A.Kind, TokenKind::Int);
  EXPECT_EQ(A.IntValue, 'a');
}

TEST(Lexer, TracksLineNumbers) {
  Lexer L("a\nb\n  c");
  EXPECT_EQ(L.next().Pos.Line, 1u);
  EXPECT_EQ(L.next().Pos.Line, 2u);
  EXPECT_EQ(L.next().Pos.Line, 3u);
}

TEST(Parser, FactsAndStructures) {
  EXPECT_EQ(roundTrip("foo"), "foo");
  EXPECT_EQ(roundTrip("foo(a, B, 3)"), "foo(a,_A,3)");
  EXPECT_EQ(roundTrip("f(g(h(x)))"), "f(g(h(x)))");
}

TEST(Parser, Lists) {
  EXPECT_EQ(roundTrip("[]"), "[]");
  EXPECT_EQ(roundTrip("[1,2,3]"), "[1,2,3]");
  EXPECT_EQ(roundTrip("[H|T]"), "[_A|_B]");
  EXPECT_EQ(roundTrip("[a,b|T]"), "[a,b|_A]");
  EXPECT_EQ(roundTrip("[[1],[2,3]]"), "[[1],[2,3]]");
}

TEST(Parser, ClauseSyntax) {
  EXPECT_EQ(roundTrip("p(X) :- q(X), r(X)"), "p(_A) :- (q(_A), r(_A))");
}

TEST(Parser, OperatorPrecedence) {
  // * binds tighter than +; + is left-associative.
  EXPECT_EQ(roundTrip("X is 1 + 2 * 3"), "is(_A,+(1,*(2,3)))");
  EXPECT_EQ(roundTrip("X is 1 + 2 + 3"), "is(_A,+(+(1,2),3))");
  EXPECT_EQ(roundTrip("X is (1 + 2) * 3"), "is(_A,*(+(1,2),3))");
}

TEST(Parser, ComparisonOperators) {
  EXPECT_EQ(roundTrip("X < Y"), "<(_A,_B)");
  EXPECT_EQ(roundTrip("X =< Y"), "=<(_A,_B)");
  EXPECT_EQ(roundTrip("X \\== Y"), "\\==(_A,_B)");
}

TEST(Parser, NegativeNumbers) {
  EXPECT_EQ(roundTrip("f(-1)"), "f(-1)");
  EXPECT_EQ(roundTrip("X is -1 + 2"), "is(_A,+(-1,2))");
  EXPECT_EQ(roundTrip("X is - Y"), "is(_A,-(_B))");
}

TEST(Parser, AnonymousVariablesAreDistinct) {
  SymbolTable Syms;
  TermStore S;
  auto T = Parser::parseTerm(Syms, S, "f(_, _)");
  ASSERT_TRUE(T.hasValue());
  EXPECT_NE(S.deref(S.arg(*T, 0)), S.deref(S.arg(*T, 1)));
}

TEST(Parser, NamedVariablesShareWithinClause) {
  SymbolTable Syms;
  TermStore S;
  auto T = Parser::parseTerm(Syms, S, "f(X, X)");
  ASSERT_TRUE(T.hasValue());
  EXPECT_EQ(S.deref(S.arg(*T, 0)), S.deref(S.arg(*T, 1)));
}

TEST(Parser, CutAndControl) {
  EXPECT_EQ(roundTrip("p :- a, !, b"), "p :- (a, !, b)");
  EXPECT_EQ(roundTrip("p :- \\+ q"), "p :- \\+(q)");
  EXPECT_EQ(roundTrip("p :- (a ; b)"), "p :- ;(a,b)");
  EXPECT_EQ(roundTrip("p :- (a -> b ; c)"), "p :- ;(->(a,b),c)");
}

TEST(Parser, Strings) {
  EXPECT_EQ(roundTrip("\"ab\""), "[97,98]");
}

TEST(Parser, MultipleClauses) {
  SymbolTable Syms;
  TermStore S;
  auto P = Parser::parseProgram(Syms, S, R"(
    ap([], Ys, Ys).
    ap([X|Xs], Ys, [X|Zs]) :- ap(Xs, Ys, Zs).
  )");
  ASSERT_TRUE(P.hasValue());
  EXPECT_EQ(P->size(), 2u);
}

TEST(Parser, ReportsErrors) {
  SymbolTable Syms;
  TermStore S;
  auto P = Parser::parseProgram(Syms, S, "f(a.\n");
  EXPECT_FALSE(P.hasValue());
  auto P2 = Parser::parseProgram(Syms, S, "f(a))).\n");
  EXPECT_FALSE(P2.hasValue());
}

TEST(Parser, DirectiveSyntax) {
  EXPECT_EQ(roundTrip(":- table ap/3"), ":-(table(/(ap,3)))");
}

/// The reader's three recursive shapes, each \p Levels deep: nested
/// arguments, a ','-chain clause body, and a prefix '-' chain.
std::vector<std::string> deepPrograms(size_t Levels) {
  std::string Args;
  for (size_t I = 0; I < Levels; ++I)
    Args += "f(";
  Args += "a";
  Args += std::string(Levels, ')');
  std::string Body = "q :- p";
  for (size_t I = 0; I < Levels; ++I)
    Body += ", p";
  std::string Prefix = "q(";
  for (size_t I = 0; I < Levels; ++I)
    Prefix += "- ";
  Prefix += "x)";
  return {"p(" + Args + ").\n", Body + ".\n", Prefix + ".\n"};
}

TEST(Parser, DeepNestingIsAnErrorNotACrash) {
  for (const std::string &Prog : deepPrograms(1000000)) {
    SymbolTable Syms;
    TermStore S;
    auto P = Parser::parseProgram(Syms, S, Prog);
    ASSERT_FALSE(P.hasValue()) << Prog.substr(0, 40);
    EXPECT_NE(P.getError().str().find("nesting too deep"), std::string::npos)
        << P.getError().str();
  }
}

TEST(Parser, NestingWithinTheBudgetParses) {
  for (const std::string &Prog :
       deepPrograms(Parser::MaxNesting - 10)) {
    SymbolTable Syms;
    TermStore S;
    auto P = Parser::parseProgram(Syms, S, Prog);
    ASSERT_TRUE(P.hasValue()) << P.getError().str();
    EXPECT_EQ(P->size(), 1u);
  }
  // The reader is reusable after rejecting a clause.
  SymbolTable Syms;
  TermStore S;
  EXPECT_FALSE(
      Parser::parseProgram(Syms, S, deepPrograms(1000000)[0]).hasValue());
  EXPECT_EQ(roundTrip("f(g(h(a)))"), "f(g(h(a)))");
}

TEST(Parser, VariableNameListIsExposed) {
  SymbolTable Syms;
  TermStore S;
  Parser P(Syms, S, "f(X, Y, X).");
  auto T = P.nextClause();
  ASSERT_TRUE(T.hasValue());
  const auto &Vars = P.clauseVars();
  ASSERT_EQ(Vars.size(), 2u);
  EXPECT_EQ(Vars[0].first, "X");
  EXPECT_EQ(Vars[1].first, "Y");
}

} // namespace

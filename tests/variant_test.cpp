//===- variant_test.cpp - Canonical variant key tests ---------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "reader/Parser.h"
#include "term/Variant.h"

#include <gtest/gtest.h>

#include <random>

using namespace lpa;

namespace {

class VariantTest : public ::testing::Test {
protected:
  TermRef parse(const char *Text) {
    auto T = Parser::parseTerm(Syms, S, Text);
    EXPECT_TRUE(T.hasValue()) << Text;
    return *T;
  }

  /// Variance as the tables decide it: equal canonical keys.
  bool variant(TermRef A, TermRef B) {
    return canonicalKey(S, A) == canonicalKey(S, B);
  }

  SymbolTable Syms;
  TermStore S;
};

TEST_F(VariantTest, IdenticalGroundTermsAreVariants) {
  EXPECT_TRUE(variant(parse("f(a, 1)"), parse("f(a, 1)")));
}

TEST_F(VariantTest, RenamedVariablesAreVariants) {
  EXPECT_TRUE(variant(parse("f(X, Y)"), parse("f(A, B)")));
  EXPECT_TRUE(variant(parse("f(X, X)"), parse("f(A, A)")));
}

TEST_F(VariantTest, SharingPatternMatters) {
  // f(X, X) and f(A, B) are NOT variants: the renaming must be 1-1.
  EXPECT_FALSE(variant(parse("f(X, X)"), parse("f(A, B)")));
  EXPECT_FALSE(variant(parse("f(X, Y)"), parse("f(A, A)")));
}

TEST_F(VariantTest, InstancesAreNotVariants) {
  EXPECT_FALSE(variant(parse("f(X)"), parse("f(a)")));
  EXPECT_FALSE(variant(parse("f(a)"), parse("f(X)")));
  EXPECT_FALSE(variant(parse("f(X, Y)"), parse("g(X, Y)")));
  EXPECT_FALSE(variant(parse("f([1,2|T], T)"), parse("f([1,2|T], S)")));
}

TEST_F(VariantTest, SwappedDistinctVariablesAreVariants) {
  // f(X, Y) vs f(Y, X): both are "two distinct variables".
  TermRef A = parse("f(X, Y)");
  TermRef B = parse("f(Y2, X2)");
  EXPECT_TRUE(variant(A, B));
}

TEST_F(VariantTest, BoundVariablesCompareByValue) {
  TermRef A = parse("f(X)");
  S.bind(S.deref(S.arg(A, 0)), parse("a"));
  EXPECT_TRUE(variant(A, parse("f(a)")));
  EXPECT_FALSE(variant(A, parse("f(b)")));
}

TEST_F(VariantTest, KeyDistinguishesIntsFromAtoms) {
  // 1 the integer vs '1'-like atoms must not collide.
  EXPECT_NE(canonicalKey(S, S.mkInt(1)), canonicalKey(S, parse("a")));
}

TEST_F(VariantTest, KeyIsStableUnderCopies) {
  TermStore S2;
  TermRef A = parse("p(f(X), Y, X)");
  auto Key1 = canonicalKey(S, A);
  auto Parsed2 = Parser::parseTerm(Syms, S2, "p(f(Q), R, Q)");
  ASSERT_TRUE(Parsed2.hasValue());
  EXPECT_EQ(Key1, canonicalKey(S2, *Parsed2));
}

TEST(VariantProperty, ReflexiveOnRandomTerms) {
  SymbolTable Syms;
  TermStore S;
  std::mt19937 Rng(7);
  for (int Round = 0; Round < 100; ++Round) {
    // Random nested term with shared variables.
    std::vector<TermRef> Vars{S.mkVar(), S.mkVar()};
    TermRef T = S.mkVar();
    for (int I = 0; I < 5; ++I) {
      TermRef Leaf = Vars[Rng() % Vars.size()];
      T = S.mkStruct2(Syms.intern("f"), T, Leaf);
    }
    EXPECT_EQ(canonicalKey(S, T), canonicalKey(S, T));
  }
}

} // namespace

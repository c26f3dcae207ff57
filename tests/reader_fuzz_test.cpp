//===- reader_fuzz_test.cpp - Seeded mutational fuzzing of the parsers ----===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Part of the "ctest -L fuzz" suite. A fixed-seed PRNG (FuzzMutator.h)
// mutates the corpus programs by byte flips, inserts, deletes and splices,
// for a fixed number of iterations. Properties:
//
//   - reader: every clause the Prolog reader accepts, written back by
//     TermWriter, reads as exactly one clause that is a variant of it;
//   - Database::consult of a mutant either loads exactly the clauses the
//     reader accepts, or returns a diagnostic and leaves the clause count,
//     revision clock, predicate ids, defined predicates and tabling flags
//     as they were;
//   - FL parser: every mutant parses or returns a diagnostic, and the
//     unmutated programs parse.
//
//===----------------------------------------------------------------------===//

#include "FuzzMutator.h"

#include "corpus/Corpus.h"
#include "engine/Database.h"
#include "fl/FLParser.h"
#include "reader/Parser.h"
#include "term/TermWriter.h"
#include "term/Variant.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace lpa;
using namespace lpa::test;

namespace {

constexpr uint64_t FuzzSeed = 0x6c70615f72656164ull;
constexpr int ReaderIterations = 1500;
constexpr int FLIterations = 3000;

std::vector<std::string> sources(const std::vector<CorpusProgram> &Corpus) {
  std::vector<std::string> Out;
  for (const CorpusProgram &P : Corpus)
    Out.emplace_back(P.Source);
  return Out;
}

bool isDirective(const SymbolTable &Syms, const TermStore &S, TermRef T) {
  TermRef D = S.deref(T);
  return S.tag(D) == TermTag::Struct && S.symbol(D) == Syms.Neck &&
         S.arity(D) == 1;
}

/// The write-back property for clause \p T; returns a failure message or "".
std::string checkWriteBack(SymbolTable &Syms, const TermStore &S, TermRef T) {
  std::string Text = TermWriter::toString(Syms, S, T) + " .";
  TermStore Back;
  Parser P(Syms, Back, Text);
  auto C = P.nextClause();
  if (!C || *C == InvalidTerm)
    return "written clause does not read back: " + Text;
  auto End = P.nextClause();
  if (!End || *End != InvalidTerm)
    return "written clause reads as more than one: " + Text;
  if (canonicalKey(Back, *C) != canonicalKey(S, T))
    return "written clause reads back as another term: " + Text;
  return "";
}

/// What consult must leave alone when it fails.
struct DbState {
  size_t Clauses;
  uint64_t Revision;
  size_t PredIds;
  std::vector<PredKey> Defined;
  std::vector<bool> Tabled; ///< Parallel to Defined.

  explicit DbState(const Database &DB)
      : Clauses(DB.numClauses()), Revision(DB.globalRevision()),
        PredIds(DB.numPredIds()), Defined(DB.predicates()) {
    for (PredKey K : Defined)
      Tabled.push_back(DB.isTabled(K));
  }
  bool operator==(const DbState &) const = default;
};

TEST(ReaderFuzz, ClausesWriteBackAndConsultIsAllOrNothing) {
  Mutator M(sources(prologBenchmarks()), FuzzSeed,
            "()[]{},.|:-;'\"\\!_% XYab019+*=<>");
  const char *Base = ":- table base/1. base(a). base(X) :- base(X), !.";
  int Loaded = 0;
  for (int I = 0; I < ReaderIterations; ++I) {
    std::string Text = M.mutate(M.Seeds[M.below(M.Seeds.size())]);
    SymbolTable Syms;
    TermStore Store;
    Parser P(Syms, Store, Text);
    size_t Accepted = 0;
    bool Readable = true;
    while (true) {
      auto C = P.nextClause();
      if (!C) {
        Readable = false;
        break;
      }
      if (*C == InvalidTerm)
        break;
      ASSERT_EQ(checkWriteBack(Syms, Store, *C), "") << "iteration " << I;
      Accepted += !isDirective(Syms, Store, *C);
    }

    Database DB(Syms);
    ASSERT_TRUE(DB.consult(Base).hasValue());
    DbState Before(DB);
    if (DB.consult(Text)) {
      ASSERT_TRUE(Readable) << "iteration " << I << ": consulted unreadable "
                            << Text;
      ASSERT_EQ(DB.numClauses(), Before.Clauses + Accepted)
          << "iteration " << I;
      ++Loaded;
    } else {
      ASSERT_TRUE(DbState(DB) == Before)
          << "iteration " << I << ": failed consult changed the database";
    }
  }
  // The mutants are not vacuous: a good share still loads.
  std::printf("%d of %d mutants loaded\n", Loaded, ReaderIterations);
  EXPECT_GT(Loaded, ReaderIterations / 10);
}

TEST(FLParserFuzz, EveryMutantParsesOrIsDiagnosed) {
  std::vector<std::string> Seeds = sources(flBenchmarks());
  for (const std::string &S : Seeds)
    ASSERT_TRUE(FLParser::parse(S).hasValue());
  Mutator M(std::move(Seeds), FuzzSeed, "()[],=|:-;.'\"% xyab01+*/<>");
  int Parsed = 0;
  for (int I = 0; I < FLIterations; ++I) {
    auto R = FLParser::parse(M.mutate(M.Seeds[M.below(M.Seeds.size())]));
    if (R)
      ++Parsed;
    else
      ASSERT_FALSE(R.getError().Message.empty()) << "iteration " << I;
  }
  std::printf("%d of %d mutants parsed\n", Parsed, FLIterations);
  EXPECT_GT(Parsed, FLIterations / 20);
}

} // namespace

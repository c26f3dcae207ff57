//===- alloc_gate_test.cpp - Allocations per clause resolution -------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// The engine's hot path allocates nothing per resolution step once its
// scratch is warm: clauses are renamed through compiled skeletons, and the
// copy, unify and frontier stacks are reused. This binary replaces global
// operator new with a counting one and gates the allocations of a whole
// Prop groundness analysis per clause resolution. Serial evaluation is
// deterministic, so the count is too. The same operators also track live
// heap bytes, which gates memory a warm database keeps across edits.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "engine/Database.h"
#include "prop/Groundness.h"
#include "srv/Session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <new>
#include <string>

namespace {
std::atomic<uint64_t> Allocations{0};
std::atomic<int64_t> LiveBytes{0};

void *countedAlloc(std::size_t N) noexcept {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  void *P = std::malloc(N ? N : 1);
  if (P)
    LiveBytes.fetch_add(static_cast<int64_t>(malloc_usable_size(P)),
                        std::memory_order_relaxed);
  return P;
}

void countedFree(void *P) noexcept {
  if (P)
    LiveBytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(P)),
                        std::memory_order_relaxed);
  std::free(P);
}
} // namespace

void *operator new(std::size_t N) {
  if (void *P = countedAlloc(N))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) {
  if (void *P = countedAlloc(N))
    return P;
  throw std::bad_alloc();
}
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
void operator delete(void *P) noexcept { countedFree(P); }
void operator delete[](void *P) noexcept { countedFree(P); }
void operator delete(void *P, std::size_t) noexcept { countedFree(P); }
void operator delete[](void *P, std::size_t) noexcept { countedFree(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  countedFree(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  countedFree(P);
}

using namespace lpa;

namespace {

struct AllocFigures {
  uint64_t Allocations;
  uint64_t ClauseResolutions;
  double perResolution() const {
    return double(Allocations) / double(ClauseResolutions);
  }
};

/// Counts the allocations of one serial Prop groundness analysis.
AllocFigures measure(const char *Program) {
  const CorpusProgram *P = findBenchmark(Program);
  EXPECT_TRUE(P) << Program;
  if (!P)
    return {0, 1};
  SymbolTable Syms;
  GroundnessAnalyzer A(Syms);
  uint64_t Before = Allocations.load(std::memory_order_relaxed);
  auto R = A.analyze(P->Source);
  uint64_t After = Allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(R.hasValue());
  if (!R)
    return {0, 1};
  AllocFigures F{After - Before, R->Stats.ClauseResolutions};
  std::printf("%s: %llu allocations, %llu clause resolutions, %.2f per "
              "resolution\n",
              Program, static_cast<unsigned long long>(F.Allocations),
              static_cast<unsigned long long>(F.ClauseResolutions),
              F.perResolution());
  return F;
}

// Compiling clauses at load time took press1 from 286 allocations per
// clause resolution to 27, and read from 253 to 29. What remains is table
// growth (tries, answer tuples, frontier stores) and the analyzer's own
// transform and collect phases. The bounds leave about 7% headroom over
// those figures, not room for per-step allocation to return.
TEST(AllocGate, Press1AllocationsPerResolution) {
  AllocFigures F = measure("press1");
  EXPECT_GT(F.ClauseResolutions, 1000u);
  EXPECT_LE(F.perResolution(), 29.0);
}

TEST(AllocGate, ReadAllocationsPerResolution) {
  AllocFigures F = measure("read");
  EXPECT_GT(F.ClauseResolutions, 500u);
  EXPECT_LE(F.perResolution(), 31.0);
}

/// Allocations of one warm query in a session whose slow log uses
/// \p ThresholdMs, after enough queries to fill every telemetry ring.
uint64_t warmQueryAllocations(double ThresholdMs) {
  AnalysisSession::Options O;
  O.SlowLog.ThresholdMs = ThresholdMs;
  AnalysisSession S(O);
  EXPECT_TRUE(S.consult(":- table path/2. path(X,Y) :- edge(X,Y). "
                        "path(X,Y) :- path(X,Z), edge(Z,Y). "
                        "edge(a,b). edge(b,c). edge(c,a).")
                  .hasValue());
  for (int I = 0; I < 300; ++I)
    EXPECT_TRUE(S.runQuery("path(a,X)").hasValue());
  uint64_t Before = Allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(S.runQuery("path(a,X)").hasValue());
  uint64_t After = Allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(S.slowlog().captured(), 0u); // Microseconds, under the floor.
  return After - Before;
}

// The default adaptive slow log snapshots a per-predicate baseline and a
// window quantile on every query. Once warm, a query it does not capture
// allocates nothing more than with the slow log off.
TEST(AllocGate, UncapturedQueryPaysNoSlowLogAllocations) {
  EXPECT_EQ(warmQueryAllocations(/*adaptive*/ 0), warmQueryAllocations(-1));
}

// A warm session edits its program by retract and consult. Retracting a
// clause must free what loading it allocated, so a service that keeps
// editing holds memory in proportion to its program, not to its history.
// After one warm-up cycle has sized every reused buffer, 2,000 more cycles
// may not keep more than a few KiB.
TEST(AllocGate, RetractConsultCyclesRetainNoClauseMemory) {
  const char *Rule = "path(X, Y) :- edge(X, Z), path(Z, W), edge(W, Y), "
                     "X \\== f(Y, [Z, W]).";
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(std::string(":- table path/2.\n"
                                     "path(X, Y) :- edge(X, Y).\n"
                                     "edge(a, b). edge(b, c). edge(c, d).\n") +
                         Rule)
                  .hasValue());
  auto Cycle = [&] {
    auto Removed = DB.retract(Rule);
    return Removed.hasValue() && *Removed == 1 && DB.consult(Rule).hasValue();
  };
  ASSERT_TRUE(Cycle());
  int64_t Warm = LiveBytes.load(std::memory_order_relaxed);
  for (int I = 0; I < 2000; ++I)
    ASSERT_TRUE(Cycle()) << "cycle " << I;
  int64_t Grown = LiveBytes.load(std::memory_order_relaxed) - Warm;
  std::printf("2000 retract+consult cycles: %lld bytes retained\n",
              static_cast<long long>(Grown));
  EXPECT_EQ(DB.numClauses(), 5u);
  EXPECT_LE(Grown, 4096);
}

TEST(AllocGate, CountIsDeterministic) {
  (void)measure("read"); // Warms the per-thread scratch first.
  AllocFigures A = measure("read");
  AllocFigures B = measure("read");
  EXPECT_EQ(A.Allocations, B.Allocations);
  EXPECT_EQ(A.ClauseResolutions, B.ClauseResolutions);
}

} // namespace

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
// deterministic, so the count is too.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "prop/Groundness.h"
#include "srv/Session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> Allocations{0};

void *countedAlloc(std::size_t N) noexcept {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
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
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
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

TEST(AllocGate, CountIsDeterministic) {
  (void)measure("read"); // Warms the per-thread scratch first.
  AllocFigures A = measure("read");
  AllocFigures B = measure("read");
  EXPECT_EQ(A.Allocations, B.Allocations);
  EXPECT_EQ(A.ClauseResolutions, B.ClauseResolutions);
}

} // namespace

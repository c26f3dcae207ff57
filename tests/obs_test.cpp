//===- obs_test.cpp - Observability layer tests -------------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Covers the src/obs subsystem end to end: the JSON writer, histograms,
// the metrics registry, SLG event ordering from the engine, the
// disabled-path guarantee (no sink => no events), table snapshots,
// resetStats() semantics, and the Chrome trace exporter.
//
//===----------------------------------------------------------------------===//

#include "engine/Solver.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "prop/Groundness.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace lpa;

namespace {

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

TEST(JsonWriter, ObjectsArraysAndEscaping) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("name", "a\"b\\c\n");
  W.member("n", uint64_t(42));
  W.member("neg", int64_t(-7));
  W.member("pi", 3.5);
  W.member("flag", true);
  W.key("rows");
  W.beginArray();
  W.value(uint64_t(1));
  W.value("two");
  W.beginObject();
  W.endObject();
  W.endArray();
  W.endObject();
  EXPECT_EQ(Out, "{\"name\":\"a\\\"b\\\\c\\n\",\"n\":42,\"neg\":-7,"
                 "\"pi\":3.5,\"flag\":true,\"rows\":[1,\"two\",{}]}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::string Out;
  JsonWriter W(Out);
  W.beginArray();
  W.value(std::numeric_limits<double>::infinity());
  W.value(std::numeric_limits<double>::quiet_NaN());
  W.endArray();
  EXPECT_EQ(Out, "[null,null]");
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(Histogram, BasicStatistics) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.quantile(0.5), 0u);
  for (uint64_t V : {1, 1, 2, 3, 100})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.min(), 1u);
  EXPECT_EQ(H.max(), 100u);
  EXPECT_DOUBLE_EQ(H.mean(), 107.0 / 5);
  // Median falls in the bucket holding the small values.
  EXPECT_LE(H.quantile(0.5), 3u);
  EXPECT_LE(H.quantile(1.0), 100u);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.max(), 0u);
}

TEST(Histogram, ZeroAndLargeValues) {
  Histogram H;
  H.record(0);
  H.record(~uint64_t(0));
  EXPECT_EQ(H.count(), 2u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), ~uint64_t(0));
  EXPECT_EQ(H.quantile(0.0), 0u);
}

TEST(Histogram, QuantileEdgeCasesArePinned) {
  // Empty: every Q reports 0.
  Histogram Empty;
  for (double Q : {-1.0, 0.0, 0.5, 1.0, 2.0})
    EXPECT_EQ(Empty.quantile(Q), 0u) << Q;

  // {5, 6, 7} all land in bucket 3 (values in [4, 8)); the bucket's upper
  // bound is 7. Q <= 0 must report exactly min() (5, not the bucket
  // bound), and Q >= 1 exactly max().
  Histogram H;
  for (uint64_t V : {5, 6, 7})
    H.record(V);
  EXPECT_EQ(H.quantile(0.0), 5u);
  EXPECT_EQ(H.quantile(-0.5), 5u);
  EXPECT_EQ(H.quantile(1.0), 7u);
  EXPECT_EQ(H.quantile(1.5), 7u);
  EXPECT_EQ(H.quantile(0.5), 7u); // Mid falls in the bucket; bound = 7.

  // {1, 2, 4, 8} spread across buckets: interior quantiles return bucket
  // upper bounds (2^B - 1), clamped into [min, max].
  Histogram S;
  for (uint64_t V : {1, 2, 4, 8})
    S.record(V);
  EXPECT_EQ(S.quantile(0.0), 1u);
  EXPECT_EQ(S.quantile(0.25), 1u); // Bucket 1 covers [1, 2); bound = 1.
  EXPECT_EQ(S.quantile(0.99), 7u); // Bucket 3 covers [4, 8); bound = 7.
  EXPECT_EQ(S.quantile(1.0), 8u);  // Exactly max, above every bound.
}

//===----------------------------------------------------------------------===//
// Event ordering from the engine (the tentpole's correctness core)
//===----------------------------------------------------------------------===//

/// One tabled evaluation of path/2 over a 3-cycle with a tracer attached.
struct TracedRun {
  SymbolTable Symbols;
  Database DB{Symbols};
  Solver Engine{DB};
  Tracer Trace;
  RecordingSink Sink;

  explicit TracedRun(bool AttachSink = true) {
    EXPECT_TRUE(DB.consult(":- table path/2.\n"
                           "path(X, Y) :- path(X, Z), edge(Z, Y).\n"
                           "path(X, Y) :- edge(X, Y).\n"
                           "edge(a, b). edge(b, c). edge(c, a).\n"));
    if (AttachSink)
      Trace.setSink(&Sink);
    Engine.setSink(&Trace);
  }

  size_t solve(const char *Goal) {
    auto N = Engine.solveText(Goal, nullptr);
    EXPECT_TRUE(bool(N));
    return N ? *N : 0;
  }
};

TEST(TraceEvents, TabledEvaluationEventOrdering) {
  TracedRun R;
  EXPECT_EQ(R.solve("path(a, X)"), 3u);

  const std::vector<TraceEvent> &Es = R.Sink.events();
  ASSERT_FALSE(Es.empty());

  auto FirstOf = [&](TraceEventKind K) {
    return std::find_if(Es.begin(), Es.end(),
                        [&](const TraceEvent &E) { return E.Kind == K; });
  };
  auto LastOf = [&](TraceEventKind K) {
    auto It = std::find_if(Es.rbegin(), Es.rend(),
                           [&](const TraceEvent &E) { return E.Kind == K; });
    return It == Es.rend() ? Es.end() : It.base() - 1;
  };

  // The SLG lifecycle: the tabled call precedes its subgoal's creation,
  // every answer lands before the subgoal completes.
  auto Call = FirstOf(TraceEventKind::TabledCall);
  auto New = FirstOf(TraceEventKind::SubgoalNew);
  auto Ans = FirstOf(TraceEventKind::AnswerNew);
  auto Done = FirstOf(TraceEventKind::SubgoalComplete);
  ASSERT_NE(Call, Es.end());
  ASSERT_NE(New, Es.end());
  ASSERT_NE(Ans, Es.end());
  ASSERT_NE(Done, Es.end());
  EXPECT_LT(Call - Es.begin(), New - Es.begin());
  EXPECT_LT(New - Es.begin(), Ans - Es.begin());
  EXPECT_LT(LastOf(TraceEventKind::AnswerNew) - Es.begin(),
            Done - Es.begin());

  // path(a,_) over a 3-cycle: 3 answers for the one subgoal.
  EXPECT_EQ(R.Sink.count(TraceEventKind::SubgoalNew), 1u);
  EXPECT_EQ(R.Sink.count(TraceEventKind::AnswerNew), 3u);
  EXPECT_EQ(R.Sink.count(TraceEventKind::SubgoalComplete), 1u);
  EXPECT_GE(R.Sink.count(TraceEventKind::ClauseResolve), 2u);

  // The completion event carries the final answer count as payload.
  EXPECT_EQ(Done->Value, 3u);

  // Event times are monotone (nowNs is a monotonic clock).
  for (size_t I = 1; I < Es.size(); ++I)
    EXPECT_LE(Es[I - 1].TimeNs, Es[I].TimeNs);

  // Every predicate-carrying event names path/2 or edge/2.
  SymbolId Path = R.Symbols.intern("path");
  SymbolId Edge = R.Symbols.intern("edge");
  for (const TraceEvent &E : Es)
    if (E.Kind != TraceEventKind::SpanBegin &&
        E.Kind != TraceEventKind::SpanEnd) {
      EXPECT_TRUE(E.Sym == Path || E.Sym == Edge);
      EXPECT_EQ(E.Arity, 2u);
    }
}

TEST(TraceEvents, CompletedTableReplayEmitsNoNewSubgoals) {
  TracedRun R;
  R.solve("path(a, X)");
  R.Sink.clear();
  // Re-querying a completed subgoal replays from the table: a tabled call
  // happens, but no subgoal creation, answers, or completion.
  EXPECT_EQ(R.solve("path(a, X)"), 3u);
  EXPECT_GE(R.Sink.count(TraceEventKind::TabledCall), 1u);
  EXPECT_EQ(R.Sink.count(TraceEventKind::SubgoalNew), 0u);
  EXPECT_EQ(R.Sink.count(TraceEventKind::AnswerNew), 0u);
  EXPECT_EQ(R.Sink.count(TraceEventKind::SubgoalComplete), 0u);
}

TEST(TraceEvents, DetachedSinkRecordsNothing) {
  // A tracer with no sink is the "disabled" configuration: the engine
  // still runs the same evaluation, and the recording sink — attached
  // only afterwards — must have seen zero events.
  TracedRun R(/*AttachSink=*/false);
  EXPECT_FALSE(R.Trace.enabled());
  EXPECT_EQ(R.solve("path(a, X)"), 3u);
  EXPECT_TRUE(R.Sink.events().empty());

  // Attaching mid-session starts the stream from that point.
  R.Trace.setSink(&R.Sink);
  R.solve("path(b, X)");
  EXPECT_FALSE(R.Sink.events().empty());
}

TEST(TraceEvents, KindNamesAreStable) {
  EXPECT_STREQ(traceEventKindName(TraceEventKind::TabledCall),
               "tabled-call");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::SubgoalNew),
               "subgoal-new");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::AnswerNew), "answer-new");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::AnswerDup), "answer-dup");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::SubgoalComplete),
               "subgoal-complete");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::SpanBegin), "span-begin");
}

//===----------------------------------------------------------------------===//
// Metrics registry + engine integration
//===----------------------------------------------------------------------===//

TEST(Metrics, PerPredicateCountersMatchEvalStats) {
  SymbolTable Symbols;
  Database DB(Symbols);
  ASSERT_TRUE(DB.consult(":- table path/2.\n"
                         "path(X, Y) :- path(X, Z), edge(Z, Y).\n"
                         "path(X, Y) :- edge(X, Y).\n"
                         "edge(a, b). edge(b, c). edge(c, a).\n"));
  Solver Engine(DB);
  MetricsRegistry Reg;
  Engine.setSink(&Reg);
  ASSERT_TRUE(bool(Engine.solveText("path(a, X)", nullptr)));

  uint64_t Calls = 0, Subgoals = 0, NewAns = 0, DupAns = 0, Resol = 0;
  for (const PredMetrics *PM : Reg.predicates()) {
    Calls += PM->Calls;
    Subgoals += PM->NewSubgoals;
    NewAns += PM->NewAnswers;
    DupAns += PM->DupAnswers;
    Resol += PM->Resolutions;
  }
  const EvalStats &S = Engine.stats();
  EXPECT_EQ(Calls, S.TabledCalls);
  EXPECT_EQ(Subgoals, S.SubgoalsCreated);
  EXPECT_EQ(NewAns, S.AnswersRecorded);
  EXPECT_EQ(DupAns, S.AnswersDuplicate);
  EXPECT_EQ(Resol, S.ClauseResolutions);

  // First-touch order and qualified names survive into the report.
  std::string Report = Reg.renderReport();
  EXPECT_NE(Report.find("path/2"), std::string::npos);
  EXPECT_NE(Report.find("Predicate"), std::string::npos);
}

TEST(Metrics, TableSnapshotMatchesEngineTables) {
  SymbolTable Symbols;
  Database DB(Symbols);
  ASSERT_TRUE(DB.consult(":- table p/1.\n p(1). p(2). p(3).\n"
                         ":- table q/1.\n q(X) :- p(X).\n"));
  Solver Engine(DB);
  MetricsRegistry Reg;
  Engine.setSink(&Reg);
  ASSERT_TRUE(bool(Engine.solveText("q(X)", nullptr)));

  Engine.snapshotTableMetrics(Reg);
  uint64_t Subgoals = 0, Answers = 0, Bytes = 0;
  for (const PredMetrics *PM : Reg.predicates()) {
    Subgoals += PM->TableSubgoals;
    Answers += PM->TableAnswers;
    Bytes += PM->TableBytes;
  }
  EXPECT_EQ(Subgoals, Engine.subgoals().size());
  uint64_t EngineAnswers = 0;
  for (const Subgoal *SG : Engine.subgoals())
    EngineAnswers += Engine.answerCount(*SG);
  EXPECT_EQ(Answers, EngineAnswers);
  EXPECT_GT(Bytes, 0u);

  // Snapshots are idempotent: a second snapshot assigns, not accumulates.
  Engine.snapshotTableMetrics(Reg);
  uint64_t Subgoals2 = 0;
  for (const PredMetrics *PM : Reg.predicates())
    Subgoals2 += PM->TableSubgoals;
  EXPECT_EQ(Subgoals2, Subgoals);

  // The registry's global counters mirror EvalStats + table space.
  std::string Json;
  JsonWriter W(Json);
  Reg.writeJson(W);
  EXPECT_NE(Json.find("\"table_space_bytes\":"), std::string::npos);
  EXPECT_NE(Json.find("\"predicates\":["), std::string::npos);
  EXPECT_NE(Json.find("\"answers_per_subgoal\":{"), std::string::npos);
}

TEST(Metrics, PhaseSpansAccumulateAndExport) {
  MetricsRegistry Reg;
  Tracer Trace;
  RecordingSink Sink;
  Trace.setSink(&Sink);
  FanoutSink Both{&Trace, &Reg};
  {
    ScopedSpan Outer(&Both, "evaluate");
  }
  {
    ScopedSpan Again(&Both, "evaluate");
  }
  ASSERT_EQ(Reg.phases().size(), 1u); // Same label accumulates.
  EXPECT_EQ(Reg.phases()[0].first, "evaluate");
  EXPECT_GE(Reg.phases()[0].second, 0.0);
  EXPECT_EQ(Sink.count(TraceEventKind::SpanBegin), 2u);
  EXPECT_EQ(Sink.count(TraceEventKind::SpanEnd), 2u);
}

/// The tracer's span-balance self-check: every build tracks open spans
/// (an end without a begin fails an assertion in builds with asserts on).
TEST(TraceAsserts, SpanBalanceIsTracked) {
  Tracer T;
  EXPECT_EQ(T.openSpans(), 0u);
  T.beginSpan("phase");
  EXPECT_EQ(T.openSpans(), 1u);
  T.endSpan("phase");
  EXPECT_EQ(T.openSpans(), 0u);
  // Spans that reach the tracer as events (ScopedSpan through a fan-out)
  // count the same way.
  {
    ScopedSpan S(&T, "phase");
    EXPECT_EQ(T.openSpans(), 1u);
  }
  EXPECT_EQ(T.openSpans(), 0u);
}

//===----------------------------------------------------------------------===//
// resetStats() semantics (satellite regression test)
//===----------------------------------------------------------------------===//

TEST(ResetStats, CountersOnlyTablesPersist) {
  SymbolTable Symbols;
  Database DB(Symbols);
  ASSERT_TRUE(DB.consult(":- table path/2.\n"
                         "path(X, Y) :- path(X, Z), edge(Z, Y).\n"
                         "path(X, Y) :- edge(X, Y).\n"
                         "edge(a, b). edge(b, c). edge(c, a).\n"));
  Solver Engine(DB);
  ASSERT_TRUE(bool(Engine.solveText("path(a, X)", nullptr)));
  EXPECT_GT(Engine.stats().SubgoalsCreated, 0u);
  EXPECT_GT(Engine.stats().AnswersRecorded, 0u);
  size_t BytesBefore = Engine.tableSpaceBytes();

  // resetStats() zeroes counters but keeps the tables.
  Engine.resetStats();
  EXPECT_EQ(Engine.stats().SubgoalsCreated, 0u);
  EXPECT_EQ(Engine.stats().AnswersRecorded, 0u);
  EXPECT_EQ(Engine.stats().TabledCalls, 0u);
  EXPECT_EQ(Engine.tableSpaceBytes(), BytesBefore);

  // Re-evaluating the completed goal replays answers from the table: the
  // call is counted, but no subgoal creation or answer recording happens.
  auto N = Engine.solveText("path(a, X)", nullptr);
  ASSERT_TRUE(bool(N));
  EXPECT_EQ(*N, 3u);
  EXPECT_GT(Engine.stats().TabledCalls, 0u);
  EXPECT_EQ(Engine.stats().SubgoalsCreated, 0u);
  EXPECT_EQ(Engine.stats().AnswersRecorded, 0u);

  // clearTables() + resetStats() gives the from-scratch measurement: the
  // same query re-derives everything.
  Engine.clearTables();
  Engine.resetStats();
  ASSERT_TRUE(bool(Engine.solveText("path(a, X)", nullptr)));
  EXPECT_GT(Engine.stats().SubgoalsCreated, 0u);
  EXPECT_EQ(Engine.stats().AnswersRecorded, 3u);
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST(ChromeTrace, SpansAndInstantsSerialize) {
  SymbolTable Symbols;
  SymbolId P = Symbols.intern("p");
  Tracer Trace;
  RecordingSink Sink;
  Trace.setSink(&Sink);
  Trace.beginSpan("evaluate");
  Trace.emit(TraceEventKind::TabledCall, P, 2);
  Trace.emit(TraceEventKind::AnswerNew, P, 2, 1);
  Trace.endSpan("evaluate");

  std::string Json = formatChromeTrace(Sink.events(), Symbols);
  EXPECT_NE(Json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"evaluate\""), std::string::npos);
  EXPECT_NE(Json.find("p/2"), std::string::npos);
  // Braces balance (cheap well-formedness check; we have no parser).
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '['),
            std::count(Json.begin(), Json.end(), ']'));
}

TEST(Exporters, GroundnessAnalysisFillsRegistry) {
  // End-to-end: the groundness analyzer wires spans + engine metrics into
  // a caller-supplied registry that outlives the analysis run.
  SymbolTable Symbols;
  MetricsRegistry Reg;
  Tracer Trace;
  RecordingSink Sink;
  Trace.setSink(&Sink);
  FanoutSink Both{&Trace, &Reg};
  GroundnessAnalyzer::Options Opts;
  Opts.Sink = &Both;
  GroundnessAnalyzer Analyzer(Symbols, Opts);
  auto R = Analyzer.analyze("app([], Y, Y).\n"
                            "app([H|T], Y, [H|Z]) :- app(T, Y, Z).\n");
  ASSERT_TRUE(bool(R));

  // All three phases were spanned.
  std::vector<std::string> Names;
  for (const auto &[Name, Secs] : Reg.phases())
    Names.push_back(Name);
  EXPECT_NE(std::find(Names.begin(), Names.end(), "transform"),
            Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "evaluate"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "collect"), Names.end());
  EXPECT_EQ(Sink.count(TraceEventKind::SpanBegin), 3u);
  EXPECT_EQ(Sink.count(TraceEventKind::SpanEnd), 3u);

  // The abstract predicate's table shows up with answers and bytes.
  bool FoundApp = false;
  uint64_t TotalTableBytes = 0;
  for (const PredMetrics *PM : Reg.predicates()) {
    TotalTableBytes += PM->TableBytes;
    if (PM->Name == "gp_app" && PM->Arity == 3) {
      FoundApp = true;
      EXPECT_GT(PM->TableSubgoals, 0u);
      EXPECT_GT(PM->TableAnswers, 0u);
      EXPECT_GT(PM->TableBytes, 0u);
    }
  }
  EXPECT_TRUE(FoundApp);
  // Apportioned per-pred bytes stay below the engine's global accounting
  // plus per-subgoal overhead, and are nonzero.
  EXPECT_GT(TotalTableBytes, 0u);
}

//===----------------------------------------------------------------------===//
// Bounded ring-buffer sink
//===----------------------------------------------------------------------===//

TEST(RingBuffer, UnboundedByDefault) {
  RecordingSink Sink;
  Tracer Trace;
  Trace.setSink(&Sink);
  for (uint64_t I = 0; I < 100; ++I)
    Trace.emit(TraceEventKind::ClauseResolve, 1, 0, I);
  EXPECT_EQ(Sink.events().size(), 100u);
  EXPECT_EQ(Sink.droppedCount(), 0u);
}

TEST(RingBuffer, KeepsExactlyTheLastNInArrivalOrder) {
  // Exactness: every received event is either in the kept window or
  // counted as dropped, and the window is precisely the newest N.
  RecordingSink Sink(TraceOptions{/*MaxEvents=*/8});
  Tracer Trace;
  Trace.setSink(&Sink);
  const uint64_t Total = 27; // wraps the ring 3+ times, lands mid-ring
  for (uint64_t I = 0; I < Total; ++I)
    Trace.emit(TraceEventKind::AnswerNew, 1, 2, /*Value=*/I);

  const std::vector<TraceEvent> &Kept = Sink.events();
  ASSERT_EQ(Kept.size(), 8u);
  EXPECT_EQ(Sink.droppedCount(), Total - 8);
  EXPECT_EQ(Sink.droppedCount() + Kept.size(), Total);
  for (size_t I = 0; I < Kept.size(); ++I)
    EXPECT_EQ(Kept[I].Value, Total - 8 + I) << "slot " << I;
  // Timestamps still monotone across the linearized window.
  for (size_t I = 1; I < Kept.size(); ++I)
    EXPECT_GE(Kept[I].TimeNs, Kept[I - 1].TimeNs);
}

TEST(RingBuffer, ExactCapacityDoesNotDrop) {
  RecordingSink Sink(TraceOptions{4});
  Tracer Trace;
  Trace.setSink(&Sink);
  for (uint64_t I = 0; I < 4; ++I)
    Trace.emit(TraceEventKind::TabledCall, 1, 1, I);
  ASSERT_EQ(Sink.events().size(), 4u);
  EXPECT_EQ(Sink.droppedCount(), 0u);
  EXPECT_EQ(Sink.events().front().Value, 0u);
  EXPECT_EQ(Sink.events().back().Value, 3u);
}

TEST(RingBuffer, ClearResetsWindowAndDropCounter) {
  RecordingSink Sink(TraceOptions{2});
  Tracer Trace;
  Trace.setSink(&Sink);
  for (uint64_t I = 0; I < 5; ++I)
    Trace.emit(TraceEventKind::ClauseResolve, 1, 0, I);
  EXPECT_EQ(Sink.droppedCount(), 3u);
  Sink.clear();
  EXPECT_TRUE(Sink.events().empty());
  EXPECT_EQ(Sink.droppedCount(), 0u);
  // The ring refills from scratch after clear().
  Trace.emit(TraceEventKind::ClauseResolve, 1, 0, 7);
  ASSERT_EQ(Sink.events().size(), 1u);
  EXPECT_EQ(Sink.events()[0].Value, 7u);
}

TEST(RingBuffer, CountSeesOnlyTheKeptWindow) {
  RecordingSink Sink(TraceOptions{3});
  Tracer Trace;
  Trace.setSink(&Sink);
  for (uint64_t I = 0; I < 10; ++I)
    Trace.emit(TraceEventKind::AnswerDup, 1, 1, I);
  Trace.emit(TraceEventKind::AnswerNew, 1, 1, 10);
  EXPECT_EQ(Sink.count(TraceEventKind::AnswerDup), 2u);
  EXPECT_EQ(Sink.count(TraceEventKind::AnswerNew), 1u);
}

//===----------------------------------------------------------------------===//
// Registry merge: counters vs watermarks
//===----------------------------------------------------------------------===//

TEST(Metrics, MergeSumsCountersButMaxesWatermarks) {
  MetricsRegistry A, B;
  A.setCounter("subgoals", 10);
  B.setCounter("subgoals", 32);
  // Shard A peaked higher on one watermark, shard B on the other.
  A.noteWatermark("peak_table_space_bytes", 5000);
  B.noteWatermark("peak_table_space_bytes", 3000);
  A.noteWatermark("peak_term_store_bytes", 100);
  B.noteWatermark("peak_term_store_bytes", 900);
  B.noteWatermark("peak_scc_frontier_bytes", 42); // only in B

  A.mergeFrom(B);

  auto Lookup = [](const MetricsRegistry &R, std::string_view Name,
                   bool Watermark) -> uint64_t {
    const auto &Vec = Watermark ? R.watermarks() : R.counters();
    for (const auto &[N, V] : Vec)
      if (N == Name)
        return V;
    return ~uint64_t(0);
  };
  // Counters are per-run totals: fleet-wide means sum.
  EXPECT_EQ(Lookup(A, "subgoals", false), 42u);
  // Watermarks are peaks: fleet-wide means max, never sum.
  EXPECT_EQ(Lookup(A, "peak_table_space_bytes", true), 5000u);
  EXPECT_EQ(Lookup(A, "peak_term_store_bytes", true), 900u);
  EXPECT_EQ(Lookup(A, "peak_scc_frontier_bytes", true), 42u);
}

TEST(Metrics, NoteWatermarkNeverLowers) {
  MetricsRegistry R;
  R.noteWatermark("peak", 100);
  R.noteWatermark("peak", 40);
  R.noteWatermark("peak", 60);
  ASSERT_EQ(R.watermarks().size(), 1u);
  EXPECT_EQ(R.watermarks()[0].second, 100u);
}

TEST(Metrics, WatermarksSurviveResetStatsAndExport) {
  MetricsRegistry R;
  R.noteWatermark("peak_table_space_bytes", 777);
  std::string Out;
  JsonWriter W(Out);
  R.writeJson(W);
  EXPECT_NE(Out.find("\"watermarks\":{\"peak_table_space_bytes\":777}"),
            std::string::npos)
      << Out;
}

//===----------------------------------------------------------------------===//
// Multi-thread Chrome trace stitching
//===----------------------------------------------------------------------===//

TEST(ChromeTrace, EmptyWorkerLaneSerializes) {
  // A fleet worker that drew no jobs contributes an empty buffer; the
  // exporter must emit valid JSON, not crash or emit a dangling comma.
  SymbolTable Symbols;
  SymbolId P = Symbols.intern("p");
  Tracer Trace;
  RecordingSink Sink;
  Trace.setSink(&Sink);
  Trace.emit(TraceEventKind::TabledCall, P, 1);

  std::vector<ThreadTrace> Threads;
  Threads.push_back({1, Sink.events()});
  Threads.push_back({2, {}}); // idle worker
  std::string Json = formatChromeTraceThreads(Threads, &Symbols);
  EXPECT_NE(Json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Json.find("p/1"), std::string::npos);
  EXPECT_EQ(Json.find(",]"), std::string::npos);
  EXPECT_EQ(Json.find(",,"), std::string::npos);
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '['),
            std::count(Json.begin(), Json.end(), ']'));

  // All-empty lane set still renders a well-formed document.
  std::vector<ThreadTrace> AllIdle(3);
  std::string Empty = formatChromeTraceThreads(AllIdle, nullptr);
  EXPECT_NE(Empty.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(std::count(Empty.begin(), Empty.end(), '{'),
            std::count(Empty.begin(), Empty.end(), '}'));
}

TEST(ChromeTrace, DroppedEventsSurfaceInExport) {
  // A bounded ring that wrapped must not present its window as the whole
  // trace: the export leads with a "trace-truncated" instant carrying the
  // eviction count and a top-level "droppedEvents" member.
  SymbolTable Symbols;
  SymbolId P = Symbols.intern("p");
  Tracer Trace;
  RecordingSink Sink(TraceOptions{/*MaxEvents=*/4});
  Trace.setSink(&Sink);
  for (int I = 0; I < 10; ++I)
    Trace.emit(TraceEventKind::TabledCall, P, 1, I);
  ASSERT_EQ(Sink.droppedCount(), 6u);

  std::string Json =
      formatChromeTrace(Sink.events(), Symbols, Sink.droppedCount());
  EXPECT_NE(Json.find("\"trace-truncated\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"dropped\":6"), std::string::npos);
  EXPECT_NE(Json.find("\"droppedEvents\":6"), std::string::npos);
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));

  // An unbounded sink reports nothing dropped and no truncation marker.
  std::string Clean = formatChromeTrace(Sink.events(), Symbols, 0);
  EXPECT_EQ(Clean.find("trace-truncated"), std::string::npos);
  EXPECT_EQ(Clean.find("droppedEvents"), std::string::npos);
}

TEST(ChromeTrace, ThreadedExportSumsPerLaneDrops) {
  SymbolTable Symbols;
  SymbolId P = Symbols.intern("p");
  Tracer Trace;
  RecordingSink A(TraceOptions{/*MaxEvents=*/2});
  Trace.setSink(&A);
  for (int I = 0; I < 5; ++I)
    Trace.emit(TraceEventKind::TabledCall, P, 1);
  RecordingSink B(TraceOptions{/*MaxEvents=*/2});
  Trace.setSink(&B);
  for (int I = 0; I < 4; ++I)
    Trace.emit(TraceEventKind::AnswerNew, P, 1);

  std::vector<ThreadTrace> Threads;
  Threads.push_back({1, A.events(), A.droppedCount()});
  Threads.push_back({2, B.events(), B.droppedCount()});
  std::string Json = formatChromeTraceThreads(Threads, &Symbols);
  // 3 dropped on lane 1 + 2 on lane 2; each lane gets its own marker.
  EXPECT_NE(Json.find("\"droppedEvents\":5"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"dropped\":3"), std::string::npos);
  EXPECT_NE(Json.find("\"dropped\":2"), std::string::npos);
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
}

TEST(TraceEvents, QueryIdStampsEvents) {
  // Tracer::setQuery scopes every subsequent event; the Chrome export
  // carries the id in args so one shared buffer can be sliced per query.
  SymbolTable Symbols;
  SymbolId P = Symbols.intern("p");
  Tracer Trace;
  RecordingSink Sink;
  Trace.setSink(&Sink);
  Trace.emit(TraceEventKind::TabledCall, P, 1); // Unscoped.
  Trace.setQuery(7);
  Trace.emit(TraceEventKind::TabledCall, P, 1);
  Trace.setQuery(8);
  Trace.emit(TraceEventKind::AnswerNew, P, 1);

  ASSERT_EQ(Sink.events().size(), 3u);
  EXPECT_EQ(Sink.events()[0].QueryId, 0u);
  EXPECT_EQ(Sink.events()[1].QueryId, 7u);
  EXPECT_EQ(Sink.events()[2].QueryId, 8u);

  std::string Json = formatChromeTrace(Sink.events(), Symbols);
  EXPECT_NE(Json.find("\"query\":7"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"query\":8"), std::string::npos);
}

} // namespace

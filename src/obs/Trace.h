//===- Trace.h - SLG event tracing ------------------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's one observer path: every observation the tabled engine
/// makes — the SLG transitions of XSB-style tracing (Swift & Warren call
/// them essential for understanding tabling) plus the bookkeeping the
/// other observers need — is one TraceEvent delivered to one TraceSink.
/// Tracers, metrics registries, sampling cursors, flight recorders and
/// cost profiles are all sinks; a FanoutSink feeds several.
///
/// Cost model: the engine holds one sink pointer, null by default, so the
/// disabled path is one null test per event site. The engine never reads
/// the clock for an event; a sink that needs time reads it itself.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_OBS_TRACE_H
#define LPA_OBS_TRACE_H

#include "obs/BoundedRing.h"
#include "term/Symbol.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <vector>

namespace lpa {

class MetricsRegistry;

/// The engine event taxonomy. The kinds up to SpanEnd are the SLG trace a
/// Tracer forwards; SpanBegin/SpanEnd bracket a named phase. The kinds
/// after SpanEnd are bookkeeping for the other sinks. "ordinal" below is
/// a subgoal ordinal carried in Value.
enum class TraceEventKind : uint8_t {
  TabledCall,      ///< A call to a tabled predicate was issued.
  SubgoalNew,      ///< A subgoal variant entered the call table (Value =
                   ///< subgoals tabled; Aux = 1 for an in-place revival).
  AnswerNew,       ///< A unique answer was recorded (Value = table size).
  AnswerDup,       ///< A derived answer failed the variant check.
  SubgoalComplete, ///< A table completed (Value = answer count).
  ClauseResolve,   ///< A program clause resolution was attempted.
  BuiltinEval,     ///< A builtin goal was evaluated.
  DepthLimit,      ///< The depth limit pruned a branch (Value = depth).
  DeadlineExpired, ///< The query deadline passed (Value = depth).
  SpanBegin,       ///< A named phase started (Label holds the name).
  SpanEnd,         ///< The innermost open phase ended.

  QueryBegin,      ///< An outermost query began (QueryId is its id).
  QueryEnd,        ///< The outermost query finished.
  ProducerEnter,   ///< A producer run started; Producer is its ordinal
                   ///< (Value = 1 for a fixpoint resumption).
  ProducerLeave,   ///< The innermost producer run ended.
  WarmHit,         ///< A call hit the ordinal's table, completed by an
                   ///< earlier query.
  ColdMiss,        ///< A call had to derive the ordinal's table.
  AnswerReturn,    ///< A consumer started returning a table's answers.
  AnswerConsumed,  ///< One answer was returned from the ordinal's table.
  CompletionBegin, ///< An SCC started completing.
  CompletionEnd,   ///< The SCC completed.
  IncompleteTable, ///< The ordinal's table completed tainted.
  TableImported,   ///< A parallel worker's table entered the call table
                   ///< (Value = subgoals tabled).
  TableGauges,     ///< Table-store bytes (Value), answers recorded (Aux).
  TableBytes,      ///< The ordinal's footprint at completion (Aux); only
                   ///< raised for sinks whose wantsTableBytes() holds.
};

/// Renders the kind as a short stable mnemonic ("tabled-call", ...).
const char *traceEventKindName(TraceEventKind K);

/// One engine event: POD, no owned memory. Sym/Arity identify the
/// predicate (meaningless for spans and query scope); Value/Aux are
/// kind-specific payloads; Label is a static string naming spans.
struct TraceEvent {
  /// Producer of events raised while no producer runs (the query root).
  static constexpr uint32_t NoProducer = ~0u;

  TraceEventKind Kind;
  SymbolId Sym = 0;
  uint32_t Arity = 0;
  /// Ordinal of the subgoal whose producer is running: the engine's
  /// producer stack as sinks see it.
  uint32_t Producer = NoProducer;
  /// Monotonic ns since the recording sink's epoch; stamped by the sink
  /// that buffers the event, never by the engine.
  uint64_t TimeNs = 0;
  uint64_t Value = 0;
  uint64_t Aux = 0;
  const char *Label = nullptr; ///< Static storage only; never freed.
  /// Query the event belongs to (0 = none), so one shared trace buffer
  /// can be sliced per client request after the fact.
  uint64_t QueryId = 0;
  /// Symbol table of Sym, for sinks that capture names. Valid only while
  /// the event is delivered; buffering sinks clear it.
  const SymbolTable *Symbols = nullptr;
};

/// Receives engine events, at hot-path frequency when attached; ignores
/// the kinds it does not use.
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void event(const TraceEvent &E) = 0;

  /// The registry this sink counts into, if any; analyzers snapshot their
  /// tables into it after evaluation (Solver::snapshotTableMetrics).
  virtual MetricsRegistry *metricsRegistry() { return nullptr; }

  /// Whether completions should raise TableBytes. Measuring a table walks
  /// its answers, so the engine does it only for sinks that ask.
  virtual bool wantsTableBytes() const { return false; }
};

/// Delivers every event to each member sink in attachment order. Members
/// stay caller-owned and must outlive their membership.
class FanoutSink final : public TraceSink {
public:
  /// Null members are dropped, so optional observers can be listed as is.
  FanoutSink(std::initializer_list<TraceSink *> Members = {})
      : Sinks(Members) {
    std::erase(Sinks, nullptr);
  }

  void add(TraceSink *S) { Sinks.push_back(S); }
  void remove(TraceSink *S) { std::erase(Sinks, S); }
  bool contains(const TraceSink *S) const {
    return std::find(Sinks.begin(), Sinks.end(), S) != Sinks.end();
  }

  void event(const TraceEvent &E) override {
    for (TraceSink *S : Sinks)
      S->event(E);
  }
  MetricsRegistry *metricsRegistry() override;
  bool wantsTableBytes() const override;

private:
  std::vector<TraceSink *> Sinks;
};

/// The SLG trace tap: forwards the trace kinds (up to SpanEnd) to a
/// switchable downstream sink, stamped with the current query scope, and
/// drops the rest. Tracks the span balance whether or not a sink is set.
class Tracer final : public TraceSink {
public:
  /// Attaches (or, with nullptr, detaches) the downstream sink; it must
  /// outlive its attachment.
  void setSink(TraceSink *S) { Sink = S; }
  bool enabled() const { return Sink != nullptr; }

  /// Sets the query id stamped on every subsequent event (0 = unscoped);
  /// each QueryBegin from the engine sets it too.
  void setQuery(uint64_t Q) { CurQuery = Q; }

  void event(const TraceEvent &E) override;

  /// Emits an instant event; a no-op without a sink.
  void emit(TraceEventKind K, SymbolId Sym, uint32_t Arity,
            uint64_t Value = 0, const char *Label = nullptr) {
    event({.Kind = K, .Sym = Sym, .Arity = Arity, .Value = Value,
           .Label = Label});
  }

  /// Emits a span boundary. \p Label must point to static storage.
  void beginSpan(const char *Label) {
    emit(TraceEventKind::SpanBegin, 0, 0, 0, Label);
  }
  void endSpan(const char *Label) {
    emit(TraceEventKind::SpanEnd, 0, 0, 0, Label);
  }

  /// Spans begun and not yet ended (an unmatched end fails an assert).
  uint64_t openSpans() const { return OpenSpans; }

private:
  TraceSink *Sink = nullptr;
  uint64_t CurQuery = 0;
  uint64_t OpenSpans = 0;
};

/// Recording-sink tunables.
struct TraceOptions {
  /// 0 = buffer without bound (the default, unchanged behavior). N > 0 =
  /// bounded ring: keep only the *last* N events, counting every evicted
  /// event in RecordingSink::droppedCount(). Long fleet runs set this so a
  /// trace can stay attached without growing the buffer without bound.
  size_t MaxEvents = 0;
};

/// Buffers events in memory, for tests, post-hoc analysis, and the Chrome
/// trace exporter, stamping each with its arrival time (monotonic ns since
/// the sink was constructed). Optionally bounded (TraceOptions::MaxEvents) with
/// keep-last semantics: once full, the oldest event is evicted for each
/// new arrival and the eviction is counted, so
///   droppedCount() + events().size() == total events ever received.
class RecordingSink : public TraceSink {
public:
  RecordingSink() = default;
  explicit RecordingSink(TraceOptions O) : Opts(O), Ring(O.MaxEvents) {}

  void event(const TraceEvent &E) override;

  /// Buffered events in arrival order (in bounded mode: the kept window,
  /// oldest first). Linearizes the ring in place when it has wrapped.
  const std::vector<TraceEvent> &events() const { return Ring.linear(); }
  void clear() { Ring.clear(); }

  /// Events evicted by the bounded ring; 0 in unbounded mode.
  uint64_t droppedCount() const { return Ring.dropped(); }
  const TraceOptions &options() const { return Opts; }

  /// Number of buffered events of \p K (kept window only).
  size_t count(TraceEventKind K) const;

private:
  TraceOptions Opts;
  BoundedRing<TraceEvent> Ring;
  uint64_t LastTimeNs = 0;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
};

/// Prints one line per event to a stdio stream — the REPL's ":trace on"
/// sink. Resolves predicate names through the symbol table it was given.
class PrintSink : public TraceSink {
public:
  PrintSink(const SymbolTable &Symbols, std::FILE *Out)
      : Symbols(Symbols), Out(Out) {}

  void event(const TraceEvent &E) override;

private:
  const SymbolTable &Symbols;
  std::FILE *Out;
};

/// Serializes recorded events as a Chrome trace ("chrome://tracing" /
/// Perfetto "traceEvents" JSON): spans become B/E duration events and
/// instant events become "i" events, so a tabled evaluation can be read as
/// a timeline. Timestamps are microseconds from the recording sink's epoch.
/// \p Dropped is the recording ring's eviction count: when nonzero the
/// export leads with a "trace-truncated" instant event carrying it and
/// records the total in a top-level "droppedEvents" member, so a bounded
/// ring's window is never presented as the complete trace.
std::string formatChromeTrace(const std::vector<TraceEvent> &Events,
                              const SymbolTable &Symbols,
                              uint64_t Dropped = 0);

/// One worker's buffered events for the stitched multi-thread export.
struct ThreadTrace {
  uint64_t Tid = 1;
  std::vector<TraceEvent> Events;
  /// RecordingSink::droppedCount() of this worker's ring; surfaced as a
  /// per-lane "trace-truncated" event and summed into "droppedEvents".
  uint64_t Dropped = 0;
};

/// Stitches per-worker trace buffers into one Chrome trace, each buffer on
/// its own tid lane. \p Symbols may be null: parallel corpus runs give each
/// job a private SymbolTable that dies with the job, so predicate SymbolIds
/// are unresolvable after the fact and events fall back to "kind #sym/arity"
/// names (span labels, which are static strings, render normally).
std::string formatChromeTraceThreads(const std::vector<ThreadTrace> &Threads,
                                     const SymbolTable *Symbols);

} // namespace lpa

#endif // LPA_OBS_TRACE_H

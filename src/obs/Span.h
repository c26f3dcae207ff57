//===- Span.h - Phase-scoped timing spans -----------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAII span covering one named phase of an analysis (transform, evaluate,
/// report): a SpanBegin event on construction and a SpanEnd event on
/// finish, both delivered to one sink. A Tracer records the pair as a
/// duration bar in the Chrome trace; a MetricsRegistry times the phase
/// into its phase accounting. A span over a null sink does nothing.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_OBS_SPAN_H
#define LPA_OBS_SPAN_H

#include "obs/Trace.h"

namespace lpa {

/// Scoped phase span. \p Label must point to static storage (it is handed
/// to TraceEvents that may outlive the span).
class ScopedSpan {
public:
  ScopedSpan(TraceSink *Sink, const char *Label) : Sink(Sink), Label(Label) {
    send(TraceEventKind::SpanBegin);
  }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  ~ScopedSpan() { finish(); }

  /// Ends the span early (idempotent).
  void finish() {
    if (Done)
      return;
    Done = true;
    send(TraceEventKind::SpanEnd);
  }

private:
  void send(TraceEventKind K) {
    if (Sink)
      Sink->event({.Kind = K, .Label = Label});
  }

  TraceSink *Sink;
  const char *Label;
  bool Done = false;
};

} // namespace lpa

#endif // LPA_OBS_SPAN_H

//===- Spans.h - In-memory span recorder for the traced run -----*- C++ -*-===//
//
// Part of the lpa benchmark (see lpabench/NOTES.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracer. Spans are recorded around the benchmark's
/// calls into each layer's public functions (never inside the program), held
/// in memory until the run ends, then folded into a per-name self-time
/// report and written out as a Chrome trace. A null recorder makes every
/// ScopedSpan a no-op, so untraced measurements pay one pointer test.
///
//===----------------------------------------------------------------------===//

#ifndef LPABENCH_SPANS_H
#define LPABENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lpabench {

inline uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded interval. Name must have static storage duration.
struct SpanRecord {
  const char *Name = nullptr;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int64_t Parent = -1; ///< Index of the enclosing span; -1 at the root.
  uint64_t Op = 0;     ///< Operation the span belongs to.
};

/// Per-name totals over all recorded spans.
struct SpanTotals {
  uint64_t Count = 0;
  uint64_t TotalNs = 0;
  uint64_t SelfNs = 0; ///< Total minus time covered by direct children.
};

class SpanRecorder {
public:
  /// Opens a span nested in the innermost open one; returns its index.
  size_t begin(const char *Name, uint64_t Op);
  void end(size_t Index);

  /// Folds the spans into per-name totals.
  std::map<std::string, SpanTotals> totals() const;

  /// Renders the self-time table: one row per span name.
  std::string report() const;

  /// Writes the spans as Chrome trace JSON ("X" events, one lane).
  bool writeChromeTrace(const std::string &Path) const;

private:
  std::vector<SpanRecord> Spans;
  std::vector<size_t> Open;
};

/// RAII span; does nothing when the recorder is null.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *R, const char *Name, uint64_t Op)
      : R(R), Index(R ? R->begin(Name, Op) : 0) {}
  ~ScopedSpan() {
    if (R)
      R->end(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder *R;
  size_t Index;
};

} // namespace lpabench

#endif // LPABENCH_SPANS_H

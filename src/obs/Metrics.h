//===- Metrics.h - Per-predicate metrics registry ---------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics registry behind the paper's Tables 1-4: per-predicate
/// counters (calls, subgoals, answers, duplicates, resolutions),
/// answer-count histograms, table-space accounting in bytes, phase timings,
/// and named global counters. The registry is an engine event sink: it
/// counts the live per-predicate figures from the events it receives and
/// times phases between SpanBegin/SpanEnd. The engine snapshots
/// table-derived figures into it on demand; exporters turn the registry
/// into a TableFormat report or a JSON metrics dump for bench trajectory
/// files.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_OBS_METRICS_H
#define LPA_OBS_METRICS_H

#include "obs/Trace.h"
#include "support/Stopwatch.h"
#include "term/Symbol.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lpa {

class JsonWriter;

/// Fixed-bucket log2 histogram for small nonnegative counts and latencies.
/// Bucket I holds values in [2^(I-1), 2^I); bucket 0 holds zero. Cheap to
/// record into (a clz and an increment) and small enough to live per
/// predicate.
class Histogram {
public:
  static constexpr size_t NumBuckets = 32;

  void record(uint64_t Value);

  uint64_t count() const { return Count; }
  uint64_t sum() const { return Sum; }
  uint64_t min() const { return Count ? Min : 0; }
  uint64_t max() const { return Max; }
  double mean() const { return Count ? double(Sum) / double(Count) : 0.0; }

  /// Approximate quantile: upper bound of the bucket holding the Q-th
  /// sample, clamped into [min(), max()]. Edge cases are pinned: an empty
  /// histogram reports 0 for every Q, Q <= 0 reports exactly min(), and
  /// Q >= 1 exactly max().
  uint64_t quantile(double Q) const;

  const uint64_t *buckets() const { return Buckets; }
  void reset();

  /// Folds \p Other into this histogram (bucket-wise sum; Min/Max widen).
  /// Exact for everything the registry reports except quantiles, which stay
  /// bucket-resolution approximations.
  void mergeFrom(const Histogram &Other);

private:
  uint64_t Buckets[NumBuckets] = {};
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = ~uint64_t(0);
  uint64_t Max = 0;
};

/// Per-predicate counters. "Live" fields are incremented by the engine as
/// evaluation proceeds; "table snapshot" fields are (re)assigned by
/// Solver::snapshotTableMetrics from the current call/answer tables, so
/// they are idempotent across repeated snapshots.
struct PredMetrics {
  std::string Name;
  uint32_t Arity = 0;

  /// \name Live counters.
  /// @{
  uint64_t Calls = 0;       ///< Tabled calls issued to this predicate.
  uint64_t NewSubgoals = 0; ///< Subgoal variants created.
  uint64_t NewAnswers = 0;  ///< Unique answers recorded.
  uint64_t DupAnswers = 0;  ///< Answers rejected as duplicates.
  uint64_t Resolutions = 0; ///< Clause resolution attempts.
  uint64_t Completions = 0; ///< Subgoals marked complete.
  /// Tabled calls answered from a table completed by a *prior* query —
  /// the reuse a long-lived engine exists for (ROADMAP item 1). A call in
  /// the same query that created the table counts as neither warm nor
  /// cold: it is ordinary fixpoint traffic.
  uint64_t WarmHits = 0;
  uint64_t ColdMisses = 0; ///< Tabled calls that had to create the subgoal.
  /// @}

  /// \name Table snapshot (assigned, not accumulated).
  /// @{
  uint64_t TableSubgoals = 0; ///< Subgoal variants currently tabled.
  uint64_t TableAnswers = 0;  ///< Answers currently tabled.
  uint64_t TableBytes = 0;    ///< Bytes attributable to this predicate.
  Histogram AnswersPerSubgoal;
  /// @}

  std::string qualifiedName() const {
    return Name + "/" + std::to_string(Arity);
  }
};

/// Registry of per-predicate metrics plus phase timings and named global
/// counters. Predicate names are captured at first touch so the registry
/// outlives the SymbolTable that produced it (analyses build private
/// symbol tables that die with the run).
class MetricsRegistry : public TraceSink {
public:
  /// Counts the live per-predicate figures (calls, new subgoals, answers,
  /// duplicates, resolutions, completions, warm hits, cold misses) and
  /// times each SpanBegin/SpanEnd pair into addPhase.
  void event(const TraceEvent &E) override;
  MetricsRegistry *metricsRegistry() override { return this; }

  /// Returns (creating on first use) the metrics slot for \p Sym / \p
  /// Arity. \p Symbols resolves the name on creation only.
  PredMetrics &pred(const SymbolTable &Symbols, SymbolId Sym, uint32_t Arity);

  /// Predicates in first-touch order.
  std::vector<const PredMetrics *> predicates() const;
  /// The same order without building a vector: predicate(I) for I below
  /// numPredicates().
  size_t numPredicates() const { return Order.size(); }
  const PredMetrics &predicate(size_t I) const { return Preds.at(Order[I]); }

  /// Accumulates \p Seconds into the named phase (creating it on first
  /// use). Phases keep registration order.
  void addPhase(std::string_view Name, double Seconds);
  const std::vector<std::pair<std::string, double>> &phases() const {
    return Phases;
  }

  /// Sets (overwrites) a named global counter, e.g. "fixpoint_rounds".
  void setCounter(std::string_view Name, uint64_t Value);
  const std::vector<std::pair<std::string, uint64_t>> &counters() const {
    return Counters;
  }

  /// Raises the named high-watermark to \p Value if it is higher (a
  /// watermark never goes down — repeated notes across runs keep the
  /// peak). Watermarks are a separate channel from counters because their
  /// merge semantics differ: mergeFrom SUMS counters (fleet-wide totals)
  /// but takes the MAX of watermarks (the peak any one shard reached).
  void noteWatermark(std::string_view Name, uint64_t Value);
  const std::vector<std::pair<std::string, uint64_t>> &watermarks() const {
    return Watermarks;
  }

  /// Zeroes the table-snapshot fields of every predicate; called by the
  /// engine before re-walking the tables so stale predicates do not keep
  /// old figures.
  void resetTableSnapshot();

  /// Folds \p Other into this registry. Sharded parallel runs give each
  /// worker a private registry (each fed by a private SymbolTable), so
  /// predicates are matched by Name+Arity — SymbolIds are NOT comparable
  /// across registries and the internal keys of \p Other are ignored.
  /// Predicates unknown here are appended in \p Other's order under fresh
  /// synthetic keys. All counters (live, snapshot, named globals) and
  /// phase timings accumulate; histograms merge bucket-wise.
  void mergeFrom(const MetricsRegistry &Other);

  /// Drops everything.
  void clear();

  bool empty() const { return Preds.empty() && Phases.empty(); }

  /// Writes the registry as one JSON object:
  ///   {"phases": {...}, "counters": {...}, "watermarks": {...},
  ///    "predicates": [...]}
  void writeJson(JsonWriter &W) const;

  /// Renders the per-predicate table and the phase/counter footer as
  /// human-readable text (support/TableFormat).
  std::string renderReport() const;

private:
  std::unordered_map<uint64_t, PredMetrics> Preds;
  std::vector<uint64_t> Order; ///< First-touch order of Preds keys.
  std::vector<std::pair<std::string, double>> Phases;
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, uint64_t>> Watermarks;
  /// Next synthetic key handed to a merged-in predicate whose SymbolId is
  /// foreign (see mergeFrom). Counts down from the top of the key space,
  /// far above any (SymbolId << 32 | Arity) a real symbol table produces.
  uint64_t NextSyntheticKey = ~uint64_t(0);
  /// Spans begun and not yet ended, with their labels.
  std::vector<std::pair<const char *, Stopwatch>> OpenPhases;
};

} // namespace lpa

#endif // LPA_OBS_METRICS_H

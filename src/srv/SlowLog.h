//===- SlowLog.h - Slow-query exemplar store --------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's slow-query log: when a query's wall time crosses a
/// threshold — fixed, or adaptive against the service's rolling p95 — the
/// session captures a full *exemplar* (per-predicate metrics deltas,
/// top-K tables by bytes, the flight-recorder slice for that query,
/// warm/cold counts and outcome flags) into this bounded LRU store.
/// Surfaced by the `slowlog` protocol op and the REPL's `:slowlog`.
///
/// Exemplars are capture-time snapshots: everything is copied out of the
/// live engine at the moment the query finishes, so an entry stays
/// meaningful after the tables it describes are invalidated or the stats
/// are reset. The store is an LRU over query ids — lookups refresh
/// recency, inserts evict the least-recently-touched entry when full —
/// so the entries that survive a burst of slowness are the ones an
/// operator actually looked at plus the newest arrivals.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_SRV_SLOWLOG_H
#define LPA_SRV_SLOWLOG_H

#include "obs/FlightRecorder.h"
#include "srv/ServiceStats.h"

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lpa {

class JsonWriter;

/// One captured slow query: its QueryRecord plus what the session saw.
struct SlowQueryExemplar : QueryRecord {
  double ThresholdMs = 0; ///< The effective threshold it crossed.

  /// What one predicate contributed to this query (live-counter deltas
  /// across the solve).
  struct PredDelta {
    std::string Pred; ///< Qualified "name/arity".
    uint64_t Calls = 0;
    uint64_t Resolutions = 0;
    uint64_t NewAnswers = 0;
  };
  /// Top-K predicates by resolution delta, descending.
  std::vector<PredDelta> TopPreds;

  /// One table this query left behind (or grew), ranked by bytes.
  struct TableEntry {
    std::string Call; ///< Rendered subgoal call.
    uint64_t Answers = 0;
    uint64_t Bytes = 0;
    bool Incomplete = false;
  };
  /// Top-K tables by apportioned bytes, descending.
  std::vector<TableEntry> TopTables;

  /// The flight-recorder slice for this query id, captured at insert.
  std::vector<FrEvent> Trace;

  /// Per-predicate self-cost rollup of the query (sessions running with
  /// RecordCosts only; empty otherwise). Mirrors CostSummary::PerPred,
  /// top-K rows by self time.
  struct CostLine {
    std::string Pred; ///< Qualified "name/arity".
    uint64_t SelfNs = 0;
    uint64_t Steps = 0;
    uint32_t WarmHits = 0;
  };
  std::vector<CostLine> TopCosts;
  uint64_t CostAttributedNs = 0; ///< sum of subgoal self times.
  uint64_t CostRootNs = 0;       ///< wall outside every producer.
};

/// Streams one exemplar as a JSON object into \p W.
void writeExemplarJson(const SlowQueryExemplar &E, JsonWriter &W);

/// Bounded LRU store of SlowQueryExemplars. Not thread-safe (session
/// discipline: one request stream).
class SlowQueryLog {
public:
  struct Options {
    /// Exemplars kept; the least-recently-touched is evicted when full.
    size_t Capacity = 16;
    /// Wall threshold in milliseconds. > 0 = fixed; 0 = adaptive (see
    /// effectiveThresholdMs); < 0 disables capture entirely.
    double ThresholdMs = 0;
    /// Adaptive floor: below this a query is never slow, however tight
    /// the p95 is (keeps a freshly started, all-fast daemon from logging
    /// everything).
    double MinWallMs = 10.0;
    /// Adaptive multiplier over the rolling p95.
    double AdaptiveFactor = 3.0;
    /// Per-predicate / per-table rows kept per exemplar.
    size_t TopK = 5;
  };

  SlowQueryLog() : SlowQueryLog(Options{}) {}
  explicit SlowQueryLog(Options O) : Opts(O) {}

  SlowQueryLog(const SlowQueryLog &) = delete;
  SlowQueryLog &operator=(const SlowQueryLog &) = delete;

  /// The threshold a query must exceed right now, given the service's
  /// rolling-window p95 (microseconds; 0 while the window is empty).
  /// Fixed mode returns Options::ThresholdMs; adaptive mode returns
  /// max(MinWallMs, AdaptiveFactor * p95); disabled mode returns a
  /// negative value.
  double effectiveThresholdMs(uint64_t WindowP95Us) const {
    if (Opts.ThresholdMs < 0)
      return -1;
    if (Opts.ThresholdMs > 0)
      return Opts.ThresholdMs;
    double Adaptive = Opts.AdaptiveFactor * (double(WindowP95Us) / 1000.0);
    return Adaptive > Opts.MinWallMs ? Adaptive : Opts.MinWallMs;
  }

  /// Whether a query that took \p WallMs should be captured.
  bool shouldCapture(double WallMs, uint64_t WindowP95Us) const {
    double T = effectiveThresholdMs(WindowP95Us);
    return T >= 0 && WallMs >= T;
  }

  /// Inserts \p E as the most-recent entry, evicting the
  /// least-recently-touched one when full. An entry with the same id is
  /// replaced in place (and refreshed).
  void insert(SlowQueryExemplar E);

  /// The exemplar for query \p Id, refreshing its recency; null if absent.
  const SlowQueryExemplar *get(uint64_t Id);

  /// Entries most-recently-touched first (no recency side effect).
  std::vector<const SlowQueryExemplar *> entries() const;

  size_t size() const { return Order.size(); }
  size_t capacity() const { return Opts.Capacity; }
  uint64_t captured() const { return Captured; } ///< Inserts, lifetime.
  uint64_t evicted() const { return Evicted; }   ///< LRU evictions, lifetime.
  const Options &options() const { return Opts; }

  void clear();

  /// Emits the whole store as a JSON object (schema "lpa.slowlog.v1"):
  /// {schema, capacity, count, captured, evicted, threshold_ms,
  /// entries:[...]} with entries most-recent first. \p ThresholdNowMs is
  /// the currently effective threshold (adaptive mode moves).
  void writeJson(JsonWriter &W, double ThresholdNowMs) const;

private:
  Options Opts;
  /// Recency list, most-recent first; the map indexes it by query id.
  std::list<SlowQueryExemplar> Order;
  std::unordered_map<uint64_t, std::list<SlowQueryExemplar>::iterator> ById;
  uint64_t Captured = 0;
  uint64_t Evicted = 0;
};

} // namespace lpa

#endif // LPA_SRV_SLOWLOG_H

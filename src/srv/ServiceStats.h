//===- ServiceStats.h - Service-level query telemetry -----------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Query-granular telemetry for a long-lived analysis service: per-query
/// latency (a cumulative log2 histogram plus an exact rolling window for
/// p50/p95/p99), warm/cold table-reuse totals, a bounded ring of recent
/// query records, and a ring-buffered gauge time series (table bytes,
/// subgoals, answers at each query's completion). This is what the
/// `stats` protocol verb and the REPL's `:queries` command render; the
/// engine-side counters (EvalStats, MetricsRegistry) stay per-run, this
/// layer slices them per query.
///
/// Everything here is bounded: histograms are fixed-size, and the window,
/// record and gauge rings evict oldest-first — a daemon serving millions
/// of queries holds a constant telemetry footprint.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_SRV_SERVICESTATS_H
#define LPA_SRV_SERVICESTATS_H

#include "obs/BoundedRing.h"
#include "obs/Metrics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lpa {

class JsonWriter;

/// What one served query was and cost, as the session records it after
/// the solve returns. The one query record: `stats`' recent queries keep
/// it as is, and the session's query result and the slow-log exemplar
/// extend it.
struct QueryRecord {
  uint64_t Id = 0;
  std::string Goal; ///< The goal text as received, trimmed.
  double WallMs = 0;
  uint64_t Total = 0;      ///< All solutions found (JSON "solutions").
  uint64_t WarmHits = 0;   ///< EvalStats::WarmTableHits delta.
  uint64_t ColdMisses = 0; ///< EvalStats::ColdTableMisses delta.
  bool Truncated = false;  ///< Deadline expired (answers may be partial).
  /// A table completed tainted during this query (depth/deadline
  /// pruning starved a producer), so the answer set may be a strict
  /// subset of the minimal model even when Truncated is false.
  bool Incomplete = false;
};

/// One gauge sample, taken at a query's completion.
struct GaugePoint {
  uint64_t QueryId = 0;
  uint64_t TableBytes = 0;
  uint64_t Subgoals = 0;
  uint64_t Answers = 0;
};

/// Aggregates QueryRecords; see the file comment. Not thread-safe — the
/// session serializes queries, and snapshots happen between them.
class ServiceStats {
public:
  struct Options {
    size_t WindowSize = 128;  ///< Latencies kept for exact quantiles.
    size_t RecentSize = 32;   ///< Recent query records kept.
    size_t GaugeRingSize = 256; ///< Gauge time-series points kept.
  };

  ServiceStats() : ServiceStats(Options{}) {}
  explicit ServiceStats(Options O);

  /// Folds one served query into the aggregate.
  void recordQuery(const QueryRecord &R);

  /// Appends one gauge point (oldest evicted when the ring is full).
  void recordGauges(const GaugePoint &G);

  /// Folds one incremental-invalidation sweep (a consult or retract into
  /// a warm session) into the aggregate: \p Invalidated tables were in
  /// the changed cone and dropped, \p Survived stayed warm.
  void recordInvalidation(uint64_t Invalidated, uint64_t Survived) {
    Invalidations += 1;
    TablesInvalidated += Invalidated;
    TablesSurvived += Survived;
  }

  uint64_t queriesServed() const { return Served; }
  uint64_t warmHits() const { return Warm; }
  uint64_t coldMisses() const { return Cold; }
  uint64_t invalidations() const { return Invalidations; }
  uint64_t tablesInvalidated() const { return TablesInvalidated; }
  uint64_t tablesSurvived() const { return TablesSurvived; }
  /// Warm hits over all warm-or-cold lookups; 0 before any tabled call.
  double warmHitRate() const;
  uint64_t truncatedQueries() const { return Truncated; }

  /// Cumulative latency distribution in microseconds (log2 buckets:
  /// quantiles are bucket-resolution approximations).
  const Histogram &latency() const { return LatencyUs; }

  /// Exact nearest-rank quantile over the rolling window, microseconds;
  /// 0 when the window is empty.
  uint64_t windowQuantileUs(double Q) const;
  size_t windowCount() const { return Window.size(); }

  /// Recent query records, oldest first.
  const std::vector<QueryRecord> &recentQueries() const {
    return Recent.linear();
  }
  /// Gauge time series, oldest first.
  const std::vector<GaugePoint> &gaugeSeries() const {
    return Gauges.linear();
  }

  /// Milliseconds since construction (or the last reset), steady clock.
  uint64_t uptimeMs() const;

  /// Emits the telemetry as members of the *currently open* JSON object,
  /// so the caller can compose it with engine metrics and profile blocks:
  ///   uptime_ms, queries_served, truncated_queries, warm_hits,
  ///   cold_misses, warm_hit_rate, invalidations, tables_invalidated,
  ///   tables_survived, latency{count,mean_us,min_us,max_us,
  ///   p50_us,p95_us,p99_us}, window{count,p50_us,p95_us,p99_us},
  ///   recent_queries[], gauges[].
  /// The schema is stable: fields are only ever added, never renamed.
  void writeJsonMembers(JsonWriter &W) const;

  /// Human-readable latency/em-reuse report for the REPL's `:queries`.
  std::string renderReport() const;

  /// Drops all telemetry and restarts the uptime clock. Counters are
  /// per-window by contract — the invalidation totals reset with the
  /// rest; only engine *state* (tables, tombstones, dependency edges)
  /// survives a reset, and that lives in the Solver, not here.
  void reset();

private:
  Options Opts;
  uint64_t Served = 0;
  uint64_t Warm = 0;
  uint64_t Cold = 0;
  uint64_t Truncated = 0;
  uint64_t Invalidations = 0;     ///< Sweeps (consults/retracts that swept).
  uint64_t TablesInvalidated = 0; ///< Tables dropped across all sweeps.
  uint64_t TablesSurvived = 0;    ///< Tables kept warm across all sweeps.
  Histogram LatencyUs;
  BoundedRing<uint64_t> Window; ///< Rolling latency window, microseconds.
  BoundedRing<QueryRecord> Recent;
  BoundedRing<GaugePoint> Gauges;
  /// Reused by windowQuantileUs, so a quantile allocates nothing once warm.
  mutable std::vector<uint64_t> QuantileScratch;
  uint64_t EpochNs = 0; ///< steady_clock at construction/reset.
};

} // namespace lpa

#endif // LPA_SRV_SERVICESTATS_H

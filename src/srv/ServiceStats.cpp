//===- ServiceStats.cpp - Service-level query telemetry -----------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "srv/ServiceStats.h"

#include "obs/Json.h"
#include "support/TableFormat.h"

#include <algorithm>
#include <chrono>
#include <cmath>

using namespace lpa;

static uint64_t steadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ServiceStats::ServiceStats(Options O)
    : Opts(O), Window(std::max<size_t>(O.WindowSize, 1)),
      Recent(std::max<size_t>(O.RecentSize, 1)),
      Gauges(std::max<size_t>(O.GaugeRingSize, 1)), EpochNs(steadyNs()) {}

void ServiceStats::recordQuery(const QueryRecord &R) {
  ++Served;
  Warm += R.WarmHits;
  Cold += R.ColdMisses;
  Truncated += R.Truncated ? 1 : 0;
  uint64_t Us = static_cast<uint64_t>(R.WallMs * 1e3);
  LatencyUs.record(Us);
  Window.push(Us);
  Recent.push(R);
}

void ServiceStats::recordGauges(const GaugePoint &G) { Gauges.push(G); }

double ServiceStats::warmHitRate() const {
  uint64_t Total = Warm + Cold;
  return Total ? static_cast<double>(Warm) / static_cast<double>(Total) : 0.0;
}

uint64_t ServiceStats::windowQuantileUs(double Q) const {
  if (Window.empty())
    return 0;
  std::vector<uint64_t> &V = QuantileScratch;
  V.clear();
  Window.forEach([&V](uint64_t Us) { V.push_back(Us); });
  // Nearest-rank: the ceil(Q*N)-th smallest sample (Q clamped to [0, 1]).
  size_t Rank = static_cast<size_t>(
      std::ceil(std::clamp(Q, 0.0, 1.0) * double(V.size())));
  Rank = std::max<size_t>(Rank, 1);
  std::nth_element(V.begin(), V.begin() + (Rank - 1), V.end());
  return V[Rank - 1];
}

uint64_t ServiceStats::uptimeMs() const {
  return (steadyNs() - EpochNs) / 1000000u;
}

void ServiceStats::reset() {
  Options O = Opts;
  *this = ServiceStats(O);
}

void ServiceStats::writeJsonMembers(JsonWriter &W) const {
  W.member("uptime_ms", uptimeMs());
  W.member("queries_served", Served);
  W.member("truncated_queries", Truncated);
  W.member("warm_hits", Warm);
  W.member("cold_misses", Cold);
  W.member("warm_hit_rate", warmHitRate());
  W.member("invalidations", Invalidations);
  W.member("tables_invalidated", TablesInvalidated);
  W.member("tables_survived", TablesSurvived);

  W.key("latency");
  W.beginObject();
  W.member("count", LatencyUs.count());
  W.member("mean_us", LatencyUs.mean());
  W.member("min_us", LatencyUs.min());
  W.member("max_us", LatencyUs.max());
  W.member("p50_us", LatencyUs.quantile(0.50));
  W.member("p95_us", LatencyUs.quantile(0.95));
  W.member("p99_us", LatencyUs.quantile(0.99));
  W.endObject();

  W.key("window");
  W.beginObject();
  W.member("count", static_cast<uint64_t>(Window.size()));
  W.member("p50_us", windowQuantileUs(0.50));
  W.member("p95_us", windowQuantileUs(0.95));
  W.member("p99_us", windowQuantileUs(0.99));
  W.endObject();

  W.key("recent_queries");
  W.beginArray();
  for (const QueryRecord &R : recentQueries()) {
    W.beginObject();
    W.member("id", R.Id);
    W.member("goal", std::string_view(R.Goal));
    W.member("wall_ms", R.WallMs);
    W.member("solutions", R.Total);
    W.member("warm_hits", R.WarmHits);
    W.member("cold_misses", R.ColdMisses);
    W.member("truncated", R.Truncated);
    W.endObject();
  }
  W.endArray();

  W.key("gauges");
  W.beginArray();
  for (const GaugePoint &G : gaugeSeries()) {
    W.beginObject();
    W.member("query", G.QueryId);
    W.member("table_bytes", G.TableBytes);
    W.member("subgoals", G.Subgoals);
    W.member("answers", G.Answers);
    W.endObject();
  }
  W.endArray();
}

std::string ServiceStats::renderReport() const {
  std::string Out;
  if (Served == 0)
    return "  (no queries served yet)\n";
  Out += "  queries: " + std::to_string(Served);
  if (Truncated)
    Out += " (" + std::to_string(Truncated) + " truncated)";
  Out += "  warm/cold: " + std::to_string(Warm) + "/" + std::to_string(Cold);
  char Pct[32];
  std::snprintf(Pct, sizeof(Pct), " (%.1f%% warm)", warmHitRate() * 100.0);
  Out += Pct;
  Out += "\n";
  char L[160];
  std::snprintf(L, sizeof(L),
                "  latency: p50=%.3fms p95=%.3fms p99=%.3fms "
                "mean=%.3fms max=%.3fms (cumulative, %llu queries)\n",
                LatencyUs.quantile(0.50) / 1e3, LatencyUs.quantile(0.95) / 1e3,
                LatencyUs.quantile(0.99) / 1e3, LatencyUs.mean() / 1e3,
                LatencyUs.max() / 1e3,
                static_cast<unsigned long long>(LatencyUs.count()));
  Out += L;
  std::snprintf(L, sizeof(L),
                "  window:  p50=%.3fms p95=%.3fms p99=%.3fms (last %zu)\n",
                windowQuantileUs(0.50) / 1e3, windowQuantileUs(0.95) / 1e3,
                windowQuantileUs(0.99) / 1e3, Window.size());
  Out += L;

  TextTable T;
  T.addRow({"Id", "Goal", "ms", "Sols", "Warm", "Cold", "Trunc"});
  for (const QueryRecord &R : recentQueries())
    T.addRow({std::to_string(R.Id), R.Goal, TextTable::fmt(R.WallMs, 3),
              std::to_string(R.Total), std::to_string(R.WarmHits),
              std::to_string(R.ColdMisses), R.Truncated ? "yes" : "-"});
  Out += T.render();
  return Out;
}

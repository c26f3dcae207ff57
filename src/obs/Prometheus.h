//===- Prometheus.h - Prometheus text exposition -----------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PrometheusWriter renders current values in the Prometheus text
/// exposition format (# HELP / # TYPE, counter/gauge/histogram with log2
/// `le` buckets, label-value escaping). The `metrics` protocol op ships
/// the rendered text as an escaped string field of its JSON response so
/// the one-JSON-object-per-line protocol invariant holds; scrapers unwrap
/// one field. How counters move over time is the scraper's to record.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_OBS_PROMETHEUS_H
#define LPA_OBS_PROMETHEUS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lpa {

class Histogram;

/// Streaming Prometheus text-exposition writer. Each metric family gets
/// its # HELP / # TYPE header exactly once (tracked by name), so labeled
/// series can be appended one sample at a time.
class PrometheusWriter {
public:
  explicit PrometheusWriter(std::string &Out) : Out(Out) {}

  void counter(std::string_view Name, std::string_view Help, uint64_t V);
  void gauge(std::string_view Name, std::string_view Help, double V);

  /// One sample of a labeled family, e.g.
  ///   lpa_pred_calls_total{pred="path/2"} 42
  /// Help/type are emitted on the family's first sample only.
  void counterLabeled(std::string_view Name, std::string_view Help,
                      std::string_view Label, std::string_view LabelValue,
                      uint64_t V);
  void gaugeLabeled(std::string_view Name, std::string_view Help,
                    std::string_view Label, std::string_view LabelValue,
                    double V);

  /// Renders an lpa log2 Histogram (obs/Metrics.h) as a Prometheus
  /// histogram: bucket I of the source holds integer values in
  /// [2^(I-1), 2^I), so the cumulative `le` bound for bucket I is
  /// 2^I - 1 (exact for integer observations). Trailing empty buckets
  /// are elided; `+Inf`, `_sum` and `_count` always emitted.
  void histogramLog2(std::string_view Name, std::string_view Help,
                     const Histogram &H);

  /// Escapes \ and newline (HELP text).
  static void escapeHelp(std::string &Out, std::string_view S);
  /// Escapes \, " and newline (label values).
  static void escapeLabelValue(std::string &Out, std::string_view S);

private:
  /// Emits # HELP/# TYPE for \p Name once per writer.
  void header(std::string_view Name, std::string_view Help,
              std::string_view Type);

  std::string &Out;
  std::vector<std::string> Seen; ///< Families with emitted headers.
};

} // namespace lpa

#endif // LPA_OBS_PROMETHEUS_H

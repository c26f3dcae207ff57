//===- Prometheus.cpp - Prometheus text exposition ------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "obs/Prometheus.h"

#include "obs/Metrics.h"

#include <cstdio>

using namespace lpa;

//===----------------------------------------------------------------------===//
// PrometheusWriter
//===----------------------------------------------------------------------===//

void PrometheusWriter::escapeHelp(std::string &Out, std::string_view S) {
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
}

void PrometheusWriter::escapeLabelValue(std::string &Out,
                                        std::string_view S) {
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
}

void PrometheusWriter::header(std::string_view Name, std::string_view Help,
                              std::string_view Type) {
  for (const std::string &S : Seen)
    if (S == Name)
      return;
  Seen.emplace_back(Name);
  Out += "# HELP ";
  Out += Name;
  Out += ' ';
  escapeHelp(Out, Help);
  Out += "\n# TYPE ";
  Out += Name;
  Out += ' ';
  Out += Type;
  Out += '\n';
}

namespace {

void appendDouble(std::string &Out, double V) {
  char Buf[64];
  // %.17g round-trips; %g keeps integers clean. Values here are counts,
  // bytes and ratios — %.6g is plenty and keeps the text readable.
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  Out += Buf;
}

} // namespace

void PrometheusWriter::counter(std::string_view Name, std::string_view Help,
                               uint64_t V) {
  header(Name, Help, "counter");
  Out += Name;
  Out += ' ';
  Out += std::to_string(V);
  Out += '\n';
}

void PrometheusWriter::gauge(std::string_view Name, std::string_view Help,
                             double V) {
  header(Name, Help, "gauge");
  Out += Name;
  Out += ' ';
  appendDouble(Out, V);
  Out += '\n';
}

void PrometheusWriter::counterLabeled(std::string_view Name,
                                      std::string_view Help,
                                      std::string_view Label,
                                      std::string_view LabelValue,
                                      uint64_t V) {
  header(Name, Help, "counter");
  Out += Name;
  Out += '{';
  Out += Label;
  Out += "=\"";
  escapeLabelValue(Out, LabelValue);
  Out += "\"} ";
  Out += std::to_string(V);
  Out += '\n';
}

void PrometheusWriter::gaugeLabeled(std::string_view Name,
                                    std::string_view Help,
                                    std::string_view Label,
                                    std::string_view LabelValue, double V) {
  header(Name, Help, "gauge");
  Out += Name;
  Out += '{';
  Out += Label;
  Out += "=\"";
  escapeLabelValue(Out, LabelValue);
  Out += "\"} ";
  appendDouble(Out, V);
  Out += '\n';
}

void PrometheusWriter::histogramLog2(std::string_view Name,
                                     std::string_view Help,
                                     const Histogram &H) {
  header(Name, Help, "histogram");
  const uint64_t *B = H.buckets();
  size_t Last = 0;
  for (size_t I = 0; I < Histogram::NumBuckets; ++I)
    if (B[I])
      Last = I;
  uint64_t Cum = 0;
  for (size_t I = 0; I <= Last; ++I) {
    Cum += B[I];
    // Bucket I holds integer values in [2^(I-1), 2^I) (bucket 0: zero),
    // so everything up to bucket I is <= 2^I - 1.
    uint64_t Le = I ? (uint64_t(1) << I) - 1 : 0;
    Out += Name;
    Out += "_bucket{le=\"";
    Out += std::to_string(Le);
    Out += "\"} ";
    Out += std::to_string(Cum);
    Out += '\n';
  }
  Out += Name;
  Out += "_bucket{le=\"+Inf\"} ";
  Out += std::to_string(H.count());
  Out += '\n';
  Out += Name;
  Out += "_sum ";
  Out += std::to_string(H.sum());
  Out += '\n';
  Out += Name;
  Out += "_count ";
  Out += std::to_string(H.count());
  Out += '\n';
}

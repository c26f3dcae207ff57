//===- Spans.cpp - In-memory span recorder for the traced run ------------===//
//
// Part of the lpa benchmark (see lpabench/NOTES.md).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <cinttypes>
#include <cstdio>

using namespace lpabench;

size_t SpanRecorder::begin(const char *Name, uint64_t Op) {
  SpanRecord S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : static_cast<int64_t>(Open.back());
  S.Op = Op;
  S.StartNs = nowNs();
  Spans.push_back(S);
  Open.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void SpanRecorder::end(size_t Index) {
  Spans[Index].EndNs = nowNs();
  // Spans close in LIFO order (ScopedSpan is the only caller).
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, SpanTotals> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    SpanTotals &T = Out[Spans[I].Name];
    ++T.Count;
    T.TotalNs += Dur;
    T.SelfNs += Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
  }
  return Out;
}

std::string SpanRecorder::report() const {
  std::map<std::string, SpanTotals> T = totals();
  uint64_t AllSelf = 0;
  for (const auto &[Name, S] : T)
    AllSelf += S.SelfNs;
  std::string Out;
  char Line[256];
  std::snprintf(Line, sizeof(Line), "%-24s %10s %14s %14s %7s\n", "span",
                "count", "total_ms", "self_ms", "self%");
  Out += Line;
  for (const auto &[Name, S] : T) {
    std::snprintf(Line, sizeof(Line),
                  "%-24s %10" PRIu64 " %14.3f %14.3f %6.1f%%\n", Name.c_str(),
                  S.Count, S.TotalNs / 1e6, S.SelfNs / 1e6,
                  AllSelf ? 100.0 * S.SelfNs / AllSelf : 0.0);
    Out += Line;
  }
  return Out;
}

bool SpanRecorder::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fputs("{\"traceEvents\":[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64
                 ",\"id\":%zu,\"parent\":%" PRId64 "}}\n",
                 I ? "," : "", S.Name, (S.StartNs - Origin) / 1e3,
                 (S.EndNs - S.StartNs) / 1e3, S.Op, I, S.Parent);
  }
  std::fputs("]}\n", F);
  return std::fclose(F) == 0;
}

//===- protocol_golden_test.cpp - Golden JSON-lines protocol session ----------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Sends a fixed request script through handleRequestLine and compares
// every response with tests/golden/protocol_session.jsonl, line by line.
// Only values that come from timing are masked (to "<t>"):
//
//   - members whose key ends in _ms, _us or _ns (wall_ms, uptime_ms,
//     recorder time_ns, latency and window quantiles, cost self/cum ns);
//   - the numeric members of "phases" objects (seconds per phase);
//   - in the Prometheus "exposition" text, the sample values of families
//     measured in time (lpa_uptime_seconds, lpa_query_latency_us).
//
// Cost rows ("nodes", "per_pred", "per_scc") are ranked by self time, so
// those arrays are compared as sorted sets of masked rows. Everything
// else must match exactly. The masked responses of each run are also
// written to protocol_session.actual.jsonl in the test's working
// directory, so a deliberate change can be reviewed with diff.
//
//===----------------------------------------------------------------------===//

#include "JsonTestUtil.h"
#include "ProtocolSeeds.h"

#include "srv/Protocol.h"
#include "srv/Session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace lpa;
using namespace lpa::test;

namespace {

bool endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.substr(S.size() - Suffix.size()) == Suffix;
}

bool isTimingKey(std::string_view K) {
  return endsWith(K, "_ms") || endsWith(K, "_us") || endsWith(K, "_ns");
}

/// Prometheus families whose sample values are times.
bool isTimingFamily(std::string_view Name) {
  for (std::string_view Suffix : {"_bucket", "_sum", "_count"})
    if (endsWith(Name, Suffix)) {
      Name.remove_suffix(Suffix.size());
      break;
    }
  return endsWith(Name, "_seconds") || endsWith(Name, "_us") ||
         endsWith(Name, "_ms") || endsWith(Name, "_ns");
}

/// Masks the samples of timing families. A histogram elides its empty
/// top buckets, so how many bucket lines it has is timing too: each run
/// of a family's masked samples with one name folds into one line.
std::string maskExposition(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line, Out, Prev;
  while (std::getline(In, Line)) {
    if (!Line.empty() && Line[0] != '#') {
      size_t NameEnd = Line.find_first_of("{ ");
      if (NameEnd != std::string::npos &&
          isTimingFamily(std::string_view(Line).substr(0, NameEnd))) {
        Line = Line.substr(0, NameEnd) + " <t>";
        if (Line == Prev)
          continue;
      }
    }
    Prev = Line;
    Out += Line;
    Out += '\n';
  }
  return Out;
}

JsonValue timed() { return JsonValue::makeString("<t>"); }

JsonValue mask(const JsonValue &V, std::string_view Key = {}) {
  switch (V.kind()) {
  case JsonValue::Kind::Number:
    return isTimingKey(Key) ? timed() : V;
  case JsonValue::Kind::String:
    return Key == "exposition"
               ? JsonValue::makeString(maskExposition(V.asString()))
               : V;
  case JsonValue::Kind::Array: {
    JsonValue Out = JsonValue::makeArray();
    if (Key == "nodes" || Key == "per_pred" || Key == "per_scc") {
      std::vector<std::pair<std::string, JsonValue>> Rows;
      for (const JsonValue &I : V.items()) {
        JsonValue M = mask(I);
        Rows.emplace_back(toJsonText(M), std::move(M));
      }
      std::sort(Rows.begin(), Rows.end(),
                [](const auto &A, const auto &B) { return A.first < B.first; });
      for (auto &[Text, Row] : Rows)
        Out.push(std::move(Row));
      return Out;
    }
    for (const JsonValue &I : V.items())
      Out.push(mask(I));
    return Out;
  }
  case JsonValue::Kind::Object: {
    JsonValue Out = JsonValue::makeObject();
    bool Phases = Key == "phases";
    for (const auto &[K, M] : V.members())
      Out.set(K, Phases && M.isNumber() ? timed() : mask(M, K));
    return Out;
  }
  default:
    return V;
  }
}

std::vector<std::string> runScript() {
  AnalysisSession::Options SO;
  SO.SlowLog.ThresholdMs = 1e-9; // Capture every query.
  SO.SampleHz = 0;
  SO.EvalWorkers = 0;
  AnalysisSession Session(SO);
  std::vector<std::string> Out;
  for (const char *Req : GoldenSessionScript) {
    bool Shutdown = false;
    std::string Resp = handleRequestLine(Session, Req, Shutdown);
    auto Doc = JsonValue::parse(Resp);
    EXPECT_TRUE(Doc.hasValue()) << Resp;
    Out.push_back(Doc ? toJsonText(mask(*Doc)) : Resp);
  }
  return Out;
}

TEST(ProtocolGolden, SessionMatchesGoldenFile) {
  std::vector<std::string> Actual = runScript();
  {
    std::ofstream Dump("protocol_session.actual.jsonl");
    for (const std::string &L : Actual)
      Dump << L << '\n';
  }

  std::ifstream In(LPA_TEST_GOLDEN_DIR "/protocol_session.jsonl");
  ASSERT_TRUE(In.good()) << "missing golden file";
  std::vector<std::string> Expected;
  for (std::string L; std::getline(In, L);)
    Expected.push_back(L);

  ASSERT_EQ(Expected.size(), Actual.size());
  for (size_t I = 0; I < Actual.size(); ++I)
    EXPECT_EQ(Expected[I], Actual[I]) << "response " << I << " to "
                                      << GoldenSessionScript[I];
}

TEST(ProtocolGolden, SessionIsReproducible) {
  EXPECT_EQ(runScript(), runScript());
}

} // namespace

//===- protocol_fuzz_test.cpp - Seeded mutational fuzzing of the protocol -----===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Part of the "ctest -L fuzz" suite. A fixed-seed PRNG (FuzzMutator.h)
// mutates the golden session script and the daemon-smoke requests
// (ProtocolSeeds.h) by byte flips, inserts, deletes and splices, for a
// fixed number of iterations, and feeds the results to JsonValue::parse,
// handleRequestLine and serveStream. Properties:
//
//   - every request line gets a response that parses as a JSON object
//     carrying a boolean "ok";
//   - JSON parse -> JsonWriter -> parse gives the same value (numbers as
//     JsonWriter prints them), and writing it again gives the same text.
//
// A mutated line that parses as a query or explain object has its
// deadline_ms forced to at most 50 before it is sent, so no input runs
// unbounded. Under the sanitizer build the same run also checks that no
// input reaches undefined behaviour.
//
//===----------------------------------------------------------------------===//

#include "FuzzMutator.h"
#include "JsonTestUtil.h"
#include "ProtocolSeeds.h"

#include "srv/Protocol.h"
#include "srv/Session.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace lpa;
using namespace lpa::test;

namespace {

constexpr uint64_t FuzzSeed = 0x6c70615f66757a7aull;
constexpr int ParseIterations = 200000;
constexpr int SessionRounds = 600;
constexpr int StreamBatches = 400;

std::vector<std::string> seedLines() {
  std::vector<std::string> Out(std::begin(GoldenSessionScript),
                               std::end(GoldenSessionScript));
  Out.insert(Out.end(), std::begin(DaemonSmokeRequests),
             std::end(DaemonSmokeRequests));
  return Out;
}

Mutator makeMutator() {
  return Mutator(seedLines(), FuzzSeed,
                 "{}[]\":,\\ 0123456789-+.eEtrufalsn_(X)");
}

/// A query or explain object gets deadline_ms <= 50; anything else is
/// returned unchanged.
std::string boundDeadline(const std::string &Line) {
  auto Doc = JsonValue::parse(Line);
  if (!Doc || !Doc->isObject())
    return Line;
  std::string Op = Doc->stringOr("op", "");
  if (Op != "query" && Op != "explain")
    return Line;
  JsonValue Out = JsonValue::makeObject();
  for (const auto &[K, V] : Doc->members())
    if (K != "deadline_ms")
      Out.set(K, V);
  double D = Doc->numberOr("deadline_ms", 0);
  Out.set("deadline_ms", JsonValue::makeNumber(D != 0 && D <= 50 ? D : 50));
  return toJsonText(Out);
}

/// The response property; returns a failure message or "".
std::string checkResponse(const std::string &Resp) {
  auto Doc = JsonValue::parse(Resp);
  if (!Doc)
    return "response does not parse: " + Resp;
  const JsonValue *Ok = Doc->find("ok");
  if (!Ok || Ok->kind() != JsonValue::Kind::Bool)
    return "response carries no boolean \"ok\": " + Resp;
  return "";
}

/// The round-trip property; returns a failure message or "".
std::string checkRoundTrip(const std::string &Line) {
  auto V = JsonValue::parse(Line);
  if (!V)
    return "";
  std::string T1 = toJsonText(*V);
  auto V2 = JsonValue::parse(T1);
  if (!V2)
    return "written JSON does not parse: " + T1;
  if (!sameJson(*V, *V2))
    return "round trip changed the value: " + Line + " -> " + T1;
  if (toJsonText(*V2) != T1)
    return "second write differs: " + T1;
  return "";
}

TEST(ProtocolFuzz, ParseRoundTrips) {
  Mutator M = makeMutator();
  int Parsed = 0;
  for (int I = 0; I < ParseIterations; ++I) {
    std::string Line = M.mutate(M.Seeds[M.below(M.Seeds.size())]);
    std::string Err = checkRoundTrip(Line);
    ASSERT_EQ(Err, "") << "iteration " << I;
    Parsed += JsonValue::parse(Line).hasValue();
  }
  // The mutants are not vacuous: a good share still parses and so reaches
  // the protocol's own checks rather than the parser's.
  EXPECT_GT(Parsed, ParseIterations / 10);
}

TEST(ProtocolFuzz, EveryRequestGetsAnOkResponse) {
  Mutator M = makeMutator();
  for (int Round = 0; Round < SessionRounds; ++Round) {
    AnalysisSession::Options SO;
    SO.SlowLog.ThresholdMs = 1e-9;
    AnalysisSession Session(SO);
    // Replay one seed script, mutating about half of its lines, so the
    // mutants meet a session with a program loaded and tables warm.
    bool Golden = Round % 2 == 0;
    size_t N = Golden ? std::size(GoldenSessionScript)
                      : std::size(DaemonSmokeRequests);
    for (size_t L = 0; L < N; ++L) {
      std::string Line =
          Golden ? GoldenSessionScript[L] : DaemonSmokeRequests[L];
      // A mutated program can turn an unmutated query into an unbounded
      // one (say, by untabling a left-recursive predicate), so every
      // query is bounded, not only the mutants.
      if (M.below(2))
        Line = M.mutate(Line);
      Line = boundDeadline(Line);
      ASSERT_EQ(checkRoundTrip(Line), "") << "round " << Round;
      bool Shutdown = false;
      std::string Resp = handleRequestLine(Session, Line, Shutdown);
      ASSERT_EQ(checkResponse(Resp), "")
          << "round " << Round << " request: " << Line;
    }
  }
}

TEST(ProtocolFuzz, StreamAnswersEveryLine) {
  Mutator M = makeMutator();
  for (int Batch = 0; Batch < StreamBatches; ++Batch) {
    // Mutants may carry newlines of their own: bound each physical line.
    std::string Raw;
    for (int I = 0; I < 12; ++I)
      Raw += M.mutate(M.Seeds[M.below(M.Seeds.size())]) + "\n";
    std::string Input;
    std::vector<std::string> Lines;
    for (size_t Start = 0; Start < Raw.size();) {
      size_t End = Raw.find('\n', Start);
      std::string Line = boundDeadline(Raw.substr(Start, End - Start));
      Input += Line + "\n";
      if (Line.find_first_not_of(" \t\r") != std::string::npos)
        Lines.push_back(Line);
      Start = End + 1;
    }

    std::FILE *In = fmemopen(Input.data(), Input.size(), "r");
    std::FILE *Out = std::tmpfile();
    ASSERT_TRUE(In && Out);
    AnalysisSession Session;
    bool Shutdown = serveStream(Session, In, Out);
    std::fclose(In);

    std::rewind(Out);
    std::vector<std::string> Responses;
    std::string Resp;
    for (int C; (C = std::fgetc(Out)) != EOF;) {
      if (C != '\n') {
        Resp.push_back(char(C));
        continue;
      }
      Responses.push_back(Resp);
      Resp.clear();
    }
    std::fclose(Out);
    EXPECT_EQ(Resp, "") << "unterminated response line";

    // One response per nonblank line, up to a shutdown request.
    if (Shutdown)
      ASSERT_LE(Responses.size(), Lines.size()) << "batch " << Batch;
    else
      ASSERT_EQ(Responses.size(), Lines.size()) << "batch " << Batch;
    for (size_t I = 0; I < Responses.size(); ++I)
      ASSERT_EQ(checkResponse(Responses[I]), "")
          << "batch " << Batch << " request: " << Lines[I];
  }
}

} // namespace

//===- Protocol.cpp - JSON-lines service protocol -----------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "srv/Protocol.h"

#include "obs/Json.h"
#include "srv/Session.h"
#include "support/JsonValue.h"

using namespace lpa;

/// A nonnegative request number as a count; casting a double at or past
/// 2^64 to an integer is undefined, so those saturate.
static uint64_t toCount(double D) {
  return D < 0x1p64 ? static_cast<uint64_t>(D) : UINT64_MAX;
}

static std::string errorResponse(std::string_view Msg) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("ok", false);
  W.member("error", Msg);
  W.endObject();
  return Out;
}

std::string lpa::handleRequestLine(AnalysisSession &Session,
                                   std::string_view Line, bool &Shutdown) {
  Shutdown = false;
  auto Doc = JsonValue::parse(Line);
  if (!Doc)
    return errorResponse(Doc.getError().str());
  if (!Doc->isObject())
    return errorResponse("request must be a JSON object");
  std::string Op = Doc->stringOr("op", "");
  if (Op.empty())
    return errorResponse("missing \"op\"");

  if (Op == "consult") {
    const JsonValue *Prog = Doc->find("program");
    if (!Prog || !Prog->isString())
      return errorResponse("consult needs a string \"program\"");
    auto R = Session.consult(Prog->asString());
    if (!R)
      return errorResponse(R.getError().str());
    std::string Out;
    JsonWriter W(Out);
    W.beginObject();
    W.member("ok", true);
    W.member("clauses", static_cast<uint64_t>(R->Loaded));
    W.member("tables_invalidated", R->TablesInvalidated);
    W.member("tables_survived", R->TablesSurvived);
    W.endObject();
    return Out;
  }

  if (Op == "retract") {
    const JsonValue *ClauseText = Doc->find("clause");
    if (!ClauseText || !ClauseText->isString())
      return errorResponse("retract needs a string \"clause\"");
    auto R = Session.retract(ClauseText->asString());
    if (!R)
      return errorResponse(R.getError().str());
    std::string Out;
    JsonWriter W(Out);
    W.beginObject();
    W.member("ok", true);
    W.member("retracted", static_cast<uint64_t>(R->Loaded));
    W.member("tables_invalidated", R->TablesInvalidated);
    W.member("tables_survived", R->TablesSurvived);
    W.endObject();
    return Out;
  }

  if (Op == "query") {
    const JsonValue *Goal = Doc->find("goal");
    if (!Goal || !Goal->isString())
      return errorResponse("query needs a string \"goal\"");
    double MaxSol = Doc->numberOr("max_solutions", 10);
    double DeadlineMs = Doc->numberOr("deadline_ms", 0);
    if (MaxSol < 0 || DeadlineMs < 0)
      return errorResponse("max_solutions/deadline_ms must be nonnegative");
    auto R = Session.runQuery(Goal->asString(),
                              toCount(MaxSol), toCount(DeadlineMs));
    if (!R)
      return errorResponse(R.getError().str());
    std::string Out;
    JsonWriter W(Out);
    W.beginObject();
    W.member("ok", true);
    W.member("id", R->Id);
    W.member("total", static_cast<uint64_t>(R->Total));
    W.key("solutions");
    W.beginArray();
    for (const std::string &S : R->Solutions)
      W.value(std::string_view(S));
    W.endArray();
    W.member("wall_ms", R->WallMs);
    W.member("warm_hits", R->WarmHits);
    W.member("cold_misses", R->ColdMisses);
    W.member("truncated", R->Truncated);
    // Outcome flags: "truncated" is kept for callers that predate them;
    // deadline_hit is the same signal under its real name, and incomplete
    // means a tainted table may have starved the answer set even when the
    // deadline never fired.
    W.member("deadline_hit", R->Truncated);
    W.member("incomplete", R->Incomplete);
    W.endObject();
    return Out;
  }

  if (Op == "stats") {
    // The snapshot is already one JSON object; splice it in verbatim
    // rather than round-tripping through a document model.
    return std::string("{\"ok\":true,\"stats\":") + Session.statsJson() + "}";
  }

  if (Op == "health")
    return std::string("{\"ok\":true,\"health\":") + Session.healthJson() +
           "}";

  if (Op == "slowlog")
    return std::string("{\"ok\":true,\"slowlog\":") + Session.slowlogJson() +
           "}";

  if (Op == "inspect") {
    double Top = Doc->numberOr("top", 10);
    if (Top < 0)
      return errorResponse("top must be nonnegative");
    std::string Sort = Doc->stringOr("sort", "bytes");
    if (Sort != "bytes" && Sort != "answers" && Sort != "contention")
      return errorResponse(
          "sort must be \"bytes\", \"answers\" or \"contention\"");
    return std::string("{\"ok\":true,\"inspect\":") +
           Session.inspectJson(toCount(Top), Sort) + "}";
  }

  if (Op == "explain") {
    const JsonValue *Goal = Doc->find("goal");
    if (!Goal || !Goal->isString())
      return errorResponse("explain needs a string \"goal\"");
    double Top = Doc->numberOr("top", 10);
    double MaxSol = Doc->numberOr("max_solutions", 10);
    double DeadlineMs = Doc->numberOr("deadline_ms", 0);
    if (Top < 0 || MaxSol < 0 || DeadlineMs < 0)
      return errorResponse(
          "top/max_solutions/deadline_ms must be nonnegative");
    auto R = Session.explainJson(Goal->asString(), toCount(Top),
                                 toCount(MaxSol), toCount(DeadlineMs));
    if (!R)
      return errorResponse(R.getError().str());
    return std::string("{\"ok\":true,\"explain\":") + *R + "}";
  }

  if (Op == "metrics")
    return std::string("{\"ok\":true,\"metrics\":") + Session.metricsJson() +
           "}";

  if (Op == "reset_stats") {
    Session.resetStats();
    return "{\"ok\":true}";
  }

  if (Op == "shutdown") {
    Shutdown = true;
    return "{\"ok\":true,\"bye\":true}";
  }

  return errorResponse("unknown op: " + Op);
}

bool lpa::serveStream(AnalysisSession &Session, std::FILE *In,
                      std::FILE *Out) {
  std::string Line;
  int C = 0;
  bool Shutdown = false;
  while (!Shutdown && C != EOF) {
    Line.clear();
    bool TooLong = false;
    while ((C = std::fgetc(In)) != EOF && C != '\n') {
      if (Line.size() < MaxRequestLineBytes)
        Line.push_back(static_cast<char>(C));
      else
        TooLong = true; // Drain the rest of the line without keeping it.
    }
    std::string Resp;
    if (TooLong)
      Resp = errorResponse("request line longer than " +
                           std::to_string(MaxRequestLineBytes) + " bytes");
    else if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue; // Blank keep-alive line, or the end of the stream.
    else
      Resp = handleRequestLine(Session, Line, Shutdown);
    Resp += '\n';
    std::fwrite(Resp.data(), 1, Resp.size(), Out);
    std::fflush(Out);
  }
  return Shutdown;
}

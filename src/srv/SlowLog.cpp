//===- SlowLog.cpp - Slow-query exemplar store --------------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "srv/SlowLog.h"

#include "obs/Json.h"

using namespace lpa;

void lpa::writeExemplarJson(const SlowQueryExemplar &E, JsonWriter &W) {
  W.beginObject();
  W.member("id", E.Id);
  W.member("goal", std::string_view(E.Goal));
  W.member("wall_ms", E.WallMs);
  W.member("threshold_ms", E.ThresholdMs);
  W.member("solutions", E.Total);
  W.member("warm_hits", E.WarmHits);
  W.member("cold_misses", E.ColdMisses);
  W.member("deadline_hit", E.Truncated);
  W.member("incomplete", E.Incomplete);
  W.key("top_preds");
  W.beginArray();
  for (const SlowQueryExemplar::PredDelta &P : E.TopPreds) {
    W.beginObject();
    W.member("pred", std::string_view(P.Pred));
    W.member("calls", P.Calls);
    W.member("resolutions", P.Resolutions);
    W.member("new_answers", P.NewAnswers);
    W.endObject();
  }
  W.endArray();
  W.key("top_tables");
  W.beginArray();
  for (const SlowQueryExemplar::TableEntry &T : E.TopTables) {
    W.beginObject();
    W.member("call", std::string_view(T.Call));
    W.member("answers", T.Answers);
    W.member("bytes", T.Bytes);
    W.member("incomplete", T.Incomplete);
    W.endObject();
  }
  W.endArray();
  W.key("trace");
  W.beginArray();
  for (const FrEvent &Ev : E.Trace) {
    W.beginObject();
    W.member("kind", frEventKindName(Ev.Kind));
    W.member("time_ns", Ev.TimeNs);
    if (Ev.Flags)
      W.member("flags", static_cast<uint64_t>(Ev.Flags));
    if (Ev.A)
      W.member("a", Ev.A);
    if (Ev.Detail[0])
      W.member("detail", std::string_view(Ev.Detail));
    W.endObject();
  }
  W.endArray();
  // Cost rollup: only meaningful (and only emitted) when the capturing
  // session ran with a cost profile attached.
  if (!E.TopCosts.empty() || E.CostAttributedNs || E.CostRootNs) {
    W.key("cost");
    W.beginObject();
    W.member("attributed_ns", E.CostAttributedNs);
    W.member("root_ns", E.CostRootNs);
    W.key("per_pred");
    W.beginArray();
    for (const SlowQueryExemplar::CostLine &C : E.TopCosts) {
      W.beginObject();
      W.member("pred", std::string_view(C.Pred));
      W.member("self_ns", C.SelfNs);
      W.member("steps", C.Steps);
      W.member("warm_hits", static_cast<uint64_t>(C.WarmHits));
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endObject();
}

void SlowQueryLog::insert(SlowQueryExemplar E) {
  auto It = ById.find(E.Id);
  if (It != ById.end()) {
    // Same query id re-captured: replace the payload and refresh.
    *It->second = std::move(E);
    Order.splice(Order.begin(), Order, It->second);
    return;
  }
  if (Opts.Capacity && Order.size() >= Opts.Capacity) {
    ById.erase(Order.back().Id);
    Order.pop_back();
    ++Evicted;
  }
  Order.push_front(std::move(E));
  ById[Order.front().Id] = Order.begin();
  ++Captured;
}

const SlowQueryExemplar *SlowQueryLog::get(uint64_t Id) {
  auto It = ById.find(Id);
  if (It == ById.end())
    return nullptr;
  Order.splice(Order.begin(), Order, It->second);
  return &*It->second;
}

std::vector<const SlowQueryExemplar *> SlowQueryLog::entries() const {
  std::vector<const SlowQueryExemplar *> Out;
  Out.reserve(Order.size());
  for (const SlowQueryExemplar &E : Order)
    Out.push_back(&E);
  return Out;
}

void SlowQueryLog::clear() {
  Order.clear();
  ById.clear();
}

void SlowQueryLog::writeJson(JsonWriter &W, double ThresholdNowMs) const {
  W.beginObject();
  W.member("schema", "lpa.slowlog.v1");
  W.member("capacity", static_cast<uint64_t>(Opts.Capacity));
  W.member("count", static_cast<uint64_t>(Order.size()));
  W.member("captured", Captured);
  W.member("evicted", Evicted);
  W.member("threshold_ms", ThresholdNowMs);
  W.key("entries");
  W.beginArray();
  for (const SlowQueryExemplar &E : Order)
    writeExemplarJson(E, W);
  W.endArray();
  W.endObject();
}

//===- CostProfile.cpp - Per-query subgoal cost attribution ---------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "obs/CostProfile.h"

#include "obs/Json.h"

#include <algorithm>
#include <chrono>

using namespace lpa;

uint64_t CostProfile::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

static_assert(CostProfile::NoParent == TraceEvent::NoProducer,
              "the root is the same sentinel in events and records");

void CostProfile::beginQuery(uint64_t Id) {
  ++Epoch; // Lazily invalidates every prior record.
  QueryId = Id;
  Touched.clear();
  Running = NoParent;
  QueryStartNs = LastStampNs = nowNs();
  QueryWallNs = 0;
  RootNs = 0;
  RootSteps = 0;
  StepTick = 0;
  SeqCounter = 0;
  InQuery = true;
}

void CostProfile::endQuery() {
  if (!InQuery)
    return;
  stamp();
  Running = NoParent;
  QueryWallNs = LastStampNs - QueryStartNs;
  InQuery = false;
}

void CostProfile::event(const TraceEvent &E) {
  using K = TraceEventKind;
  auto Ordinal = static_cast<uint32_t>(E.Value);
  switch (E.Kind) {
  case K::QueryBegin: beginQuery(E.QueryId); break;
  case K::QueryEnd: endQuery(); break;
  case K::ProducerEnter:
    stamp(); // Charge the slice so far to whoever was running.
    live(E.Producer).Resumptions += E.Value;
    Running = E.Producer;
    break;
  case K::ProducerLeave:
    stamp();
    Running = E.Producer;
    break;
  case K::ClauseResolve:
    (E.Producer == NoParent ? RootSteps : live(E.Producer).Steps) += 1;
    if ((++StepTick & (StepBatch - 1)) == 0)
      stamp();
    break;
  case K::AnswerNew:
    if (E.Producer != NoParent)
      live(E.Producer).AnswersInserted += 1;
    break;
  case K::AnswerConsumed: live(Ordinal).AnswersConsumed += 1; break;
  case K::WarmHit: live(Ordinal).Warm = true; break;
  case K::TableBytes: live(Ordinal).TableBytes = E.Aux; break;
  default: break;
  }
}

void CostProfile::stamp() {
  uint64_t Now = nowNs();
  uint64_t Slice = Now - LastStampNs;
  if (Running == NoParent)
    RootNs += Slice;
  else
    live(Running).SelfNs += Slice;
  LastStampNs = Now;
}

CostProfile::Record &CostProfile::live(uint32_t Ordinal) {
  if (Ordinal >= Records.size())
    Records.resize(Ordinal + 1);
  Record &R = Records[Ordinal];
  if (R.Epoch != Epoch) {
    R = Record();
    R.Epoch = Epoch;
    R.FirstSeq = ++SeqCounter;
    if (Running != Ordinal)
      R.Parent = Running;
    Touched.push_back(Ordinal);
  }
  return R;
}

uint64_t CostProfile::attributedNs() const {
  uint64_t Sum = 0;
  for (uint32_t O : Touched)
    if (const Record *R = record(O))
      Sum += R->SelfNs;
  return Sum;
}

//===----------------------------------------------------------------------===//
// Summary helpers
//===----------------------------------------------------------------------===//

void lpa::computeCumulativeNs(std::vector<CostNode> &Nodes) {
  for (CostNode &N : Nodes)
    N.CumNs = N.SelfNs;
  // First-touch order puts every parent before its children, so one
  // reverse pass folds each subtree into its parent exactly once.
  for (size_t I = Nodes.size(); I-- > 0;) {
    uint32_t P = Nodes[I].Parent;
    if (P != CostProfile::NoParent && P < Nodes.size())
      Nodes[P].CumNs += Nodes[I].CumNs;
  }
}

namespace {

void writeRollups(const std::vector<CostRollup> &Rs, JsonWriter &W) {
  W.beginArray();
  for (const CostRollup &R : Rs) {
    W.beginObject();
    W.member("key", std::string_view(R.Key));
    W.member("subgoals", static_cast<uint64_t>(R.Subgoals));
    W.member("warm_hits", static_cast<uint64_t>(R.WarmHits));
    W.member("self_ns", R.SelfNs);
    W.member("steps", R.Steps);
    W.member("answers_inserted", R.AnswersInserted);
    W.member("answers_consumed", R.AnswersConsumed);
    W.member("resumptions", R.Resumptions);
    W.member("table_bytes", R.TableBytes);
    W.endObject();
  }
  W.endArray();
}

} // namespace

void lpa::writeCostSummaryJson(const CostSummary &S, JsonWriter &W,
                               size_t TopK) {
  W.beginObject();
  W.member("query_id", S.QueryId);
  W.member("query_wall_ns", S.QueryWallNs);
  W.member("attributed_ns", S.AttributedNs);
  W.member("root_ns", S.RootNs);
  W.member("root_steps", S.RootSteps);
  W.member("subgoals", static_cast<uint64_t>(S.Nodes.size()));

  // Nodes by self time descending, bounded to the top K.
  std::vector<const CostNode *> Sorted;
  Sorted.reserve(S.Nodes.size());
  for (const CostNode &N : S.Nodes)
    Sorted.push_back(&N);
  std::stable_sort(Sorted.begin(), Sorted.end(),
                   [](const CostNode *A, const CostNode *B) {
                     return A->SelfNs > B->SelfNs;
                   });
  size_t N = TopK && TopK < Sorted.size() ? TopK : Sorted.size();
  W.key("nodes");
  W.beginArray();
  for (size_t I = 0; I < N; ++I) {
    const CostNode *C = Sorted[I];
    W.beginObject();
    W.member("ordinal", static_cast<uint64_t>(C->Ordinal));
    W.member("pred", std::string_view(C->Pred));
    W.member("call", std::string_view(C->Label));
    W.member("scc", static_cast<uint64_t>(C->SccId));
    W.member("warm", C->Warm);
    W.member("self_ns", C->SelfNs);
    W.member("cum_ns", C->CumNs);
    W.member("steps", C->Steps);
    W.member("answers_inserted", C->AnswersInserted);
    W.member("answers_consumed", C->AnswersConsumed);
    W.member("resumptions", C->Resumptions);
    W.member("table_bytes", C->TableBytes);
    W.endObject();
  }
  W.endArray();

  W.key("per_pred");
  writeRollups(S.PerPred, W);
  W.key("per_scc");
  writeRollups(S.PerScc, W);
  W.endObject();
}

//===- Metrics.cpp - Per-predicate metrics registry ---------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/Json.h"
#include "support/TableFormat.h"

#include <bit>

using namespace lpa;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

void Histogram::record(uint64_t Value) {
  size_t B = Value == 0 ? 0 : static_cast<size_t>(std::bit_width(Value));
  if (B >= NumBuckets)
    B = NumBuckets - 1;
  ++Buckets[B];
  ++Count;
  Sum += Value;
  if (Value < Min)
    Min = Value;
  if (Value > Max)
    Max = Value;
}

uint64_t Histogram::quantile(double Q) const {
  // Pinned semantics (see ObsTest.HistogramQuantile*): an empty histogram
  // reports 0 for every Q; Q <= 0 is exactly the recorded minimum and
  // Q >= 1 exactly the recorded maximum; anything in between returns the
  // upper bound of the bucket holding the Q-th sample — bucket B covers
  // [2^(B-1), 2^B), so the bound is 2^B - 1 — clamped into [min, max]
  // (bucket bounds can overshoot the true extremes).
  if (!Count)
    return 0;
  if (Q <= 0)
    return min();
  if (Q >= 1)
    return Max;
  uint64_t Rank = static_cast<uint64_t>(Q * double(Count - 1)) + 1;
  if (Rank > Count)
    Rank = Count;
  uint64_t Seen = 0;
  for (size_t B = 0; B < NumBuckets; ++B) {
    Seen += Buckets[B];
    if (Seen >= Rank) {
      uint64_t Upper =
          B == 0 ? 0 : (B >= 64 ? ~uint64_t(0) : (uint64_t(1) << B) - 1);
      if (Upper < min())
        Upper = min();
      return Upper < Max ? Upper : Max;
    }
  }
  return Max;
}

void Histogram::reset() { *this = Histogram(); }

void Histogram::mergeFrom(const Histogram &Other) {
  if (!Other.Count)
    return;
  for (size_t B = 0; B < NumBuckets; ++B)
    Buckets[B] += Other.Buckets[B];
  Count += Other.Count;
  Sum += Other.Sum;
  if (Other.Min < Min)
    Min = Other.Min;
  if (Other.Max > Max)
    Max = Other.Max;
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

PredMetrics &MetricsRegistry::pred(const SymbolTable &Symbols, SymbolId Sym,
                                   uint32_t Arity) {
  uint64_t Key = (uint64_t(Sym) << 32) | Arity;
  auto [It, Inserted] = Preds.try_emplace(Key);
  if (Inserted) {
    It->second.Name = Symbols.name(Sym);
    It->second.Arity = Arity;
    Order.push_back(Key);
  }
  return It->second;
}

void MetricsRegistry::event(const TraceEvent &E) {
  using K = TraceEventKind;
  uint64_t PredMetrics::*Field = nullptr;
  switch (E.Kind) {
  case K::SpanBegin:
    OpenPhases.emplace_back(E.Label, Stopwatch());
    return;
  case K::SpanEnd:
    if (!OpenPhases.empty()) {
      const auto &[Label, Watch] = OpenPhases.back();
      addPhase(Label, Watch.elapsedSeconds());
      OpenPhases.pop_back();
    }
    return;
  case K::TabledCall: Field = &PredMetrics::Calls; break;
  case K::SubgoalNew: // A revival (Aux) is a cold miss, not a new subgoal.
    Field = E.Aux ? nullptr : &PredMetrics::NewSubgoals;
    break;
  case K::TableImported: Field = &PredMetrics::NewSubgoals; break;
  case K::AnswerNew: Field = &PredMetrics::NewAnswers; break;
  case K::AnswerDup: Field = &PredMetrics::DupAnswers; break;
  case K::ClauseResolve: Field = &PredMetrics::Resolutions; break;
  case K::SubgoalComplete: Field = &PredMetrics::Completions; break;
  case K::WarmHit: Field = &PredMetrics::WarmHits; break;
  case K::ColdMiss: Field = &PredMetrics::ColdMisses; break;
  default: break;
  }
  if (Field && E.Symbols)
    ++(pred(*E.Symbols, E.Sym, E.Arity).*Field);
}

std::vector<const PredMetrics *> MetricsRegistry::predicates() const {
  std::vector<const PredMetrics *> Out;
  Out.reserve(Order.size());
  for (uint64_t Key : Order)
    Out.push_back(&Preds.at(Key));
  return Out;
}

void MetricsRegistry::addPhase(std::string_view Name, double Seconds) {
  for (auto &[N, S] : Phases)
    if (N == Name) {
      S += Seconds;
      return;
    }
  Phases.emplace_back(std::string(Name), Seconds);
}

void MetricsRegistry::setCounter(std::string_view Name, uint64_t Value) {
  for (auto &[N, V] : Counters)
    if (N == Name) {
      V = Value;
      return;
    }
  Counters.emplace_back(std::string(Name), Value);
}

void MetricsRegistry::noteWatermark(std::string_view Name, uint64_t Value) {
  for (auto &[N, V] : Watermarks)
    if (N == Name) {
      if (Value > V)
        V = Value;
      return;
    }
  Watermarks.emplace_back(std::string(Name), Value);
}

void MetricsRegistry::resetTableSnapshot() {
  for (auto &[Key, PM] : Preds) {
    (void)Key;
    PM.TableSubgoals = 0;
    PM.TableAnswers = 0;
    PM.TableBytes = 0;
    PM.AnswersPerSubgoal.reset();
  }
}

void MetricsRegistry::mergeFrom(const MetricsRegistry &Other) {
  // SymbolIds are private to the run that produced each registry, so the
  // only stable identity is the captured Name+Arity.
  std::unordered_map<std::string, uint64_t> ByName;
  ByName.reserve(Preds.size());
  for (uint64_t Key : Order)
    ByName.emplace(Preds.at(Key).qualifiedName(), Key);

  for (uint64_t OtherKey : Other.Order) {
    const PredMetrics &From = Other.Preds.at(OtherKey);
    uint64_t Key;
    auto It = ByName.find(From.qualifiedName());
    if (It != ByName.end()) {
      Key = It->second;
    } else {
      while (Preds.count(NextSyntheticKey))
        --NextSyntheticKey;
      Key = NextSyntheticKey--;
      PredMetrics &PM = Preds[Key];
      PM.Name = From.Name;
      PM.Arity = From.Arity;
      Order.push_back(Key);
      ByName.emplace(PM.qualifiedName(), Key);
    }
    PredMetrics &To = Preds.at(Key);
    To.Calls += From.Calls;
    To.NewSubgoals += From.NewSubgoals;
    To.NewAnswers += From.NewAnswers;
    To.DupAnswers += From.DupAnswers;
    To.Resolutions += From.Resolutions;
    To.Completions += From.Completions;
    To.WarmHits += From.WarmHits;
    To.ColdMisses += From.ColdMisses;
    To.TableSubgoals += From.TableSubgoals;
    To.TableAnswers += From.TableAnswers;
    To.TableBytes += From.TableBytes;
    To.AnswersPerSubgoal.mergeFrom(From.AnswersPerSubgoal);
  }

  for (const auto &[Name, Seconds] : Other.Phases)
    addPhase(Name, Seconds);
  // Named globals accumulate on merge (they are per-run totals; the merged
  // registry reports fleet-wide totals), unlike setCounter's overwrite.
  for (const auto &[Name, Value] : Other.Counters) {
    bool Found = false;
    for (auto &[N, V] : Counters)
      if (N == Name) {
        V += Value;
        Found = true;
        break;
      }
    if (!Found)
      Counters.emplace_back(Name, Value);
  }
  // Watermarks take the max: the merged registry reports the highest peak
  // any shard reached, not the (meaningless) sum of per-shard peaks.
  for (const auto &[Name, Value] : Other.Watermarks)
    noteWatermark(Name, Value);
}

void MetricsRegistry::clear() {
  Preds.clear();
  Order.clear();
  Phases.clear();
  Counters.clear();
  Watermarks.clear();
  NextSyntheticKey = ~uint64_t(0);
  OpenPhases.clear();
}

void MetricsRegistry::writeJson(JsonWriter &W) const {
  W.beginObject();

  W.key("phases");
  W.beginObject();
  for (const auto &[Name, Seconds] : Phases)
    W.member(Name, Seconds);
  W.endObject();

  W.key("counters");
  W.beginObject();
  for (const auto &[Name, Value] : Counters)
    W.member(Name, Value);
  W.endObject();

  W.key("watermarks");
  W.beginObject();
  for (const auto &[Name, Value] : Watermarks)
    W.member(Name, Value);
  W.endObject();

  W.key("predicates");
  W.beginArray();
  for (const PredMetrics *PM : predicates()) {
    W.beginObject();
    W.member("name", std::string_view(PM->Name));
    W.member("arity", PM->Arity);
    W.member("calls", PM->Calls);
    W.member("new_subgoals", PM->NewSubgoals);
    W.member("new_answers", PM->NewAnswers);
    W.member("dup_answers", PM->DupAnswers);
    W.member("resolutions", PM->Resolutions);
    W.member("completions", PM->Completions);
    W.member("warm_hits", PM->WarmHits);
    W.member("cold_misses", PM->ColdMisses);
    W.member("table_subgoals", PM->TableSubgoals);
    W.member("table_answers", PM->TableAnswers);
    W.member("table_bytes", PM->TableBytes);
    const Histogram &H = PM->AnswersPerSubgoal;
    if (H.count()) {
      W.key("answers_per_subgoal");
      W.beginObject();
      W.member("count", H.count());
      W.member("min", H.min());
      W.member("max", H.max());
      W.member("mean", H.mean());
      W.member("p50", H.quantile(0.5));
      W.member("p90", H.quantile(0.9));
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();

  W.endObject();
}

std::string MetricsRegistry::renderReport() const {
  std::string Out;
  auto U = [](uint64_t V) {
    return TextTable::fmt(static_cast<unsigned long long>(V));
  };

  TextTable T;
  T.addRow({"Predicate", "Calls", "Subgoals", "Answers", "Dups", "Resol",
            "Tab.SG", "Tab.Ans", "Tab(B)", "Ans p50/max"});
  for (const PredMetrics *PM : predicates()) {
    const Histogram &H = PM->AnswersPerSubgoal;
    std::string Spread =
        H.count() ? std::to_string(H.quantile(0.5)) + "/" +
                        std::to_string(H.max())
                  : "-";
    T.addRow({PM->qualifiedName(), U(PM->Calls), U(PM->NewSubgoals),
              U(PM->NewAnswers), U(PM->DupAnswers), U(PM->Resolutions),
              U(PM->TableSubgoals), U(PM->TableAnswers), U(PM->TableBytes),
              Spread});
  }
  Out += T.render();

  if (!Phases.empty()) {
    Out += "\nPhases:\n";
    for (const auto &[Name, Seconds] : Phases)
      Out += "  " + Name + ": " + TextTable::fmt(Seconds * 1e3, 3) + " ms\n";
  }
  if (!Counters.empty()) {
    Out += "Counters:\n";
    for (const auto &[Name, Value] : Counters)
      Out += "  " + Name + ": " + U(Value) + "\n";
  }
  if (!Watermarks.empty()) {
    Out += "Watermarks (peak):\n";
    for (const auto &[Name, Value] : Watermarks)
      Out += "  " + Name + ": " + U(Value) + "\n";
  }
  return Out;
}

//===- lpabench.cpp - The repository benchmark program --------------------===//
//
// Part of the lpa benchmark (see lpabench/NOTES.md).
//
// Usage:
//   lpabench --workload NAME --seed N --seconds S --trace 0|1
//            --golden-dir DIR [--trace-out FILE]
//   lpabench --write-golden DIR
//
// Workloads (why each was chosen is in NOTES.md):
//   prop-serial    GroundnessAnalyzer::analyze over the 12 Table 1 programs
//   fleet-par      22 jobs (12 Prop + 10 strictness) through CorpusScheduler
//   service-edit   JSON-lines requests into one AnalysisSession, 90% reads
//
// The traced run of prop-serial also measures the depth-k layer:
// DepthKAnalyzer (k=2) over the same programs.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured from spans the benchmark
// records around its own calls into each layer (Spans.h). Every output is
// checked against a reference (Reference.h); a mismatch counts as a failed
// operation and makes the process exit nonzero.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "Spans.h"

#include "corpus/Corpus.h"
#include "depthk/DepthK.h"
#include "engine/Database.h"
#include "engine/Solver.h"
#include "fl/FLParser.h"
#include "obs/Json.h"
#include "par/CorpusScheduler.h"
#include "prop/Groundness.h"
#include "prop/PropTransform.h"
#include "reader/Parser.h"
#include "srv/Protocol.h"
#include "srv/Session.h"
#include "strictness/StrictTransform.h"
#include "strictness/Strictness.h"
#include "support/JsonValue.h"
#include "term/TermWriter.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace lpa;
using namespace lpabench;

namespace {

//===--------------------------------------------------------------------===//
// Workloads, options and results
//===--------------------------------------------------------------------===//

/// The service's memory figures (peak_rss_mb, table.bytes) are taken after
/// this many writes, so they measure the same work on every commit: the
/// session's table space grows with the writes (by doubling, near 100, 200,
/// 500 and 1000 writes on the served program), and a run of fixed length
/// makes more writes the faster the service is. 700 lies between two
/// doublings. Every run gets this far: it is service-edit's MinWrites.
constexpr uint64_t ServiceMemoryWrites = 700;

/// The tail percentile of each workload is fixed, and every run measures at
/// least MinOps operations (MinWrites edits), so that the tail always has at
/// least 10 samples beyond it and the same percentile is compared across
/// commits however fast the program gets.
struct WorkloadSpec {
  const char *Name;
  double TailPct;
  size_t MinOps;
  double WriteTailPct; ///< service-edit only.
  size_t MinWrites;    ///< service-edit only.
};

constexpr WorkloadSpec Workloads[] = {
    {"prop-serial", 99, 1000, 0, 0},
    {"fleet-par", 99, 1000, 0, 0},
    {"service-edit", 99.9, 10000, 98, ServiceMemoryWrites},
};

/// Set-up is repeated at least this many times per run, and until the
/// set-ups add up to SetupMinSeconds; setup_s is the median.
constexpr size_t SetupRepeats = 5;
constexpr double SetupMinSeconds = 1.0;
/// Passes of depth-k analysis in prop-serial's traced run.
constexpr int DepthKPasses = 2;
/// No run measures longer than this, whatever MinOps asks for.
constexpr double HardCapSeconds = 120;
/// The Table 1 program the service workload serves.
constexpr const char *ServiceProgram = "press2";
/// Share of service operations that are edits.
constexpr double ServiceWriteShare = 0.10;
/// Service operations per throughput window; a traced run alternates
/// untraced and traced windows.
constexpr uint64_t ServiceWindow = 200;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string GoldenDir = "lpabench/golden";
  std::string TraceOut;
  std::string WriteGolden;
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Everything one run measures.
struct Run {
  Options Opt;
  const WorkloadSpec *Spec = nullptr;
  Golden Ref;

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< First few messages.

  std::vector<double> SetupSeconds;
  /// Untraced latency samples (ms); in a traced run, only the untraced half.
  std::vector<double> ReadMs, WriteMs;
  /// The same read samples per corpus program (batch workloads only).
  std::map<std::string, std::vector<double>> ItemMs;
  /// Time (s) spent inside operations and their number, for the untraced
  /// and the traced half. On service-edit the operations are requests.
  double UntracedSeconds = 0, TracedSeconds = 0;
  uint64_t UntracedOps = 0, TracedOps = 0;
  /// Throughput of each window (a pass, a fleet run, or ServiceWindow
  /// service operations), untraced and traced. ops_per_s is the untraced
  /// median, so a stall in one window does not move it; the tracing
  /// overhead compares the two medians.
  std::vector<double> WindowOpsPerS, TracedWindowOpsPerS;

  uint64_t GaiaNs = 0;
  size_t GaiaRuns = 0;
  /// Peak RSS at a fixed point of the run, where the workload sets one;
  /// otherwise peak_rss_mb is read at the end.
  double PeakRssMb = 0;

  SpanRecorder Spans;
  std::map<std::string, double> Counts; ///< Per-layer work counts.
  std::map<std::string, double> Layer;  ///< Per-layer metric values.
  uint64_t NextOp = 0;

  void fail(const std::string &Msg) {
    ++Failed;
    if (Failures.size() < 10)
      Failures.push_back(Msg);
  }
  /// Books \p Ops operations that took \p Sec into the traced or the
  /// untraced half.
  void record(bool Traced, double Sec, uint64_t Ops) {
    (Traced ? TracedSeconds : UntracedSeconds) += Sec;
    (Traced ? TracedOps : UntracedOps) += Ops;
  }
  void window(bool Traced, double Ops, double Sec) {
    (Traced ? TracedWindowOpsPerS : WindowOpsPerS).push_back(ratio(Ops, Sec));
  }
  void read(const std::string &Item, double Ms) {
    ReadMs.push_back(Ms);
    ItemMs[Item].push_back(Ms);
  }
  /// A per-layer count, 0 when never recorded.
  double count(const char *Name) const {
    auto It = Counts.find(Name);
    return It == Counts.end() ? 0.0 : It->second;
  }
  SpanRecorder *rec(bool Traced) { return Traced ? &Spans : nullptr; }
};

double peakRssMb() {
  struct rusage RU;
  std::memset(&RU, 0, sizeof(RU));
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// The 1-based nearest rank of percentile \p Pct among \p N samples. The
/// small offset keeps float error from pushing an exact rank (p99.9 of
/// 10000 samples is rank 9990) one up.
size_t rankOf(size_t N, double Pct) {
  return static_cast<size_t>(std::ceil(Pct / 100.0 * N - 1e-9));
}

/// Nearest-rank percentile.
double percentile(std::vector<double> V, double Pct) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = rankOf(V.size(), Pct);
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// Median; the mean of the two middle values when the count is even.
double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  if (V.size() % 2)
    return V[Mid];
  return (V[Mid] + *std::max_element(V.begin(), V.begin() + Mid)) / 2;
}

size_t beyond(size_t N, double Pct) {
  size_t Rank = rankOf(N, Pct);
  return N > Rank ? N - Rank : 0;
}

/// Adds \p Sign times the engine counters of \p S to \p C (Sign = -1
/// subtracts an earlier snapshot of a long-lived solver).
void addEvalStats(std::map<std::string, double> &C, const EvalStats &S,
                  double Sign = 1) {
  C["engine.clause_resolutions"] += Sign * S.ClauseResolutions;
  C["engine.tabled_calls"] += Sign * S.TabledCalls;
  C["engine.subgoals_created"] += Sign * S.SubgoalsCreated;
  C["engine.answers_recorded"] += Sign * S.AnswersRecorded;
  C["engine.answers_duplicate"] += Sign * S.AnswersDuplicate;
  C["engine.index_filtered"] += Sign * S.ClauseIndexFiltered;
  C["engine.fixpoint_rounds"] += Sign * S.FixpointRounds;
  C["engine.builtin_evals"] += Sign * S.BuiltinEvals;
  C["table.trie_hits"] += Sign * S.TrieHits;
  C["table.trie_misses"] += Sign * S.TrieMisses;
  C["table.trie_nodes_created"] += Sign * S.TrieNodesCreated;
  C["table.frontier_bytes_freed"] += Sign * S.FrontierBytesFreed;
}

/// The reference set-up every workload runs once, before its timed set-ups:
/// load the golden fingerprints and check the Prop success sets against the
/// independent GAIA-style oracle.
void setupReferences(Run &R) {
  std::string Err = R.Ref.load(R.Opt.GoldenDir);
  if (!Err.empty()) {
    std::fprintf(stderr, "lpabench: %s\n", Err.c_str());
    std::exit(2);
  }
  std::vector<std::string> Failures;
  size_t Checked = checkGaiaOracle(R.Ref, Failures, R.GaiaNs);
  R.GaiaRuns += Checked;
  R.Attempted += Checked;
  for (const std::string &F : Failures)
    R.fail(F);
}

/// Runs \p Setup at least SetupRepeats times and for SetupMinSeconds,
/// recording the seconds each call returns: the time of the workload's own
/// set-up, without the reference checks of its outputs, which it makes
/// after stopping its clock.
void timeSetup(Run &R, const std::function<double()> &Setup) {
  double Total = 0;
  while (R.SetupSeconds.size() < SetupRepeats || Total < SetupMinSeconds) {
    R.SetupSeconds.push_back(Setup());
    Total += R.SetupSeconds.back();
  }
}

double secondsSince(uint64_t StartNs) { return (nowNs() - StartNs) / 1e9; }

/// Drives whole passes over \p NumItems items in a seeded order until the
/// run has lasted --seconds and measured MinOps operations. In a traced run
/// passes alternate untraced/traced, so both halves see the same mix.
void runPasses(Run &R, size_t NumItems,
               const std::function<void(size_t Item, bool Traced)> &Op) {
  std::mt19937_64 Rng(R.Opt.Seed);
  std::vector<size_t> Order(NumItems);
  std::iota(Order.begin(), Order.end(), 0);
  uint64_t Start = nowNs();
  for (uint64_t Pass = 0;; ++Pass) {
    double Elapsed = (nowNs() - Start) / 1e9;
    if ((Elapsed >= R.Opt.Seconds &&
         R.UntracedOps + R.TracedOps >= R.Spec->MinOps) ||
        Elapsed >= HardCapSeconds)
      break;
    std::shuffle(Order.begin(), Order.end(), Rng);
    bool Traced = R.Opt.Trace && Pass % 2 == 1;
    double Sec0 = R.UntracedSeconds + R.TracedSeconds;
    uint64_t Ops0 = R.UntracedOps + R.TracedOps;
    for (size_t I : Order)
      Op(I, Traced);
    R.window(Traced, R.UntracedOps + R.TracedOps - Ops0,
             R.UntracedSeconds + R.TracedSeconds - Sec0);
  }
}

//===--------------------------------------------------------------------===//
// Prop groundness, untraced and decomposed into its layers
//===--------------------------------------------------------------------===//

GroundnessAnalyzer::Options groundnessOptions() {
  GroundnessAnalyzer::Options GO;
  GO.Engine.EvalWorkers = 0;
  return GO;
}

/// The calls GroundnessAnalyzer::analyze makes, made one by one with a span
/// around each: Parser, PropTransformer::transform, Database::loadProgram,
/// Solver::solve per open call, and answerInstance readback. Returns the
/// same GroundnessResult analyze() would (its fingerprint is checked against
/// the same golden lines).
ErrorOr<GroundnessResult> decomposeGroundness(Run &R, std::string_view Source,
                                              uint64_t Op) {
  SpanRecorder *Rec = &R.Spans;
  GroundnessResult Result;
  SymbolTable Symbols;
  TermStore SrcStore;
  ErrorOr<std::vector<TermRef>> Clauses = [&] {
    ScopedSpan S(Rec, "reader.parse", Op);
    return Parser::parseProgram(Symbols, SrcStore, Source);
  }();
  if (!Clauses)
    return Clauses.getError();
  R.Counts["reader.clauses"] += Clauses->size();

  PropTransformer Transformer(Symbols);
  TermStore AbsStore;
  ErrorOr<PropProgram> Program = [&] {
    ScopedSpan S(Rec, "prop.transform", Op);
    return Transformer.transform(SrcStore, *Clauses, AbsStore);
  }();
  if (!Program)
    return Program.getError();

  Database AbsDB(Symbols);
  {
    ScopedSpan S(Rec, "engine.load", Op);
    auto Loaded = AbsDB.loadProgram(AbsStore, Program->Clauses);
    if (!Loaded)
      return Loaded.getError();
    AbsDB.tableAllPredicates();
  }

  Solver::Options EO;
  EO.EvalWorkers = 0;
  Solver Engine(AbsDB, EO);
  std::vector<std::pair<PredKey, TermRef>> OpenCalls;
  for (PredKey P : Program->Predicates) {
    SymbolId AbsSym = Transformer.abstractSymbol(P.Sym);
    std::vector<TermRef> Args;
    for (uint32_t I = 0; I < P.Arity; ++I)
      Args.push_back(Engine.store().mkVar());
    OpenCalls.emplace_back(P, P.Arity == 0
                                  ? Engine.store().mkAtom(AbsSym)
                                  : Engine.store().mkStruct(AbsSym, Args));
  }
  for (auto &[Pred, Call] : OpenCalls) {
    ScopedSpan S(Rec, "engine.solve", Op);
    Engine.solve(Call, nullptr);
  }
  if (Engine.stats().IncompleteTables)
    return Diagnostic("groundness evaluation incomplete");

  ScopedSpan Collect(Rec, "prop.collect", Op);
  Result.TableSpaceBytes = Engine.tableSpaceBytes();
  Result.Stats = Engine.stats();
  addEvalStats(R.Counts, Engine.stats());
  R.Counts["table.bytes"] += Result.TableSpaceBytes;
  R.Counts["table.peak_bytes"] += Engine.watermarks().PeakTableSpaceBytes;
  std::unordered_map<SymbolId, size_t> ByAbsSym;
  {
    ScopedSpan S(Rec, "table.readback", Op);
    for (auto &[Pred, Call] : OpenCalls) {
      PredGroundness PG;
      PG.Name = Symbols.name(Pred.Sym);
      PG.Arity = Pred.Arity;
      if (const Subgoal *SG = Engine.findSubgoal(Call)) {
        TermStore Scratch;
        for (size_t AI = 0, AE = Engine.answerCount(*SG); AI < AE; ++AI) {
          Scratch.clear();
          TermRef Ans = Engine.answerInstance(*SG, AI, Scratch);
          std::vector<TermRef> Args;
          for (uint32_t I = 0; I < Pred.Arity; ++I)
            Args.push_back(Scratch.arg(Scratch.deref(Ans), I));
          expandAnswerTuple(Scratch, Symbols, Args, PG.SuccessSet);
        }
      }
      ByAbsSym.emplace(Transformer.abstractSymbol(Pred.Sym),
                       Result.Predicates.size());
      Result.Predicates.push_back(std::move(PG));
    }
  }
  const TermStore &TS = Engine.tableStore();
  for (const Subgoal *SG : Engine.subgoals()) {
    auto It = ByAbsSym.find(SG->Pred.Sym);
    if (It == ByAbsSym.end())
      continue;
    PredGroundness &PG = Result.Predicates[It->second];
    if (SG->Pred.Arity != PG.Arity)
      continue;
    TermRef Call = TS.deref(SG->CallTerm);
    BoolTuple Pattern;
    for (uint32_t I = 0; I < PG.Arity; ++I) {
      TermRef A = TS.deref(TS.arg(Call, I));
      Pattern.push_back(TS.tag(A) == TermTag::Atom &&
                        TS.symbol(A) == Symbols.BoolTrue);
    }
    PG.CallPatterns.insert(std::move(Pattern));
  }
  for (PredGroundness &PG : Result.Predicates)
    PG.computeMeets();
  return Result;
}

/// The calls StrictnessAnalyzer::analyze makes, one span each: FLParser,
/// StrictTransformer::transform, Database::loadProgram, Solver::solve per
/// demand call, and answerInstance readback. Returns the engine counters,
/// which must equal those of analyze() on the same program.
ErrorOr<EvalStats> decomposeStrictness(Run &R, std::string_view Source,
                                       uint64_t Op) {
  SpanRecorder *Rec = &R.Spans;
  ErrorOr<FLProgram> Program = [&] {
    ScopedSpan S(Rec, "fl.parse", Op);
    return FLParser::parse(Source);
  }();
  if (!Program)
    return Program.getError();
  SymbolTable Symbols;
  StrictTransformer Transformer(Symbols);
  TermStore AbsStore;
  ErrorOr<StrictProgram> Abstract = [&] {
    ScopedSpan S(Rec, "strictness.transform", Op);
    return Transformer.transform(*Program, AbsStore);
  }();
  if (!Abstract)
    return Abstract.getError();
  Database DB(Symbols);
  {
    ScopedSpan S(Rec, "engine.load", Op);
    auto Loaded = DB.loadProgram(AbsStore, Abstract->Clauses);
    if (!Loaded)
      return Loaded.getError();
    for (const auto &[Name, Arity] : Abstract->Functions)
      DB.setTabled(Symbols.intern(Transformer.spName(Name)), Arity + 1);
  }
  Solver Engine(DB, StrictnessAnalyzer::Options().Engine);
  TermRef EAtom = Engine.store().mkAtom(Symbols.intern("e"));
  TermRef DAtom = Engine.store().mkAtom(Symbols.intern("d"));
  std::vector<TermRef> Calls;
  for (const auto &[Name, Arity] : Abstract->Functions) {
    SymbolId Sp = Symbols.intern(Transformer.spName(Name));
    for (TermRef Demand : {EAtom, DAtom}) {
      std::vector<TermRef> Args{Demand};
      for (uint32_t I = 0; I < Arity; ++I)
        Args.push_back(Engine.store().mkVar());
      Calls.push_back(Engine.store().mkStruct(Sp, Args));
      ScopedSpan S(Rec, "engine.solve", Op);
      Engine.solve(Calls.back(), nullptr);
    }
  }
  if (Engine.stats().IncompleteTables)
    return Diagnostic("strictness evaluation incomplete");
  ScopedSpan Collect(Rec, "strictness.collect", Op);
  R.Counts["table.bytes"] += Engine.tableSpaceBytes();
  R.Counts["table.peak_bytes"] += Engine.watermarks().PeakTableSpaceBytes;
  addEvalStats(R.Counts, Engine.stats());
  {
    ScopedSpan S(Rec, "table.readback", Op);
    TermStore Scratch;
    for (TermRef Call : Calls)
      if (const Subgoal *SG = Engine.findSubgoal(Call))
        for (size_t AI = 0, AE = Engine.answerCount(*SG); AI < AE; ++AI) {
          Scratch.clear();
          Engine.answerInstance(*SG, AI, Scratch);
        }
  }
  return Engine.stats();
}

/// Per-layer metrics shared by the workloads that run the Solver in
/// decomposed ops: span self times and counters, per op.
void engineLayerMetrics(Run &R, double Ops) {
  auto Tot = R.Spans.totals();
  auto Self = [&](const char *N) { return ratio(Tot[N].SelfNs, Ops); };
  R.Layer["reader.ns"] = Self("reader.parse");
  R.Layer["reader.clauses"] = ratio(R.count("reader.clauses"), Ops);
  R.Layer["prop.transform_ns"] = Self("prop.transform");
  R.Layer["prop.collect_ns"] = Self("prop.collect");
  R.Layer["fl.parse_ns"] = Self("fl.parse");
  R.Layer["strictness.transform_ns"] = Self("strictness.transform");
  R.Layer["engine.load_ns"] = Self("engine.load");
  R.Layer["engine.solve_ns"] = Self("engine.solve");
  R.Layer["engine.ns_per_resolution"] =
      ratio(Tot["engine.solve"].SelfNs, R.count("engine.clause_resolutions"));
  R.Layer["table.readback_ns"] = Self("table.readback");
}

/// Counter-based engine and table metrics (per op), from R.Counts.
void counterLayerMetrics(Run &R, double Ops) {
  auto Get = [&](const char *N) { return R.count(N); };
  auto Per = [&](const char *N) { return ratio(Get(N), Ops); };
  R.Layer["engine.clause_resolutions"] = Per("engine.clause_resolutions");
  R.Layer["engine.tabled_calls"] = Per("engine.tabled_calls");
  R.Layer["engine.subgoals_created"] = Per("engine.subgoals_created");
  R.Layer["engine.answers_recorded"] = Per("engine.answers_recorded");
  R.Layer["engine.answer_useful_ratio"] =
      ratio(Get("engine.answers_recorded"),
            Get("engine.answers_recorded") + Get("engine.answers_duplicate"));
  R.Layer["engine.index_filtered_ratio"] =
      ratio(Get("engine.index_filtered"),
            Get("engine.index_filtered") + Get("engine.clause_resolutions"));
  R.Layer["engine.fixpoint_rounds"] = Per("engine.fixpoint_rounds");
  R.Layer["engine.builtin_evals"] = Per("engine.builtin_evals");
  R.Layer["table.trie_nodes_created"] = Per("table.trie_nodes_created");
  R.Layer["table.trie_hit_ratio"] =
      ratio(Get("table.trie_hits"),
            Get("table.trie_hits") + Get("table.trie_misses"));
  R.Layer["table.frontier_bytes_freed"] = Per("table.frontier_bytes_freed");
}

//===--------------------------------------------------------------------===//
// prop-serial, with the depth-k layer in its traced run
//===--------------------------------------------------------------------===//

/// Counts one analysis and checks it: it must succeed, be complete, and
/// fingerprint to the golden lines of its program.
template <typename ResultT>
void checkAnalysis(Run &R, const char *Kind, const char *Program,
                   const ErrorOr<ResultT> &Res,
                   std::vector<std::string> (*Fingerprint)(const ResultT &)) {
  ++R.Attempted;
  if (!Res)
    return R.fail(std::string(Program) + ": " + Res.getError().str());
  if (Res->Incomplete)
    return R.fail(std::string(Program) + ": incomplete");
  std::string Diff = R.Ref.check(Kind, Program, Fingerprint(*Res));
  if (!Diff.empty())
    R.fail(Diff);
}

ErrorOr<GroundnessResult> analyzeGroundness(const CorpusProgram &P) {
  SymbolTable Symbols;
  return GroundnessAnalyzer(Symbols, groundnessOptions()).analyze(P.Source);
}

ErrorOr<DepthKResult> analyzeDepthK(const CorpusProgram &P) {
  SymbolTable Symbols;
  return DepthKAnalyzer(Symbols).analyze(P.Source);
}

/// The depth-k layer, measured in prop-serial's traced run: DepthKAnalyzer
/// (k=2, default widening) over the same 12 programs, DepthKPasses passes in
/// seeded order, each analysis checked against its golden depth-k lines.
void measureDepthK(Run &R, const std::vector<CorpusProgram> &Corpus) {
  std::mt19937_64 Rng(R.Opt.Seed);
  std::vector<size_t> Order(Corpus.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::map<std::string, double> C;
  for (int Pass = 0; Pass < DepthKPasses; ++Pass) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t I : Order) {
      const CorpusProgram &P = Corpus[I];
      uint64_t Op = R.NextOp++;
      ErrorOr<DepthKResult> Res = [&] {
        ScopedSpan S(&R.Spans, "depthk.analyze", Op);
        return analyzeDepthK(P);
      }();
      if (Res) {
        C["producer_runs"] += Res->FixpointRounds;
        C["call_patterns"] += Res->NumCallPatterns;
        C["answers"] += Res->NumAnswers;
        C["widenings"] += Res->Widenings;
        C["table_bytes"] += Res->TableSpaceBytes;
      }
      checkAnalysis(R, "depthk", P.Name, Res, fingerprintDepthK);
    }
  }
  double Ops = static_cast<double>(DepthKPasses * Corpus.size());
  uint64_t AnalyzeNs = R.Spans.totals()["depthk.analyze"].SelfNs;
  R.Layer["depthk.analyze_ns"] = ratio(AnalyzeNs, Ops);
  R.Layer["depthk.producer_runs"] = ratio(C["producer_runs"], Ops);
  R.Layer["depthk.ns_per_producer_run"] = ratio(AnalyzeNs, C["producer_runs"]);
  R.Layer["depthk.call_patterns"] = ratio(C["call_patterns"], Ops);
  R.Layer["depthk.answers"] = ratio(C["answers"], Ops);
  R.Layer["depthk.widenings"] = ratio(C["widenings"], Ops);
  R.Layer["depthk.table_bytes"] = ratio(C["table_bytes"], DepthKPasses);
}

void runPropSerial(Run &R) {
  const std::vector<CorpusProgram> &Corpus = prologBenchmarks();
  // Set-up is one warm-up pass, so setup_s is the same engine work as the
  // timed loop and drifts with it.
  setupReferences(R);
  timeSetup(R, [&] {
    double Sec = 0;
    for (const CorpusProgram &P : Corpus) {
      uint64_t Start = nowNs();
      ErrorOr<GroundnessResult> Res = analyzeGroundness(P);
      Sec += secondsSince(Start);
      checkAnalysis(R, "groundness", P.Name, Res, fingerprintGroundness);
    }
    return Sec;
  });
  runPasses(R, Corpus.size(), [&](size_t I, bool Traced) {
    const CorpusProgram &P = Corpus[I];
    uint64_t Op = R.NextOp++;
    ErrorOr<GroundnessResult> Res = Diagnostic("not run");
    uint64_t Start = nowNs();
    if (Traced) {
      ScopedSpan S(&R.Spans, "prop.op", Op);
      Res = decomposeGroundness(R, P.Source, Op);
    } else {
      Res = analyzeGroundness(P);
    }
    double Sec = (nowNs() - Start) / 1e9;
    R.record(Traced, Sec, 1);
    if (!Traced)
      R.read(P.Name, Sec * 1e3);
    checkAnalysis(R, "groundness", P.Name, Res, fingerprintGroundness);
  });
  if (!R.Opt.Trace)
    return;
  double Ops = static_cast<double>(R.TracedOps);
  double Passes = Ops / Corpus.size();
  engineLayerMetrics(R, Ops);
  counterLayerMetrics(R, Ops);
  R.Layer["table.bytes"] = ratio(R.Counts["table.bytes"], Passes);
  R.Layer["table.peak_bytes"] = ratio(R.Counts["table.peak_bytes"], Passes);
  double GaiaPassNs = ratio(R.GaiaNs, R.GaiaRuns) * Corpus.size();
  double EnginePassNs =
      ratio(R.UntracedSeconds * 1e9, R.UntracedOps) * Corpus.size();
  R.Layer["prop.engine_over_gaia"] = ratio(EnginePassNs, GaiaPassNs);
  measureDepthK(R, Corpus);
}

//===--------------------------------------------------------------------===//
// fleet-par
//===--------------------------------------------------------------------===//

const char *goldenKind(CorpusJobKind K) {
  return K == CorpusJobKind::Strictness ? "strictness" : "groundness";
}

void checkFleet(Run &R, const std::vector<CorpusJob> &Jobs,
                const std::vector<CorpusJobResult> &Results) {
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const CorpusJobResult &Res = Results[I];
    ++R.Attempted;
    std::string Name = Jobs[I].Program->Name;
    if (!Res.Ok) {
      R.fail(Name + ": " + Res.Error);
    } else if (Res.Incomplete) {
      R.fail(Name + ": incomplete");
    } else {
      std::string Diff =
          R.Ref.check(goldenKind(Jobs[I].Kind), Name, Res.Fingerprints);
      if (!Diff.empty())
        R.fail(Diff);
    }
  }
}

void runFleetPar(Run &R) {
  size_t Workers = std::min<size_t>(
      4, std::max<unsigned>(1, std::thread::hardware_concurrency()));
  std::vector<CorpusJob> Jobs =
      CorpusScheduler::kindJobs(CorpusJobKind::Groundness);
  for (const CorpusJob &J :
       CorpusScheduler::kindJobs(CorpusJobKind::Strictness))
    Jobs.push_back(J);
  CorpusScheduler::Options SO;
  SO.Jobs = Workers;
  SO.Groundness = groundnessOptions();
  std::unique_ptr<CorpusScheduler> Fleet;
  setupReferences(R);
  timeSetup(R, [&] {
    Fleet.reset();
    uint64_t Start = nowNs();
    Fleet = std::make_unique<CorpusScheduler>(SO);
    std::vector<CorpusJobResult> Results = Fleet->run(Jobs); // Warm-up run.
    double Sec = secondsSince(Start);
    checkFleet(R, Jobs, Results);
    return Sec;
  });

  std::mt19937_64 Rng(R.Opt.Seed);
  std::vector<double> WallNs, CriticalNs;
  double JobSecondsPar = 0;
  uint64_t Steals = 0, FleetRuns = 0;
  uint64_t Start = nowNs();
  for (uint64_t FleetRun = 0;; ++FleetRun) {
    double Elapsed = (nowNs() - Start) / 1e9;
    if ((Elapsed >= R.Opt.Seconds &&
         R.UntracedOps + R.TracedOps >= R.Spec->MinOps) ||
        Elapsed >= HardCapSeconds)
      break;
    std::shuffle(Jobs.begin(), Jobs.end(), Rng);
    bool Traced = R.Opt.Trace && FleetRun % 2 == 1;
    uint64_t Op = R.NextOp++;
    uint64_t T0 = nowNs();
    std::vector<CorpusJobResult> Results = [&] {
      ScopedSpan S(R.rec(Traced), "par.run", Op);
      return Fleet->run(Jobs);
    }();
    double Sec = (nowNs() - T0) / 1e9;
    double Critical = 0;
    for (const CorpusJobResult &Res : Results) {
      Critical = std::max(Critical, Res.Seconds);
      JobSecondsPar += Res.Seconds;
      if (!Traced)
        R.read(Res.Program, Res.Seconds * 1e3);
    }
    R.record(Traced, Sec, Jobs.size());
    R.window(Traced, Jobs.size(), Sec);
    WallNs.push_back(Sec * 1e9);
    CriticalNs.push_back(Critical * 1e9);
    Steals += Fleet->lastStealCount();
    ++FleetRuns;
    checkFleet(R, Jobs, Results);
  }
  std::printf("# fleet-par: %zu workers, %" PRIu64 " fleet runs\n", Workers,
              FleetRuns);
  if (!R.Opt.Trace)
    return;

  // The same jobs run serially, for job_inflation: contention shows as jobs
  // taking longer at N workers than alone.
  CorpusScheduler::Options Serial = SO;
  Serial.Jobs = 0;
  CorpusScheduler SerialFleet(Serial);
  double JobSecondsSerial = 0;
  constexpr int SerialRuns = 3;
  for (int I = 0; I < SerialRuns; ++I) {
    std::vector<CorpusJobResult> Results = SerialFleet.run(Jobs);
    for (const CorpusJobResult &Res : Results)
      JobSecondsSerial += Res.Seconds;
    checkFleet(R, Jobs, Results);
  }

  // One decomposed pass over the 22 jobs attributes the fleet's work to
  // reader/prop/fl/strictness/engine/table.
  std::map<std::string, EvalStats> StrictRef;
  for (const CorpusProgram &P : flBenchmarks()) {
    StrictnessAnalyzer A;
    auto Res = A.analyze(P.Source);
    if (Res)
      StrictRef[P.Name] = Res->Stats;
  }
  double Decomposed = 0;
  for (const CorpusJob &J : Jobs) {
    uint64_t Op = R.NextOp++;
    ++Decomposed;
    std::string Name = J.Program->Name;
    if (J.Kind == CorpusJobKind::Groundness) {
      ErrorOr<GroundnessResult> Res = [&] {
        ScopedSpan S(&R.Spans, "prop.op", Op);
        return decomposeGroundness(R, J.Program->Source, Op);
      }();
      checkAnalysis(R, "groundness", J.Program->Name, Res,
                    fingerprintGroundness);
      continue;
    }
    ++R.Attempted;
    ErrorOr<EvalStats> Res = [&] {
      ScopedSpan S(&R.Spans, "strictness.op", Op);
      return decomposeStrictness(R, J.Program->Source, Op);
    }();
    auto It = StrictRef.find(Name);
    if (!Res)
      R.fail(Name + ": " + Res.getError().str());
    else if (It == StrictRef.end() ||
             It->second.ClauseResolutions != Res->ClauseResolutions ||
             It->second.AnswersRecorded != Res->AnswersRecorded ||
             It->second.SubgoalsCreated != Res->SubgoalsCreated)
      R.fail(Name + ": decomposed strictness differs from analyze()");
  }
  engineLayerMetrics(R, Decomposed);
  counterLayerMetrics(R, Decomposed);
  R.Layer["table.bytes"] = R.Counts["table.bytes"];
  R.Layer["table.peak_bytes"] = R.Counts["table.peak_bytes"];

  uint64_t ParNs = R.Spans.totals()["par.run"].TotalNs;
  uint64_t TracedRuns = R.Spans.totals()["par.run"].Count;
  double WallSum = std::accumulate(WallNs.begin(), WallNs.end(), 0.0);
  R.Layer["par.wall_ns"] = ratio(ParNs, TracedRuns);
  R.Layer["par.utilization"] = ratio(JobSecondsPar * 1e9, WallSum * Workers);
  R.Layer["par.steals"] = ratio(Steals, FleetRuns);
  R.Layer["par.critical_job_ns"] = median(CriticalNs);
  R.Layer["par.job_inflation"] =
      ratio(JobSecondsPar / FleetRuns, JobSecondsSerial / SerialRuns);
}

//===--------------------------------------------------------------------===//
// service-edit
//===--------------------------------------------------------------------===//

std::string jsonString(std::string_view S) {
  std::string Out = "\"";
  JsonWriter::escape(Out, S);
  return Out + "\"";
}

/// The served program: press2's Figure-1 abstract program as clause texts,
/// its predicates, and the call graph that bounds each edit's changed cone.
struct ServiceProgramText {
  struct Pred {
    std::string Concrete; ///< "name/arity" in the golden file.
    std::string Goal;     ///< Open call, e.g. "gp_p(A0,A1)".
    unsigned Arity = 0;
    std::string Success;  ///< Golden success set.
  };
  std::vector<Pred> Preds;
  std::vector<std::string> Clauses; ///< Rendered abstract clauses.
  std::vector<size_t> ClausePred;   ///< Head predicate of each clause.
  std::vector<std::vector<size_t>> Cone; ///< Pred -> preds depending on it.
  std::string Consult;              ///< Table directives + all clauses.
};

/// Collects the gp_ predicates called in an abstract clause body.
void bodyCallees(const TermStore &S, const SymbolTable &Symbols, TermRef T,
                 std::vector<PredKey> &Out) {
  T = S.deref(T);
  if (S.tag(T) != TermTag::Struct && S.tag(T) != TermTag::Atom)
    return;
  const std::string &Name = Symbols.name(S.symbol(T));
  uint32_t Arity = S.tag(T) == TermTag::Struct ? S.arity(T) : 0;
  if (Name == "," && Arity == 2) {
    bodyCallees(S, Symbols, S.arg(T, 0), Out);
    bodyCallees(S, Symbols, S.arg(T, 1), Out);
  } else if (Name.compare(0, 3, "gp_") == 0) {
    Out.push_back({S.symbol(T), Arity});
  }
}

ErrorOr<ServiceProgramText> buildServiceProgram(const Golden &G) {
  const CorpusProgram *P = findBenchmark(ServiceProgram);
  if (!P)
    return Diagnostic("service program missing from the corpus");
  SymbolTable Symbols;
  TermStore AbsStore;
  PropTransformer Transformer(Symbols);
  auto Program = Transformer.transformText(P->Source, AbsStore);
  if (!Program)
    return Program.getError();
  ServiceProgramText Out;
  std::unordered_map<PredKey, size_t, PredKeyHash> Index;
  for (PredKey K : Program->Predicates) {
    ServiceProgramText::Pred Pr;
    Pr.Concrete = Symbols.name(K.Sym) + "/" + std::to_string(K.Arity);
    Pr.Arity = K.Arity;
    Pr.Goal = Transformer.abstractName(Symbols.name(K.Sym));
    Out.Consult += ":- table " + Pr.Goal + "/" + std::to_string(K.Arity) +
                   ".\n";
    if (K.Arity) {
      Pr.Goal += "(";
      for (uint32_t I = 0; I < K.Arity; ++I)
        Pr.Goal += (I ? ",A" : "A") + std::to_string(I);
      Pr.Goal += ")";
    }
    Pr.Success = G.successSet(ServiceProgram, Pr.Concrete);
    if (Pr.Success.empty())
      return Diagnostic("no golden success set for " + Pr.Concrete);
    Index[{Transformer.abstractSymbol(K.Sym), K.Arity}] = Out.Preds.size();
    Out.Preds.push_back(std::move(Pr));
  }
  std::vector<std::set<size_t>> Callers(Out.Preds.size());
  SymbolId Neck = Symbols.intern(":-");
  for (TermRef C : Program->Clauses) {
    TermRef T = AbsStore.deref(C);
    bool Rule = AbsStore.tag(T) == TermTag::Struct &&
                AbsStore.symbol(T) == Neck && AbsStore.arity(T) == 2;
    TermRef Head = AbsStore.deref(Rule ? AbsStore.arg(T, 0) : T);
    PredKey HK{AbsStore.symbol(Head), AbsStore.tag(Head) == TermTag::Struct
                                          ? AbsStore.arity(Head)
                                          : 0};
    auto H = Index.find(HK);
    if (H == Index.end())
      return Diagnostic("abstract clause of an unknown predicate");
    std::vector<PredKey> Callees;
    if (Rule)
      bodyCallees(AbsStore, Symbols, AbsStore.arg(T, 1), Callees);
    for (PredKey K : Callees)
      if (auto It = Index.find(K); It != Index.end())
        Callers[It->second].insert(H->second);
    Out.Clauses.push_back(TermWriter::toString(Symbols, AbsStore, T) + ".");
    Out.ClausePred.push_back(H->second);
    Out.Consult += Out.Clauses.back() + "\n";
  }
  // Cone(p): p and every predicate that transitively calls it.
  for (size_t P0 = 0; P0 < Out.Preds.size(); ++P0) {
    std::vector<size_t> Cone{P0};
    std::vector<bool> Seen(Out.Preds.size(), false);
    Seen[P0] = true;
    for (size_t I = 0; I < Cone.size(); ++I)
      for (size_t C : Callers[Cone[I]])
        if (!Seen[C]) {
          Seen[C] = true;
          Cone.push_back(C);
        }
    Out.Cone.push_back(std::move(Cone));
  }
  return Out;
}

/// Checks one response line; returns an error message or "".
std::string checkReply(const std::string &Reply, JsonValue &Out) {
  auto J = JsonValue::parse(Reply);
  if (!J)
    return "unparsable reply " + Reply;
  Out = std::move(*J);
  const JsonValue *Ok = Out.find("ok");
  if (!Ok || !Ok->asBool())
    return "request failed: " + Reply;
  return "";
}

/// Checks a query reply against the golden success set of \p P.
std::string checkQueryReply(const std::string &Reply,
                            const ServiceProgramText::Pred &P,
                            JsonValue &Out) {
  std::string Err = checkReply(Reply, Out);
  if (!Err.empty())
    return Err;
  const JsonValue *Sols = Out.find("solutions");
  if (!Sols || !Sols->isArray())
    return "query reply without solutions: " + Reply;
  if (Out.numberOr("total", -1) != static_cast<double>(Sols->items().size()))
    return P.Goal + ": solutions truncated";
  const JsonValue *Trunc = Out.find("truncated");
  const JsonValue *Inc = Out.find("incomplete");
  if ((Trunc && Trunc->asBool()) || (Inc && Inc->asBool()))
    return P.Goal + ": truncated or incomplete";
  std::vector<std::string> Solutions;
  for (const JsonValue &S : Sols->items())
    Solutions.push_back(S.asString());
  std::string Table;
  if (!solutionsTruthTable(Solutions, P.Arity, Table, Err))
    return P.Goal + ": " + Err;
  if (Table != P.Success)
    return P.Goal + ": answers " + Table + " golden " + P.Success;
  return "";
}

std::string queryLine(const ServiceProgramText::Pred &P) {
  return "{\"op\":\"query\",\"goal\":" + jsonString(P.Goal) +
         ",\"max_solutions\":100000}";
}

void runServiceEdit(Run &R) {
  std::unique_ptr<AnalysisSession> Session;
  ServiceProgramText Prog;
  auto Request = [&](const std::string &Line) {
    bool Shutdown = false;
    return handleRequestLine(*Session, Line, Shutdown);
  };
  setupReferences(R);
  // The served program and its requests are the benchmark's inputs, made
  // once, outside the timed set-up.
  auto Built = buildServiceProgram(R.Ref);
  if (!Built) {
    std::fprintf(stderr, "lpabench: %s\n", Built.getError().str().c_str());
    std::exit(2);
  }
  Prog = std::move(*Built);
  const std::string ConsultLine =
      "{\"op\":\"consult\",\"program\":" + jsonString(Prog.Consult) + "}";
  std::vector<std::string> ColdQueries;
  for (const ServiceProgramText::Pred &P : Prog.Preds)
    ColdQueries.push_back(queryLine(P));
  timeSetup(R, [&] {
    Session.reset();
    uint64_t Start = nowNs();
    // lpa_serve's default session options; the daemon's stderr logger is
    // left out so the benchmark times the service, not terminal output.
    AnalysisSession::Options SO;
    SO.SampleLane = "serve";
    Session = std::make_unique<AnalysisSession>(SO);
    std::string Consulted = Request(ConsultLine);
    // Cold evaluation of every open call, so timed reads start warm.
    std::vector<std::string> Replies;
    for (const std::string &Line : ColdQueries)
      Replies.push_back(Request(Line));
    double Sec = secondsSince(Start);
    R.Attempted += 1 + Replies.size();
    JsonValue J;
    std::string Err = checkReply(Consulted, J);
    if (!Err.empty())
      R.fail("consult: " + Err);
    for (size_t I = 0; Err.empty() && I < Replies.size(); ++I) {
      std::string QErr = checkQueryReply(Replies[I], Prog.Preds[I], J);
      if (!QErr.empty())
        R.fail(QErr);
    }
    return Sec;
  });
  if (R.Failed)
    return;

  std::mt19937_64 Rng(R.Opt.Seed);
  std::uniform_real_distribution<double> Coin(0, 1);
  std::uniform_int_distribution<size_t> PickPred(0, Prog.Preds.size() - 1);
  std::uniform_int_distribution<size_t> PickClause(0, Prog.Clauses.size() - 1);
  const EvalStats Before = Session->solver().stats();
  const uint64_t EventsBefore = Session->flightRecorder().totalRecorded();
  uint64_t Requests = 0, Writes = 0, Reads = 0, WarmHits = 0, ColdMisses = 0;
  uint64_t Invalidated = 0, Survived = 0;
  double EngineWallNs = 0, QueryNs = 0, QueryCount = 0;
  double ProbeTableBytes = 0, ProbePeakTableBytes = 0;
  double WindowSec = 0;
  uint64_t WindowOps = 0, WindowRequests = 0;
  uint64_t Start = nowNs();
  for (uint64_t I = 0;; ++I) {
    double Elapsed = (nowNs() - Start) / 1e9;
    if ((Elapsed >= R.Opt.Seconds && Reads >= R.Spec->MinOps &&
         Writes >= R.Spec->MinWrites) ||
        Elapsed >= HardCapSeconds)
      break;
    bool Traced = R.Opt.Trace && (I / ServiceWindow) % 2 == 1;
    SpanRecorder *Rec = R.rec(Traced);
    uint64_t Op = R.NextOp++;
    ++R.Attempted;
    bool Write = Coin(Rng) < ServiceWriteShare;
    std::vector<std::pair<std::string, const char *>> Replies;
    size_t Target;
    uint64_t T0 = nowNs(), QueryStart = 0;
    if (Write) {
      size_t C = PickClause(Rng);
      const std::vector<size_t> &Cone = Prog.Cone[Prog.ClausePred[C]];
      Target = Cone[std::uniform_int_distribution<size_t>(
          0, Cone.size() - 1)(Rng)];
      ScopedSpan W(Rec, "srv.write", Op);
      {
        ScopedSpan S(Rec, "srv.retract", Op);
        Replies.emplace_back(
            Request("{\"op\":\"retract\",\"clause\":" +
                    jsonString(Prog.Clauses[C]) + "}"),
            "retract");
      }
      {
        ScopedSpan S(Rec, "srv.consult", Op);
        Replies.emplace_back(
            Request("{\"op\":\"consult\",\"program\":" +
                    jsonString(Prog.Clauses[C]) + "}"),
            "consult");
      }
      QueryStart = nowNs();
      ScopedSpan S(Rec, "srv.query", Op);
      Replies.emplace_back(Request(queryLine(Prog.Preds[Target])), "query");
    } else {
      Target = PickPred(Rng);
      QueryStart = T0;
      ScopedSpan S(Rec, "srv.query", Op);
      Replies.emplace_back(Request(queryLine(Prog.Preds[Target])), "query");
    }
    uint64_t T1 = nowNs();
    double Ms = (T1 - T0) / 1e6;
    Requests += Replies.size();
    R.record(Traced, Ms / 1e3, Replies.size());
    if (!Traced)
      (Write ? R.WriteMs : R.ReadMs).push_back(Ms);
    WindowSec += Ms / 1e3;
    WindowRequests += Replies.size();
    if (++WindowOps == ServiceWindow) {
      R.window(Traced, WindowRequests, WindowSec);
      WindowSec = 0;
      WindowOps = WindowRequests = 0;
    }
    (Write ? Writes : Reads) += 1;

    // Everything below is outside the timed region.
    if (Write && Writes == ServiceMemoryWrites) {
      R.PeakRssMb = peakRssMb();
      ProbeTableBytes = Session->solver().tableSpaceBytes();
      ProbePeakTableBytes =
          Session->solver().watermarks().PeakTableSpaceBytes;
    }
    for (auto &[Reply, Kind] : Replies) {
      JsonValue J;
      bool IsQuery = std::strcmp(Kind, "query") == 0;
      std::string Err = IsQuery
                            ? checkQueryReply(Reply, Prog.Preds[Target], J)
                            : checkReply(Reply, J);
      if (Err.empty() && std::strcmp(Kind, "retract") == 0 &&
          J.numberOr("retracted", 0) != 1)
        Err = "retract removed no clause";
      if (Err.empty() && std::strcmp(Kind, "consult") == 0 &&
          J.numberOr("clauses", 0) != 1)
        Err = "consult loaded no clause";
      if (!Err.empty()) {
        R.fail(Err);
        break;
      }
      if (IsQuery) {
        WarmHits += static_cast<uint64_t>(J.numberOr("warm_hits", 0));
        ColdMisses += static_cast<uint64_t>(J.numberOr("cold_misses", 0));
        EngineWallNs += J.numberOr("wall_ms", 0) * 1e6;
        QueryNs += T1 - QueryStart;
        ++QueryCount;
      } else {
        Invalidated += static_cast<uint64_t>(
            J.numberOr("tables_invalidated", 0));
        Survived += static_cast<uint64_t>(J.numberOr("tables_survived", 0));
      }
    }
  }
  std::printf("# service: %" PRIu64 " reads, %" PRIu64 " writes, %" PRIu64
              " requests, %zu predicates, %zu clauses\n",
              Reads, Writes, Requests, Prog.Preds.size(),
              Prog.Clauses.size());
  // The figures at the probe are the reported ones; the end figures show
  // how far the run's later writes grew the arena beyond them.
  std::printf("# service memory: after %" PRIu64
              " writes peak RSS %.3f MB, table bytes %.0f; at the end (%" PRIu64
              " writes) peak RSS %.3f MB, table bytes %zu\n",
              ServiceMemoryWrites, R.PeakRssMb, ProbeTableBytes, Writes,
              peakRssMb(), Session->solver().tableSpaceBytes());
  if (!R.Opt.Trace)
    return;

  double Ops = static_cast<double>(Reads + Writes);
  addEvalStats(R.Counts, Session->solver().stats());
  addEvalStats(R.Counts, Before, -1);
  counterLayerMetrics(R, Ops);
  auto Tot = R.Spans.totals();
  auto Mean = [&](const char *N) {
    return ratio(Tot[N].TotalNs, Tot[N].Count);
  };
  R.Layer["engine.solve_ns"] = ratio(EngineWallNs, QueryCount);
  R.Layer["engine.ns_per_resolution"] =
      ratio(EngineWallNs, R.Counts["engine.clause_resolutions"]);
  R.Layer["table.bytes"] = ProbeTableBytes;
  R.Layer["table.peak_bytes"] = ProbePeakTableBytes;
  R.Layer["srv.query_ns"] = Mean("srv.query");
  R.Layer["srv.retract_ns"] = Mean("srv.retract");
  R.Layer["srv.consult_ns"] = Mean("srv.consult");
  R.Layer["srv.protocol_overhead_ns"] =
      ratio(QueryNs - EngineWallNs, QueryCount);
  R.Layer["srv.warm_hit_rate"] = ratio(WarmHits, WarmHits + ColdMisses);
  R.Layer["srv.tables_invalidated_per_write"] = ratio(Invalidated, Writes);
  R.Layer["srv.tables_survived_ratio"] =
      ratio(Survived, Survived + Invalidated);
  R.Layer["obs.recorder_events_per_request"] = ratio(
      Session->flightRecorder().totalRecorded() - EventsBefore, Requests);
  R.Layer["srv.write_p50_ms"] = median(R.WriteMs);
  R.Layer["srv.write_tail_ms"] = percentile(R.WriteMs, R.Spec->WriteTailPct);
}

//===--------------------------------------------------------------------===//
// Golden generation, reporting, main
//===--------------------------------------------------------------------===//

int writeGolden(const std::string &Dir) {
  using Programs =
      std::vector<std::pair<std::string, std::vector<std::string>>>;
  Programs Ground, DepthK, Strict;
  for (const CorpusProgram &P : prologBenchmarks()) {
    SymbolTable S1, S2;
    auto G = GroundnessAnalyzer(S1, groundnessOptions()).analyze(P.Source);
    auto D = DepthKAnalyzer(S2).analyze(P.Source);
    if (!G || !D || G->Incomplete || D->Incomplete) {
      std::fprintf(stderr, "lpabench: %s failed\n", P.Name);
      return 1;
    }
    Ground.emplace_back(P.Name, fingerprintGroundness(*G));
    DepthK.emplace_back(P.Name, fingerprintDepthK(*D));
  }
  for (const CorpusProgram &P : flBenchmarks()) {
    auto S = StrictnessAnalyzer().analyze(P.Source);
    if (!S || S->Incomplete) {
      std::fprintf(stderr, "lpabench: %s failed\n", P.Name);
      return 1;
    }
    Strict.emplace_back(P.Name, fingerprintStrictness(*S));
  }
  bool Ok = Golden::write(Dir, "groundness", Ground) &&
            Golden::write(Dir, "depthk", DepthK) &&
            Golden::write(Dir, "strictness", Strict);
  return Ok ? 0 : 1;
}

/// The per-layer metrics and their units. Each is reported on every
/// workload, as 0 where the workload does not enter that layer (NOTES.md
/// lists which layers each workload exercises).
constexpr std::pair<const char *, const char *> LayerMetrics[] = {
    {"reader.ns", "ns"},
    {"reader.clauses", "count"},
    {"prop.transform_ns", "ns"},
    {"prop.collect_ns", "ns"},
    {"fl.parse_ns", "ns"},
    {"strictness.transform_ns", "ns"},
    {"engine.load_ns", "ns"},
    {"engine.solve_ns", "ns"},
    {"engine.clause_resolutions", "count"},
    {"engine.ns_per_resolution", "ns"},
    {"engine.tabled_calls", "count"},
    {"engine.subgoals_created", "count"},
    {"engine.answers_recorded", "count"},
    {"engine.answer_useful_ratio", "ratio"},
    {"engine.index_filtered_ratio", "ratio"},
    {"engine.fixpoint_rounds", "count"},
    {"engine.builtin_evals", "count"},
    {"table.trie_nodes_created", "count"},
    {"table.trie_hit_ratio", "ratio"},
    {"table.bytes", "bytes"},
    {"table.peak_bytes", "bytes"},
    {"table.frontier_bytes_freed", "bytes"},
    {"table.readback_ns", "ns"},
    {"depthk.analyze_ns", "ns"},
    {"depthk.producer_runs", "count"},
    {"depthk.ns_per_producer_run", "ns"},
    {"depthk.call_patterns", "count"},
    {"depthk.answers", "count"},
    {"depthk.widenings", "count"},
    {"depthk.table_bytes", "bytes"},
    {"par.wall_ns", "ns"},
    {"par.utilization", "ratio"},
    {"par.steals", "count"},
    {"par.critical_job_ns", "ns"},
    {"par.job_inflation", "ratio"},
    {"srv.query_ns", "ns"},
    {"srv.retract_ns", "ns"},
    {"srv.consult_ns", "ns"},
    {"srv.protocol_overhead_ns", "ns"},
    {"srv.warm_hit_rate", "ratio"},
    {"srv.tables_invalidated_per_write", "count"},
    {"srv.tables_survived_ratio", "ratio"},
    {"srv.write_p50_ms", "ms"},
    {"srv.write_tail_ms", "ms"},
    {"obs.recorder_events_per_request", "count"},
    {"baseline.gaia_ns", "ns"},
    {"prop.engine_over_gaia", "ratio"},
    {"bench.trace_overhead_pct", "%"},
};

void printJson(const Run &R, const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += R.Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g", Metrics[I].Value);
    if (I)
      Out += ", ";
    Out += "\"" + Metrics[I].Name + "\": {\"value\": " + Num +
           ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

/// Median latency of one operation. On the batch workloads every pass runs
/// each program once, so the sample is a mix of one narrow peak per program
/// and its plain median falls between two peaks, on the slowest samples of
/// one program. The median over programs of each program's median is the
/// same "typical analysis" without that extreme-value noise.
double typicalMs(const Run &R) {
  if (R.ItemMs.empty())
    return median(R.ReadMs);
  std::vector<double> PerItem;
  for (const auto &[Item, Ms] : R.ItemMs)
    PerItem.push_back(median(Ms));
  return median(PerItem);
}

std::vector<Metric> endToEnd(const Run &R) {
  double Tail = R.Spec->TailPct;
  std::printf("# %s: %zu read samples, tail = p%g with %zu samples beyond\n",
              R.Spec->Name, R.ReadMs.size(), Tail,
              beyond(R.ReadMs.size(), Tail));
  if (!R.ItemMs.empty()) {
    std::string Line = "# per-program median ms:";
    for (const auto &[Item, Ms] : R.ItemMs) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf), " %s %.3f", Item.c_str(), median(Ms));
      Line += Buf;
    }
    std::printf("%s\n", Line.c_str());
  }
  if (!R.WriteMs.empty()) {
    double WTail = R.Spec->WriteTailPct;
    std::printf("# %s: write_p50_ms %.4f, write_tail_ms (p%g, %zu samples, "
                "%zu beyond) %.4f\n",
                R.Spec->Name, median(R.WriteMs), WTail, R.WriteMs.size(),
                beyond(R.WriteMs.size(), WTail),
                percentile(R.WriteMs, WTail));
  }
  return {
      {"setup_s", median(R.SetupSeconds), "s"},
      {"ops_per_s", median(R.WindowOpsPerS), "1/s"},
      {"read_p50_ms", typicalMs(R), "ms"},
      {"read_tail_ms", percentile(R.ReadMs, Tail), "ms"},
      {"peak_rss_mb", R.PeakRssMb > 0 ? R.PeakRssMb : peakRssMb(), "MB"},
  };
}

std::vector<Metric> perLayer(Run &R) {
  double Untraced = median(R.WindowOpsPerS);
  double Traced = median(R.TracedWindowOpsPerS);
  R.Layer["baseline.gaia_ns"] = ratio(R.GaiaNs, R.GaiaRuns);
  R.Layer["bench.trace_overhead_pct"] =
      100.0 * ratio(Untraced - Traced, Untraced);
  std::printf("# tracing overhead: untraced %.3f ops/s, traced %.3f ops/s\n",
              Untraced, Traced);
  std::printf("# self time by span:\n");
  std::string Report = R.Spans.report();
  size_t Pos = 0;
  while (Pos < Report.size()) {
    size_t End = Report.find('\n', Pos);
    std::printf("#   %s\n", Report.substr(Pos, End - Pos).c_str());
    Pos = End + 1;
  }
  std::vector<Metric> Out;
  for (const auto &[Name, Unit] : LayerMetrics)
    Out.push_back({Name, R.Layer[Name], Unit});
  return Out;
}

int usage() {
  std::fprintf(stderr,
               "usage: lpabench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--golden-dir DIR] [--trace-out FILE]\n"
               "       lpabench --write-golden DIR\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string_view A = argv[I];
    if (I + 1 >= argc)
      return usage();
    const char *V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--golden-dir")
      O.GoldenDir = V;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else if (A == "--write-golden")
      O.WriteGolden = V;
    else
      return usage();
  }
  if (!O.WriteGolden.empty())
    return writeGolden(O.WriteGolden);

  Run R;
  R.Opt = O;
  for (const WorkloadSpec &W : Workloads)
    if (O.Workload == W.Name)
      R.Spec = &W;
  if (!R.Spec || !(O.Seconds > 0))
    return usage();

  if (O.Workload == "prop-serial")
    runPropSerial(R);
  else if (O.Workload == "fleet-par")
    runFleetPar(R);
  else
    runServiceEdit(R);

  for (const std::string &F : R.Failures)
    std::printf("# FAIL %s\n", F.c_str());
  std::vector<Metric> Metrics = O.Trace ? perLayer(R) : endToEnd(R);
  for (const Metric &M : Metrics)
    std::printf("# %-34s %18.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  if (O.Trace && !O.TraceOut.empty() && !R.Spans.writeChromeTrace(O.TraceOut))
    std::fprintf(stderr, "lpabench: cannot write %s\n", O.TraceOut.c_str());
  if (R.Attempted == 0)
    R.fail("no operation attempted");
  printJson(R, Metrics);
  return R.Failed == 0 ? 0 : 1;
}

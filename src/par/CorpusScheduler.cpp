//===- CorpusScheduler.cpp - Parallel sharded corpus analysis ----------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "par/CorpusScheduler.h"

#include "par/ThreadPool.h"
#include "support/Stopwatch.h"
#include "wamlite/WamCompiler.h"

#include <algorithm>

using namespace lpa;

const char *lpa::corpusJobKindName(CorpusJobKind K) {
  switch (K) {
  case CorpusJobKind::Groundness: return "groundness";
  case CorpusJobKind::DepthK: return "depthk";
  case CorpusJobKind::WamLite: return "wamlite";
  case CorpusJobKind::Strictness: return "strictness";
  }
  return "unknown";
}

std::vector<std::string>
lpa::fingerprintGroundness(const GroundnessResult &R) {
  std::vector<std::string> Out;
  Out.reserve(R.Predicates.size());
  for (const PredGroundness &P : R.Predicates)
    Out.push_back(P.Name + "/" + std::to_string(P.Arity) +
                  " success=" + formatTruthTable(P.SuccessSet) +
                  " calls=" + formatTruthTable(P.CallPatterns));
  return Out;
}

std::vector<std::string>
lpa::fingerprintStrictness(const StrictnessResult &R) {
  std::vector<std::string> Out;
  Out.reserve(R.Functions.size());
  for (const FuncStrictness &F : R.Functions)
    Out.push_back(F.summary());
  return Out;
}

std::vector<std::string> lpa::fingerprintDepthK(const DepthKResult &R) {
  std::vector<std::string> Out;
  Out.reserve(R.Predicates.size());
  for (const DepthKPred &P : R.Predicates) {
    std::string Line = P.Name + "/" + std::to_string(P.Arity) + " answers=[";
    for (size_t I = 0; I < P.AnswerPatterns.size(); ++I) {
      if (I)
        Line += ',';
      Line += P.AnswerPatterns[I];
    }
    Line += "] calls=[";
    for (size_t I = 0; I < P.CallPatterns.size(); ++I) {
      if (I)
        Line += ',';
      Line += P.CallPatterns[I];
    }
    Line += "] ground=";
    for (uint8_t G : P.GroundOnSuccess)
      Line += G ? 'g' : '?';
    Out.push_back(std::move(Line));
  }
  return Out;
}

namespace {

/// Folds a job's justification-validation counts into its result and its
/// fingerprint list (the latter makes the parallel-vs-serial comparison
/// cover provenance too).
void noteProvenance(CorpusJobResult &R, uint64_t Justified, uint64_t Premises,
                    uint64_t Dangling) {
  R.JustifiedAnswers = Justified;
  R.JustificationPremises = Premises;
  R.DanglingPremises = Dangling;
  R.Fingerprints.push_back("$provenance justified=" +
                           std::to_string(Justified) +
                           " premises=" + std::to_string(Premises) +
                           " dangling=" + std::to_string(Dangling));
}

} // namespace

CorpusScheduler::CorpusScheduler(Options Opts) : Opts(Opts) {}

std::vector<CorpusJob> CorpusScheduler::kindJobs(CorpusJobKind Kind) {
  const std::vector<CorpusProgram> &Corpus =
      Kind == CorpusJobKind::Strictness ? flBenchmarks() : prologBenchmarks();
  std::vector<CorpusJob> Jobs;
  Jobs.reserve(Corpus.size());
  for (const CorpusProgram &P : Corpus)
    Jobs.push_back({&P, Kind});
  return Jobs;
}

std::vector<CorpusJob> CorpusScheduler::fullMatrix() {
  std::vector<CorpusJob> Jobs;
  for (CorpusJobKind K : {CorpusJobKind::Groundness, CorpusJobKind::DepthK,
                          CorpusJobKind::WamLite}) {
    std::vector<CorpusJob> KJ = kindJobs(K);
    Jobs.insert(Jobs.end(), KJ.begin(), KJ.end());
  }
  std::vector<CorpusJob> FL = kindJobs(CorpusJobKind::Strictness);
  Jobs.insert(Jobs.end(), FL.begin(), FL.end());
  return Jobs;
}

size_t CorpusScheduler::workerCount() const {
  return Opts.Jobs <= 1 ? 1 : Opts.Jobs;
}

CorpusJobResult CorpusScheduler::runJob(const CorpusJob &Job,
                                        WorkerObs *Obs,
                                        EvalCursor *Cursor) {
  CorpusJobResult R;
  R.Program = Job.Program->Name;
  R.Kind = Job.Kind;
  Tracer *T = Obs ? &Obs->Trace : nullptr;
  // The job's analyzer feeds the worker's shard and sampling cursor.
  FanoutSink Fan{T, Obs ? &Obs->Metrics : nullptr, Cursor};
  TraceSink *Sink = (Obs || Cursor) ? &Fan : nullptr;
  // Corpus names are static storage, so they are valid span labels.
  if (T)
    T->beginSpan(Job.Program->Name);
  Stopwatch Watch;

  switch (Job.Kind) {
  case CorpusJobKind::Groundness: {
    SymbolTable Symbols;
    GroundnessAnalyzer::Options GO = Opts.Groundness;
    GO.Sink = Sink;
    if (Opts.RecordProvenance)
      GO.Engine.RecordProvenance = true;
    GroundnessAnalyzer Analyzer(Symbols, GO);
    auto Res = Analyzer.analyze(Job.Program->Source);
    if (!Res) {
      R.Error = Res.getError().str();
      break;
    }
    R.Ok = true;
    R.Incomplete = Res->Incomplete;
    R.Fingerprints = fingerprintGroundness(*Res);
    if (Opts.RecordProvenance)
      noteProvenance(R, Res->JustifiedAnswers, Res->JustificationPremises,
                     Res->DanglingPremises);
    break;
  }
  case CorpusJobKind::DepthK: {
    SymbolTable Symbols;
    DepthKAnalyzer::Options DO = Opts.DepthK;
    DO.Sink = Sink;
    if (Opts.RecordProvenance)
      DO.RecordProvenance = true;
    DepthKAnalyzer Analyzer(Symbols, DO);
    auto Res = Analyzer.analyze(Job.Program->Source);
    if (!Res) {
      R.Error = Res.getError().str();
      break;
    }
    R.Ok = true;
    R.Incomplete = Res->Incomplete;
    R.Fingerprints = fingerprintDepthK(*Res);
    if (Opts.RecordProvenance)
      noteProvenance(R, Res->JustifiedAnswers, Res->JustificationPremises,
                     Res->DanglingPremises);
    break;
  }
  case CorpusJobKind::WamLite: {
    SymbolTable Symbols;
    WamCompiler Compiler(Symbols);
    auto Res = Compiler.compileText(Job.Program->Source);
    if (!Res) {
      R.Error = Res.getError().str();
      break;
    }
    R.Ok = true;
    for (const CompiledClause &C : Res->Clauses)
      R.Fingerprints.push_back(
          Symbols.name(C.Pred.Sym) + "/" + std::to_string(C.Pred.Arity) +
          " instrs=" + std::to_string(C.Code.size()) +
          " perm=" + std::to_string(C.NumPermanent) +
          " temp=" + std::to_string(C.NumTemporaries));
    R.Fingerprints.push_back(
        "total instrs=" + std::to_string(Res->totalInstructions()) +
        " bytes=" + std::to_string(Res->codeBytes()));
    break;
  }
  case CorpusJobKind::Strictness: {
    StrictnessAnalyzer::Options SO = Opts.Strictness;
    if (Opts.RecordProvenance)
      SO.Engine.RecordProvenance = true;
    StrictnessAnalyzer Analyzer(SO);
    Analyzer.setObservability(Sink);
    auto Res = Analyzer.analyze(Job.Program->Source);
    if (!Res) {
      R.Error = Res.getError().str();
      break;
    }
    R.Ok = true;
    R.Incomplete = Res->Incomplete;
    R.Fingerprints = fingerprintStrictness(*Res);
    if (Opts.RecordProvenance)
      noteProvenance(R, Res->JustifiedAnswers, Res->JustificationPremises,
                     Res->DanglingPremises);
    break;
  }
  }

  R.Seconds = Watch.elapsedSeconds();
  if (T)
    T->endSpan(Job.Program->Name);
  return R;
}

std::vector<CorpusJobResult>
CorpusScheduler::run(const std::vector<CorpusJob> &Jobs) {
  std::vector<CorpusJobResult> Results(Jobs.size());
  size_t NumWorkers = Opts.Jobs <= 1 ? 0 : Opts.Jobs;

  size_t NumShards = std::max<size_t>(1, NumWorkers);

  Shards.clear();
  Merged.clear();
  if (Opts.CollectObservability) {
    for (size_t I = 0; I < NumShards; ++I)
      Shards.push_back(
          std::make_unique<WorkerObs>(TraceOptions{Opts.TraceMaxEvents}));
  }

  // Sampling is wired independently of CollectObservability so the profile
  // can be on while the (costlier) tracing/metrics shards stay off.
  Cursors.clear();
  Profile = SampleProfile();
  Sampler Prof(Sampler::Options{Opts.SampleHz});
  if (Opts.SampleHz > 0) {
    for (size_t I = 0; I < NumShards; ++I) {
      Cursors.push_back(std::make_unique<EvalCursor>());
      Prof.addLane("worker-" + std::to_string(I + 1), Cursors.back().get());
    }
    Prof.start();
  }

  Stopwatch Wall;
  {
    ThreadPool Pool(NumWorkers);
    for (size_t I = 0; I < Jobs.size(); ++I)
      Pool.submit([this, &Jobs, &Results, I] {
        size_t W = ThreadPool::currentWorkerId();
        if (W == SIZE_MAX)
          W = 0; // Inline serial mode: everything lands in shard 0.
        WorkerObs *Obs = Shards.empty() ? nullptr : Shards[W].get();
        EvalCursor *Cur = Cursors.empty() ? nullptr : Cursors[W].get();
        Results[I] = runJob(Jobs[I], Obs, Cur);
      });
    Pool.wait();
    LastSteals = Pool.stealCount();
  }
  // The sampler keeps running until here, so the published wall-clock
  // includes any sampling overhead — that's what the A/B experiments
  // measure.
  WallSeconds = Wall.elapsedSeconds();
  if (Opts.SampleHz > 0) {
    Prof.stop();
    Profile = Prof.takeProfile();
  }

  // Post-run merge: shard order (not completion order), so the merged
  // registry is as deterministic as the per-shard job assignment.
  for (const auto &S : Shards)
    Merged.mergeFrom(S->Metrics);
  return Results;
}

std::string CorpusScheduler::chromeTrace() const {
  std::vector<ThreadTrace> Threads;
  Threads.reserve(Shards.size());
  for (size_t I = 0; I < Shards.size(); ++I)
    Threads.push_back(
        {I + 1, Shards[I]->Sink.events(), Shards[I]->Sink.droppedCount()});
  // Job SymbolTables are private and already destroyed; export by raw id.
  return formatChromeTraceThreads(Threads, /*Symbols=*/nullptr);
}

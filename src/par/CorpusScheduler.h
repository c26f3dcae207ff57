//===- CorpusScheduler.h - Parallel sharded corpus analysis -----*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fans the benchmark corpus across a work-stealing thread pool. Each
/// analysis run is already an isolated unit — its own SymbolTable,
/// TermStore, Database and Solver — so the corpus is embarrassingly
/// parallel, mirroring XSB's later multi-threaded tabling with *private*
/// tables (Swift & Warren): no term state is shared between workers.
///
/// Observability is sharded the same way: every worker owns a private
/// MetricsRegistry and trace buffer; after the fleet drains, metrics merge
/// by predicate Name+Arity (SymbolIds are worker-private and meaningless
/// across shards) and trace buffers stitch into one Chrome trace with one
/// tid lane per worker.
///
/// Results come back indexed by submission order, so a parallel run is
/// bit-comparable against the serial run job by job — the invariant the
/// bench drivers' --jobs mode asserts.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_PAR_CORPUSSCHEDULER_H
#define LPA_PAR_CORPUSSCHEDULER_H

#include "corpus/Corpus.h"
#include "depthk/DepthK.h"
#include "obs/Metrics.h"
#include "obs/Sampler.h"
#include "obs/Trace.h"
#include "prop/Groundness.h"
#include "strictness/Strictness.h"

#include <memory>
#include <string>
#include <vector>

namespace lpa {

/// What to run on one corpus program.
enum class CorpusJobKind : uint8_t {
  Groundness, ///< Prop groundness (Table 1) on a logic benchmark.
  DepthK,     ///< Depth-k groundness (Table 4) on a logic benchmark.
  WamLite,    ///< WAM-lite compilation (the compile-arm ablation).
  Strictness, ///< Demand strictness (Table 3) on an FL benchmark.
};

const char *corpusJobKindName(CorpusJobKind K);

/// One unit of fleet work: a program and what to do with it.
struct CorpusJob {
  const CorpusProgram *Program = nullptr;
  CorpusJobKind Kind = CorpusJobKind::Groundness;
};

/// Outcome of one job. Fingerprints are canonical per-predicate result
/// lines, rendered deterministically from the analysis result alone, so two
/// runs of the same job agree bit-for-bit iff their results do.
struct CorpusJobResult {
  const char *Program = nullptr; ///< Static corpus name.
  CorpusJobKind Kind = CorpusJobKind::Groundness;
  bool Ok = false;
  std::string Error; ///< Diagnostic text when !Ok.
  std::vector<std::string> Fingerprints;
  double Seconds = 0;      ///< This job's own wall time.
  bool Incomplete = false; ///< Result carries an incompleteness warning.

  /// \name Justification statistics (Options::RecordProvenance; zero for
  /// WamLite jobs, which compile rather than analyze). A nonzero
  /// DanglingPremises means the job's provenance arena disagrees with its
  /// answer tables — always a bug.
  /// @{
  uint64_t JustifiedAnswers = 0;
  uint64_t JustificationPremises = 0;
  uint64_t DanglingPremises = 0;
  /// @}
};

/// \name Canonical result fingerprints (parallel-vs-serial bit-identity).
/// @{
std::vector<std::string> fingerprintGroundness(const GroundnessResult &R);
std::vector<std::string> fingerprintStrictness(const StrictnessResult &R);
std::vector<std::string> fingerprintDepthK(const DepthKResult &R);
/// @}

class CorpusScheduler {
public:
  struct Options {
    /// Worker threads; 0 or 1 = run jobs inline in submission order.
    size_t Jobs = 0;
    /// Shard per-worker metrics and trace buffers, merged after run().
    /// Off = no instrumentation cost per job.
    bool CollectObservability = false;
    /// Record answer justifications in every analysis job (each worker's
    /// Solver owns a private provenance arena, like every other table).
    /// Results carry validation counts and fingerprints gain a
    /// "$provenance ..." line, so the serial-vs-parallel bit-identity
    /// check also covers justification validity under --jobs N.
    bool RecordProvenance = false;
    /// Sampling-profiler frequency (Hz); 0 = no sampler. Independent of
    /// CollectObservability: each worker gets a private EvalCursor wired
    /// into its jobs' engines, and one background Sampler sweeps all
    /// cursors, aggregating into per-worker lanes ("worker-1"..).
    /// Sampling never perturbs results — the cursor writes are plain
    /// stores on the worker's own evaluation path.
    uint32_t SampleHz = 0;
    /// Bound on each worker's retained trace events (keep-last ring);
    /// 0 = unbounded. See TraceOptions::MaxEvents.
    size_t TraceMaxEvents = 0;
    /// Analyzer tunables forwarded to every job of the matching kind.
    /// Their Sink pointers are overridden per job (null unless
    /// CollectObservability or SampleHz is set).
    GroundnessAnalyzer::Options Groundness;
    DepthKAnalyzer::Options DepthK;
    StrictnessAnalyzer::Options Strictness;
  };

  explicit CorpusScheduler(Options Opts);

  /// The full corpus matrix: the 12 logic benchmarks under
  /// {Groundness, DepthK, WamLite} plus the 10 FL benchmarks under
  /// Strictness — 46 jobs.
  static std::vector<CorpusJob> fullMatrix();

  /// Jobs of one kind over the matching corpus (12 logic programs, or the
  /// 10 FL programs for Strictness).
  static std::vector<CorpusJob> kindJobs(CorpusJobKind Kind);

  /// Runs the fleet. Results[I] corresponds to Jobs[I] regardless of which
  /// worker executed it or in what order.
  std::vector<CorpusJobResult> run(const std::vector<CorpusJob> &Jobs);

  /// Fleet wall-clock of the last run() (seconds).
  double lastWallSeconds() const { return WallSeconds; }
  /// Successful steals in the last run() (0 in serial mode).
  uint64_t lastStealCount() const { return LastSteals; }
  size_t workerCount() const;

  /// Merged per-worker metrics of the last run() (empty unless
  /// CollectObservability). Predicates merged by Name+Arity; counters and
  /// phases are fleet-wide sums.
  const MetricsRegistry &mergedMetrics() const { return Merged; }

  /// Per-worker trace buffers of the last run() stitched into one Chrome
  /// trace, tid = worker index + 1. Predicate names fall back to raw
  /// symbol ids (each job's SymbolTable is private and already gone); job
  /// and phase span labels render normally.
  std::string chromeTrace() const;

  /// Merged sample profile of the last run() (empty unless SampleHz was
  /// set): one lane per worker, stacks aggregated per lane.
  const SampleProfile &sampleProfile() const { return Profile; }

  /// Folded-stack (flamegraph) rendering of sampleProfile(). Frame names
  /// fall back to "#sym/arity" — job SymbolTables are worker-private and
  /// already destroyed, same as chromeTrace().
  std::string foldedStacks() const {
    return Profile.formatFolded(/*Symbols=*/nullptr);
  }

private:
  /// Per-worker observability shard; workers never share one.
  struct WorkerObs {
    explicit WorkerObs(TraceOptions TO) : Sink(TO) {
      Trace.setSink(&Sink);
    }
    MetricsRegistry Metrics;
    Tracer Trace;
    RecordingSink Sink;
  };

  CorpusJobResult runJob(const CorpusJob &Job, WorkerObs *Obs,
                         EvalCursor *Cursor);

  Options Opts;
  std::vector<std::unique_ptr<WorkerObs>> Shards;
  /// Per-worker sampling cursors (allocated iff SampleHz > 0). unique_ptr:
  /// EvalCursor holds atomics, so the vector must never relocate one.
  std::vector<std::unique_ptr<EvalCursor>> Cursors;
  SampleProfile Profile;
  MetricsRegistry Merged;
  double WallSeconds = 0;
  uint64_t LastSteals = 0;
};

} // namespace lpa

#endif // LPA_PAR_CORPUSSCHEDULER_H

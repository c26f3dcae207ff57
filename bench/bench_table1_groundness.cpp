//===- bench_table1_groundness.cpp - Regenerate Table 1 ---------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Table 1: "Performance of Prop-based groundness analysis in XSB" — per
// benchmark: preprocessing / analysis / collection time, total, increase
// over plain compile ("compile" = read + load the concrete program, our
// dynamic-code stand-in for XSB compilation; see DESIGN.md), and table
// space. Paper reference values are printed alongside (absolute times are
// 1996 SPARC numbers; the shape — preprocessing-dominant phases, small
// tables, heavier rows for press/read — is the reproduction target).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchFleet.h"
#include "bench/BenchUtil.h"
#include "corpus/Corpus.h"
#include "obs/Metrics.h"
#include "prop/Groundness.h"
#include "support/TableFormat.h"

#include <cstdio>

using namespace lpa;

int main(int argc, char **argv) {
  std::printf("Table 1: Prop-based groundness analysis "
              "(ours in ms; paper columns in seconds, SPARC 10/30)\n\n");

  TextTable Out;
  Out.addRow({"Program", "Lines", "Preproc", "Analysis", "Collect", "Total",
              "Incr(%)", "Table(B)", "AggTab(B)", "|", "paperTot(s)",
              "paperIncr(%)", "paperTab(B)"});

  // Machine-readable trajectory: one record per program with the timings
  // above plus the full per-predicate metrics (subgoal/answer counts,
  // table bytes) from an instrumented re-run.
  std::string Json;
  JsonWriter W(Json);
  W.beginObject();
  W.member("benchmark", "table1_groundness");
  writeBenchMeta(W);
  W.key("programs");
  W.beginArray();

  int Failures = 0;
  for (const CorpusProgram &P : prologBenchmarks()) {
    MeasuredRow Best = bestOf(5, [&]() {
      MeasuredRow Row;
      SymbolTable Symbols;
      GroundnessAnalyzer Analyzer(Symbols);
      auto R = Analyzer.analyze(P.Source);
      if (!R) {
        Row.Error = R.getError().str();
        return Row;
      }
      Row.PreprocMs = R->PreprocSeconds * 1e3;
      Row.AnalysisMs = R->AnalysisSeconds * 1e3;
      Row.CollectMs = R->CollectSeconds * 1e3;
      Row.TableBytes = R->TableSpaceBytes;
      Row.Ok = true;
      return Row;
    });
    if (!Best.Ok) {
      std::fprintf(stderr, "%s: %s\n", P.Name, Best.Error.c_str());
      ++Failures;
      continue;
    }

    // Compile-time baseline: read + load the concrete program.
    double CompileMs = 0;
    {
      SymbolTable Symbols;
      GroundnessAnalyzer Analyzer(Symbols);
      double BestCompile = -1;
      for (int I = 0; I < 5; ++I) {
        auto C = Analyzer.measureCompileSeconds(P.Source);
        if (C && (BestCompile < 0 || *C < BestCompile))
          BestCompile = *C;
      }
      CompileMs = BestCompile * 1e3;
    }
    double IncreasePct =
        CompileMs > 0 ? 100.0 * Best.totalMs() / CompileMs : -1;

    // Section 6.2 ablation: table space under answer aggregation
    // (one joined mode tuple per subgoal instead of a truth table).
    size_t AggBytes = 0;
    {
      SymbolTable Symbols;
      GroundnessAnalyzer::Options AggOpts;
      AggOpts.AggregateModes = true;
      GroundnessAnalyzer Analyzer(Symbols, AggOpts);
      auto R = Analyzer.analyze(P.Source);
      if (R)
        AggBytes = R->TableSpaceBytes;
    }

    Out.addRow({P.Name, std::to_string(P.sourceLines()), ms(Best.PreprocMs),
                ms(Best.AnalysisMs), ms(Best.CollectMs), ms(Best.totalMs()),
                ms(IncreasePct), std::to_string(Best.TableBytes),
                std::to_string(AggBytes), "|", paperSec(P.Table1.Total),
                paperSec(P.Table1.CompileIncreasePct),
                std::to_string(P.Table1.TableBytes)});

    // Instrumented re-run (outside the timed loop) for the JSON record:
    // phase spans land in "phases", engine counters in "counters", and
    // per-predicate subgoal/answer/table-byte detail in "predicates".
    MetricsRegistry Reg;
    {
      SymbolTable Symbols;
      GroundnessAnalyzer::Options ObsOpts;
      ObsOpts.Sink = &Reg;
      GroundnessAnalyzer Analyzer(Symbols, ObsOpts);
      (void)Analyzer.analyze(P.Source);
    }
    W.beginObject();
    W.member("name", P.Name);
    W.member("lines", static_cast<uint64_t>(P.sourceLines()));
    writeMeasuredRow(W, Best);
    W.member("compile_ms", CompileMs);
    W.member("increase_pct", IncreasePct);
    W.member("table_bytes", static_cast<uint64_t>(Best.TableBytes));
    W.member("agg_table_bytes", static_cast<uint64_t>(AggBytes));
    W.key("metrics");
    Reg.writeJson(W);
    W.endObject();
  }

  W.endArray();

  // Parallel arm (--jobs N, default hardware threads): the same 12 programs
  // through the CorpusScheduler, serial then parallel, with per-predicate
  // bit-identity required between the two runs.
  Failures +=
      runFleetPhase(W, "fleet", CorpusJobKind::Groundness, jobsArg(argc, argv),
                    provenanceArg(argc, argv), sampleHzArg(argc, argv),
                    foldedOutArg(argc, argv));

  W.endObject();
  std::printf("%s\n", Out.render().c_str());
  writeJsonFile(jsonOutPath(argc, argv, "bench/out/bench_table1_groundness.json"),
                Json);
  std::printf(
      "Notes:\n"
      " * 'Incr' compares total analysis time to reading+loading the\n"
      "   concrete program with no analysis. The paper's denominator is\n"
      "   full XSB compilation — far slower than our C++ parse+load — so\n"
      "   its ratios are sub-100%% while ours are in the thousands. See\n"
      "   bench_table1_wamlite for a compilation-like denominator.\n"
      " * Phase shape differs from the paper: their preprocessing\n"
      "   (transformation + dynamic loading, written in Prolog) dominated;\n"
      "   our C++ preprocessing is microseconds and evaluation carries\n"
      "   the cost instead. The per-program ordering is what reproduces:\n"
      "   press1/press2 heaviest, then read/kalah, with qsort/queens\n"
      "   lightest — the same ranking as the paper's Total column.\n"
      " * Table space tracks the same ranking (press/read largest,\n"
      "   qsort/queens smallest).\n");
  return Failures;
}

//===- repl.cpp - Interactive tabled-Prolog toplevel ------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// A small interactive toplevel over the tabled engine. Clauses typed at
// the prompt are asserted (the paper's dynamic-code configuration);
// "?- Goal." queries them. Try:
//
//   :- table path/2.
//   path(X, Y) :- path(X, Z), edge(Z, Y).
//   path(X, Y) :- edge(X, Y).
//   edge(a, b). edge(b, c). edge(c, a).
//   ?- path(a, X).
//
// Left recursion over a cyclic graph — it terminates here.
//
// The toplevel is one front end over the shared AnalysisSession command
// layer (src/srv/Session.h); the lpa_serve daemon is the other. Queries
// run under per-query ids with warm/cold table accounting, so a repeated
// query shows up as warm traffic in ":stats" and ":queries".
//
// Commands (':'-prefixed lines run immediately, no trailing dot needed):
//   :stats            per-predicate metrics table + engine counters,
//                     table-space watermarks, and the session's
//                     warm/cold table hit-rate line
//   :queries          latency + recent-query report (per-query id,
//                     wall time, warm/cold hits — the daemon's "stats"
//                     verb renders the same snapshot as JSON)
//   :slowlog          slow-query exemplars, most recent first (the
//                     daemon's "slowlog" verb is the JSON twin)
//   :trace on|off     print one line per SLG event as goals run
//   :profile <goal>   run a goal and report the engine work it caused
//   :explain <goal>   run a goal with a cost profile attached and print
//                     the per-subgoal self/cumulative time breakdown
//                     (the daemon's "explain" verb is the JSON twin)
//   :why <goal>       solve the goal and print proof trees for its answers
//   :forest [dot|json] [path]   dump the SLG subgoal dependency forest
//   :flame [path]     folded stacks from the always-on sampling profiler
// Legacy: "stats." prints the raw counters, "halt." exits.
//
//===----------------------------------------------------------------------===//

#include "obs/Sampler.h"
#include "obs/Trace.h"
#include "reader/Parser.h"
#include "srv/Session.h"
#include "support/Stopwatch.h"

#include <cstdio>
#include <iostream>
#include <string>

using namespace lpa;

int main() {
  // Provenance stays on in the toplevel: ":why" needs justifications for
  // whatever the user already queried, and interactive table sizes make
  // the recording overhead irrelevant. The 1 kHz sampler demonstrates the
  // "leave it attached" cost model: the engine publishes its cursor via a
  // seqlock and the reader thread never blocks evaluation.
  AnalysisSession::Options SO;
  SO.RecordProvenance = true;
  SO.SampleHz = 1000;
  SO.SampleLane = "repl";
  AnalysisSession Session(SO);

  SymbolTable &Symbols = Session.symbols();
  Solver &Engine = Session.solver();
  Sampler &Prof = *Session.sampler();

  // ":trace on" attaches the printing sink to the session's tracer
  // (sink-less emit is one null test, so leaving it attached is free).
  PrintSink Printer(Symbols, stdout);

  std::printf("lpa toplevel — tabled logic engine "
              "(clauses to assert, '?- G.' to query, ':stats', ':queries', "
              "':slowlog', ':trace on|off', ':profile G', ':explain G', "
              "':why G', ':forest [dot|json] [path]', ':flame [path]', "
              "'halt.' to quit)\n");

  std::string Buffer;
  std::string Line;
  while (true) {
    std::printf("%s", Buffer.empty() ? "| ?> " : "|    ");
    std::fflush(stdout);
    if (!std::getline(std::cin, Line))
      break;

    // ':'-prefixed observability commands act on the whole line at once
    // (no trailing dot, no multi-line continuation).
    if (Buffer.empty()) {
      size_t S = Line.find_first_not_of(" \t");
      // ':' starts a command, but ":-" is a Prolog directive — let those
      // fall through to the clause reader.
      if (S != std::string::npos && Line[S] == ':' &&
          (S + 1 >= Line.size() || Line[S + 1] != '-')) {
        std::string Cmd = Line.substr(S);
        while (!Cmd.empty() &&
               (std::isspace(static_cast<unsigned char>(Cmd.back())) ||
                Cmd.back() == '.'))
          Cmd.pop_back();

        if (Cmd == ":stats") {
          Engine.snapshotTableMetrics(Session.metrics());
          if (Session.metrics().empty())
            std::printf("  (no tabled evaluation yet)\n");
          else
            std::printf("%s", Session.metrics().renderReport().c_str());
          std::printf("%s", Session.warmColdLine().c_str());
          // Invalidation machinery: how much dependency state a consult
          // sweep would consult, and how many shared entries retired.
          std::printf("Dep-index: %llu edges / %llu producers (%llu bytes); "
                      "shared retired: %llu\n",
                      static_cast<unsigned long long>(
                          Engine.dependencyIndex().edgeCount()),
                      static_cast<unsigned long long>(
                          Engine.dependencyIndex().producerCount()),
                      static_cast<unsigned long long>(
                          Engine.dependencyIndex().memoryBytes()),
                      static_cast<unsigned long long>(
                          Engine.sharedTableStats().Retired));
          // Intra-query parallel eval, when it ran: pool activity plus
          // shared-table traffic (the scaling story of EvalWorkers).
          if (Engine.stats().ParallelPrimeRuns) {
            ThreadPool::PoolStats PS = Engine.evalPoolStats();
            const SharedTableSpace::Stats &SS = Engine.sharedTableStats();
            std::printf("Parallel: %llu prime run%s, pool %llu/%llu "
                        "tasks run/submitted (%llu stolen, %llu idle "
                        "sleeps)\n",
                        static_cast<unsigned long long>(
                            Engine.stats().ParallelPrimeRuns),
                        Engine.stats().ParallelPrimeRuns == 1 ? "" : "s",
                        static_cast<unsigned long long>(PS.Executed),
                        static_cast<unsigned long long>(PS.Submitted),
                        static_cast<unsigned long long>(PS.Steals),
                        static_cast<unsigned long long>(PS.IdleSleeps));
            std::printf("Shared tables: %llu published, %llu warm hits, "
                        "%llu dup evals; locks %llu taken, %llu contended "
                        "(%.2f ms waited)\n",
                        static_cast<unsigned long long>(SS.Publishes),
                        static_cast<unsigned long long>(SS.WarmHits),
                        static_cast<unsigned long long>(SS.InFlightMisses),
                        static_cast<unsigned long long>(SS.LockAcquisitions),
                        static_cast<unsigned long long>(SS.LockContended),
                        SS.LockWaitNs / 1e6);
          }
          continue;
        }
        if (Cmd == ":queries") {
          if (Session.queriesServed() == 0)
            std::printf("  (no queries yet)\n");
          else
            std::printf("%s", Session.queriesReport().c_str());
          continue;
        }
        if (Cmd == ":slowlog") {
          std::printf("%s", Session.slowlogReport().c_str());
          continue;
        }
        if (Cmd == ":trace on") {
          Session.tracer().setSink(&Printer);
          std::printf("  tracing on.\n");
          continue;
        }
        if (Cmd == ":trace off") {
          Session.tracer().setSink(nullptr);
          std::printf("  tracing off.\n");
          continue;
        }
        if (Cmd.compare(0, 9, ":profile ") == 0) {
          std::string GoalText = Cmd.substr(9);
          auto Goal = Parser::parseTerm(Symbols, Engine.store(), GoalText);
          if (!Goal) {
            std::printf("  syntax error: %s\n",
                        Goal.getError().str().c_str());
            continue;
          }
          EvalStats Before = Engine.stats();
          size_t BytesBefore = Engine.tableSpaceBytes();
          Stopwatch Watch;
          size_t Total = Engine.solve(*Goal, nullptr);
          double Ms = Watch.elapsedSeconds() * 1e3;
          const EvalStats &After = Engine.stats();
          auto D = [](uint64_t A, uint64_t B) {
            return static_cast<unsigned long long>(A - B);
          };
          std::printf("  %zu solution%s in %.3f ms\n", Total,
                      Total == 1 ? "" : "s", Ms);
          std::printf("  tabled-calls=%llu new-subgoals=%llu "
                      "answers=%llu dups=%llu\n",
                      D(After.TabledCalls, Before.TabledCalls),
                      D(After.SubgoalsCreated, Before.SubgoalsCreated),
                      D(After.AnswersRecorded, Before.AnswersRecorded),
                      D(After.AnswersDuplicate, Before.AnswersDuplicate));
          std::printf("  resolutions=%llu index-filtered=%llu "
                      "builtins=%llu table-bytes=+%zu\n",
                      D(After.ClauseResolutions, Before.ClauseResolutions),
                      D(After.ClauseIndexFiltered,
                        Before.ClauseIndexFiltered),
                      D(After.BuiltinEvals, Before.BuiltinEvals),
                      Engine.tableSpaceBytes() - BytesBefore);
          continue;
        }
        if (Cmd.compare(0, 9, ":explain ") == 0) {
          // Evaluates with a per-query cost profile attached (only this
          // query pays the clock reads) and prints the profiler view.
          std::printf("%s", Session.explainReport(Cmd.substr(9)).c_str());
          continue;
        }
        if (Cmd.compare(0, 5, ":why ") == 0) {
          std::string GoalText = Cmd.substr(5);
          auto Goal = Parser::parseTerm(Symbols, Engine.store(), GoalText);
          if (!Goal) {
            std::printf("  syntax error: %s\n",
                        Goal.getError().str().c_str());
            continue;
          }
          Engine.solve(*Goal, nullptr);
          const Subgoal *SG = Engine.findSubgoal(*Goal);
          if (!SG) {
            std::printf("  no table for that goal — justifications exist "
                        "only for tabled predicates (:- table p/n.).\n");
            continue;
          }
          size_t Total = Engine.answerCount(*SG);
          if (Total == 0) {
            std::printf("  no answers — nothing to justify.\n");
            continue;
          }
          size_t Show = Total < 4 ? Total : 4;
          std::printf("  %zu answer%s; proof tree%s for the first %zu:\n",
                      Total, Total == 1 ? "" : "s", Show == 1 ? "" : "s",
                      Show);
          for (size_t I = 0; I < Show; ++I) {
            auto Proof = Engine.justifyAnswer(*SG, I);
            if (!Proof) {
              std::printf("  answer %zu: no justification recorded.\n",
                          I + 1);
              continue;
            }
            std::printf("%s", Engine.renderProof(*Proof).c_str());
          }
          continue;
        }
        if (Cmd == ":flame" || Cmd.compare(0, 7, ":flame ") == 0) {
          // ":flame [path]" — collapsed stacks from the always-on 1 kHz
          // sampler, in flamegraph.pl / speedscope input format. The
          // sampler pauses while we read (profile() is only stable when
          // the thread is stopped) and resumes after.
          std::string Path;
          if (Cmd.size() > 7) {
            size_t A = Cmd.find_first_not_of(" \t", 7);
            if (A != std::string::npos)
              Path = Cmd.substr(A);
          }
          Prof.stop();
          const SampleProfile &P = Prof.profile();
          if (P.empty()) {
            std::printf("  no samples yet — the profiler only sees the "
                        "engine while goals run.\n");
          } else {
            std::string Folded = P.formatFolded(&Symbols);
            if (Path.empty()) {
              std::printf("%s", Folded.c_str());
              std::printf("  (%llu samples, %llu idle, %llu torn at %u "
                          "Hz)\n",
                          static_cast<unsigned long long>(P.totalSamples()),
                          static_cast<unsigned long long>(P.idleSamples()),
                          static_cast<unsigned long long>(P.tornSamples()),
                          Prof.hz());
            } else if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
              std::fwrite(Folded.data(), 1, Folded.size(), F);
              std::fclose(F);
              std::printf("  wrote %llu samples' folded stacks to %s.\n",
                          static_cast<unsigned long long>(P.totalSamples()),
                          Path.c_str());
            } else {
              std::printf("  cannot open %s for writing.\n", Path.c_str());
            }
          }
          Prof.start();
          continue;
        }
        if (Cmd == ":forest" || Cmd.compare(0, 8, ":forest ") == 0) {
          // ":forest [dot|json] [path]" — format defaults to dot; with a
          // path the graph goes to the file, otherwise to the terminal.
          std::string Fmt = "dot", Path;
          if (Cmd.size() > 8) {
            std::string Rest = Cmd.substr(8);
            size_t A = Rest.find_first_not_of(" \t");
            if (A != std::string::npos) {
              size_t B = Rest.find_first_of(" \t", A);
              std::string First = Rest.substr(A, B - A);
              if (First == "dot" || First == "json") {
                Fmt = First;
                if (B != std::string::npos) {
                  size_t C = Rest.find_first_not_of(" \t", B);
                  if (C != std::string::npos)
                    Path = Rest.substr(C);
                }
              } else {
                Path = Rest.substr(A);
              }
            }
          }
          ForestGraph G = Engine.exportForest(Session.costProfile());
          if (G.Nodes.empty()) {
            std::printf("  no tabled subgoals yet — run a query first.\n");
            continue;
          }
          std::string Out = Fmt == "json" ? forestToJson(G)
                                          : forestToDot(G);
          if (Path.empty()) {
            std::printf("%s", Out.c_str());
          } else if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
            std::fwrite(Out.data(), 1, Out.size(), F);
            std::fclose(F);
            std::printf("  wrote %zu nodes, %zu edges to %s (%s).\n",
                        G.Nodes.size(), G.Edges.size(), Path.c_str(),
                        Fmt.c_str());
          } else {
            std::printf("  cannot open %s for writing.\n", Path.c_str());
          }
          continue;
        }
        std::printf("  unknown command: %s "
                    "(:stats, :queries, :slowlog, :trace on|off, "
                    ":profile <goal>, :explain <goal>, "
                    ":why <goal>, :forest [dot|json] [path], "
                    ":flame [path])\n",
                    Cmd.c_str());
        continue;
      }
    }

    Buffer += Line + "\n";
    // A clause/query ends with '.' at end of line.
    std::string Trimmed = Line;
    while (!Trimmed.empty() && std::isspace(
               static_cast<unsigned char>(Trimmed.back())))
      Trimmed.pop_back();
    if (Trimmed.empty() || Trimmed.back() != '.')
      continue;

    std::string Input = Buffer;
    Buffer.clear();

    // Strip leading whitespace for command detection.
    size_t Start = Input.find_first_not_of(" \t\r\n");
    if (Start == std::string::npos)
      continue;

    if (Input.compare(Start, 5, "halt.") == 0)
      break;
    if (Input.compare(Start, 6, "stats.") == 0) {
      const EvalStats &S = Engine.stats();
      std::printf("  subgoals=%llu answers=%llu resolutions=%llu "
                  "table-bytes=%zu\n",
                  static_cast<unsigned long long>(S.SubgoalsCreated),
                  static_cast<unsigned long long>(S.AnswersRecorded),
                  static_cast<unsigned long long>(S.ClauseResolutions),
                  Engine.tableSpaceBytes());
      continue;
    }

    if (Input.compare(Start, 2, "?-") == 0) {
      // Query through the session: runs under a fresh query id with
      // warm/cold accounting, shows up to 10 solutions.
      auto R = Session.runQuery(Input.substr(Start + 2), /*MaxSolutions=*/10);
      if (!R) {
        std::printf("  syntax error: %s\n", R.getError().str().c_str());
        continue;
      }
      for (const std::string &Sol : R->Solutions)
        std::printf("  %s\n", Sol.c_str());
      if (R->Total == 0)
        std::printf("  no.\n");
      else if (R->Total > R->Solutions.size())
        std::printf("  ... %zu solutions total.\n", R->Total);
      else
        std::printf("  yes (%zu solution%s).\n", R->Total,
                    R->Total == 1 ? "" : "s");
      continue;
    }

    // Otherwise: assert clauses.
    auto R = Session.consult(Input);
    if (!R)
      std::printf("  error: %s\n", R.getError().str().c_str());
  }
  std::printf("bye.\n");
  return 0;
}

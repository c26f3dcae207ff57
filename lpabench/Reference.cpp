//===- Reference.cpp - Golden fingerprints and oracle checks -------------===//
//
// Part of the lpa benchmark (see lpabench/NOTES.md).
//
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "Spans.h"

#include "baseline/GaiaLike.h"
#include "corpus/Corpus.h"
#include "prop/PropResult.h"

#include <fstream>
#include <map>

using namespace lpabench;

/// The analysis kinds that have golden files (golden/<kind>.txt).
static constexpr const char *GoldenKinds[] = {"groundness", "depthk",
                                              "strictness"};

std::string Golden::load(const std::string &Dir) {
  Lines.clear();
  for (const char *Kind : GoldenKinds) {
    std::string Path = Dir + "/" + Kind + ".txt";
    std::ifstream In(Path);
    if (!In)
      return "cannot read golden file " + Path;
    std::string Line;
    size_t N = 0;
    while (std::getline(In, Line)) {
      size_t Tab = Line.find('\t');
      if (Tab == std::string::npos)
        return Path + ": malformed line " + std::to_string(N + 1);
      Lines[Kind][Line.substr(0, Tab)].push_back(Line.substr(Tab + 1));
      ++N;
    }
    if (N == 0)
      return Path + ": empty";
  }
  return "";
}

bool Golden::write(
    const std::string &Dir, const std::string &Kind,
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        &Programs) {
  std::ofstream Out(Dir + "/" + Kind + ".txt");
  for (const auto &[Program, FP] : Programs)
    for (const std::string &L : FP)
      Out << Program << '\t' << L << '\n';
  Out.flush();
  return static_cast<bool>(Out);
}

std::string Golden::check(const std::string &Kind, const std::string &Program,
                          const std::vector<std::string> &Got) const {
  auto K = Lines.find(Kind);
  if (K == Lines.end())
    return "no golden " + Kind + " file";
  auto P = K->second.find(Program);
  if (P == K->second.end())
    return "no golden " + Kind + " lines for " + Program;
  const std::vector<std::string> &Want = P->second;
  for (size_t I = 0; I < Want.size() || I < Got.size(); ++I) {
    if (I >= Got.size())
      return Kind + " " + Program + ": missing line " + Want[I];
    if (I >= Want.size())
      return Kind + " " + Program + ": extra line " + Got[I];
    if (Want[I] != Got[I])
      return Kind + " " + Program + ": got " + Got[I] + " want " + Want[I];
  }
  return "";
}

std::string Golden::successSet(const std::string &Program,
                               const std::string &Pred) const {
  auto K = Lines.find("groundness");
  if (K == Lines.end())
    return "";
  auto P = K->second.find(Program);
  if (P == K->second.end())
    return "";
  const std::string Prefix = Pred + " success=";
  for (const std::string &L : P->second) {
    if (L.compare(0, Prefix.size(), Prefix) != 0)
      continue;
    size_t End = L.find(" calls=", Prefix.size());
    return L.substr(Prefix.size(), End == std::string::npos
                                       ? std::string::npos
                                       : End - Prefix.size());
  }
  return "";
}

std::vector<std::string>
Golden::groundnessPreds(const std::string &Program) const {
  std::vector<std::string> Out;
  auto K = Lines.find("groundness");
  if (K == Lines.end())
    return Out;
  auto P = K->second.find(Program);
  if (P == K->second.end())
    return Out;
  for (const std::string &L : P->second)
    Out.push_back(L.substr(0, L.find(' ')));
  return Out;
}

size_t lpabench::checkGaiaOracle(const Golden &G,
                                 std::vector<std::string> &Failures,
                                 uint64_t &GaiaNs) {
  size_t Checked = 0;
  for (const lpa::CorpusProgram &P : lpa::prologBenchmarks()) {
    lpa::SymbolTable Symbols;
    lpa::GaiaLikeAnalyzer Gaia(Symbols);
    uint64_t Start = nowNs();
    auto Res = Gaia.analyze(P.Source);
    GaiaNs += nowNs() - Start;
    ++Checked;
    if (!Res) {
      Failures.push_back(std::string("gaia ") + P.Name + ": " +
                         Res.getError().str());
      continue;
    }
    // One message per failing program: the first difference found.
    std::vector<std::string> Want = G.groundnessPreds(P.Name);
    std::string Diff;
    if (Want.size() != Res->Predicates.size())
      Diff = std::to_string(Res->Predicates.size()) +
             " predicates, golden has " + std::to_string(Want.size());
    for (const lpa::PredGroundness &PG : Res->Predicates) {
      std::string Key = PG.Name + "/" + std::to_string(PG.Arity);
      std::string Got = lpa::formatTruthTable(PG.SuccessSet);
      std::string Golden = G.successSet(P.Name, Key);
      if (Diff.empty() && Got != Golden)
        Diff = Key + ": success " + Got + " golden " + Golden;
    }
    if (!Diff.empty())
      Failures.push_back(std::string("gaia ") + P.Name + " " + Diff);
  }
  return Checked;
}

bool lpabench::solutionsTruthTable(const std::vector<std::string> &Solutions,
                                   unsigned Arity, std::string &Table,
                                   std::string &Error) {
  lpa::TruthTable T;
  for (const std::string &S : Solutions) {
    std::vector<std::string> Args;
    size_t Open = S.find('(');
    if (Arity > 0) {
      if (Open == std::string::npos || S.back() != ')') {
        Error = "unexpected solution " + S;
        return false;
      }
      std::string Cur;
      for (size_t I = Open + 1; I + 1 < S.size(); ++I) {
        if (S[I] == ',') {
          Args.push_back(Cur);
          Cur.clear();
        } else if (S[I] != ' ') {
          Cur += S[I];
        }
      }
      Args.push_back(Cur);
    }
    if (Args.size() != Arity) {
      Error = "solution " + S + " has " + std::to_string(Args.size()) +
              " arguments, want " + std::to_string(Arity);
      return false;
    }
    // Each argument is a fixed truth value or a variable; a variable stands
    // for both values, shared variables take the same one.
    std::map<std::string, unsigned> Vars;
    for (const std::string &A : Args) {
      if (A == "true" || A == "false")
        continue;
      if (A.empty() || !(A[0] == '_' || (A[0] >= 'A' && A[0] <= 'Z'))) {
        Error = "solution " + S + " has non-boolean argument " + A;
        return false;
      }
      Vars.emplace(A, static_cast<unsigned>(Vars.size()));
    }
    if (Vars.size() >= 24) {
      Error = "solution " + S + " has too many free arguments";
      return false;
    }
    for (uint64_t Mask = 0; Mask < (uint64_t(1) << Vars.size()); ++Mask) {
      lpa::BoolTuple Row;
      for (const std::string &A : Args)
        Row.push_back(A == "true"    ? 1
                      : A == "false" ? 0
                                     : (Mask >> Vars[A]) & 1);
      T.insert(std::move(Row));
    }
  }
  Table = lpa::formatTruthTable(T);
  return true;
}

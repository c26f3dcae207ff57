//===- golden_test.cpp - Committed golden fingerprints of the corpus ------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Runs the analyzers over all 12 Table 1 programs and compares their
// fingerprints line for line with committed golden files:
//   - lpabench/golden/{groundness,depthk}.txt: the benchmark's own golden
//     lines (Prop groundness with default options, serial and at four eval
//     workers; depth-k at k=2 with default widening);
//   - tests/golden/groundness_agg.txt: Prop groundness with AggregateModes
//     (Section 6.2's one joined answer per subgoal).
// The files are read through compile definitions and are never rewritten
// by a test: a table-layer change must reproduce them exactly.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "depthk/DepthK.h"
#include "par/CorpusScheduler.h"
#include "prop/Groundness.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>

using namespace lpa;

namespace {

/// Golden lines by program name, in file order ("<program>\t<line>").
using GoldenFile = std::map<std::string, std::vector<std::string>>;

GoldenFile loadGolden(const std::string &Path) {
  GoldenFile G;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Tab = Line.find('\t');
    EXPECT_NE(Tab, std::string::npos) << Path << ": malformed line " << Line;
    if (Tab != std::string::npos)
      G[Line.substr(0, Tab)].push_back(Line.substr(Tab + 1));
  }
  return G;
}

const GoldenFile &benchGolden(const std::string &Kind) {
  static std::map<std::string, GoldenFile> Cache;
  auto It = Cache.find(Kind);
  if (It == Cache.end())
    It = Cache.emplace(Kind, loadGolden(std::string(LPA_BENCH_GOLDEN_DIR) +
                                        "/" + Kind + ".txt"))
             .first;
  return It->second;
}

const GoldenFile &aggregatedGolden() {
  static GoldenFile G = loadGolden(std::string(LPA_TEST_GOLDEN_DIR) +
                                   "/groundness_agg.txt");
  return G;
}

/// Line-for-line comparison; reports the first differing line.
void expectLines(const GoldenFile &Golden, const std::string &Program,
                 const std::vector<std::string> &Got) {
  auto It = Golden.find(Program);
  ASSERT_NE(It, Golden.end()) << "no golden lines for " << Program;
  const std::vector<std::string> &Want = It->second;
  ASSERT_EQ(Got.size(), Want.size()) << Program;
  for (size_t I = 0; I < Want.size(); ++I)
    EXPECT_EQ(Got[I], Want[I]) << Program << " line " << I + 1;
}

std::vector<std::string> groundness(const CorpusProgram &P, size_t Workers,
                                    bool Aggregate) {
  SymbolTable Symbols;
  GroundnessAnalyzer::Options GO;
  GO.Engine.EvalWorkers = Workers;
  GO.AggregateModes = Aggregate;
  auto R = GroundnessAnalyzer(Symbols, GO).analyze(P.Source);
  EXPECT_TRUE(bool(R)) << P.Name << ": " << (R ? "" : R.getError().str());
  return R ? fingerprintGroundness(*R) : std::vector<std::string>{};
}

class GoldenTest : public ::testing::TestWithParam<size_t> {
protected:
  const CorpusProgram &program() const {
    return prologBenchmarks()[GetParam()];
  }
};

TEST_P(GoldenTest, DepthKMatchesBenchGolden) {
  SymbolTable Symbols;
  auto R = DepthKAnalyzer(Symbols).analyze(program().Source);
  ASSERT_TRUE(bool(R)) << R.getError().str();
  expectLines(benchGolden("depthk"), program().Name, fingerprintDepthK(*R));
}

TEST_P(GoldenTest, GroundnessMatchesBenchGolden) {
  expectLines(benchGolden("groundness"), program().Name,
              groundness(program(), 0, false));
}

TEST_P(GoldenTest, GroundnessAtFourWorkersMatchesBenchGolden) {
  expectLines(benchGolden("groundness"), program().Name,
              groundness(program(), 4, false));
}

TEST_P(GoldenTest, AggregatedMatchesGolden) {
  expectLines(aggregatedGolden(), program().Name,
              groundness(program(), 0, true));
}

/// Aggregated tables cross worker boundaries through the publish/import
/// path; the lead must end with the same joined answers as a serial run.
TEST_P(GoldenTest, AggregatedAtFourWorkersIdenticalToSerial) {
  std::vector<std::string> Serial = groundness(program(), 0, true);
  ASSERT_FALSE(Serial.empty());
  EXPECT_EQ(groundness(program(), 4, true), Serial);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenTest,
    ::testing::Range(size_t(0), prologBenchmarks().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return std::string(prologBenchmarks()[Info.param].Name);
    });

} // namespace

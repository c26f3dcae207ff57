//===- Reference.h - Golden fingerprints and oracle checks ------*- C++ -*-===//
//
// Part of the lpa benchmark (see lpabench/NOTES.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every output the benchmark times is checked against a reference:
///
///   - golden fingerprints (fingerprintGroundness / fingerprintDepthK /
///     fingerprintStrictness) for all 34 corpus analyses, committed under
///     lpabench/golden and never regenerated to make a run pass;
///   - the independent GaiaLikeAnalyzer, whose Prop success sets must equal
///     the golden ones (checked at set-up);
///   - for the service workload, each query's solutions, expanded into a
///     truth table and compared with the golden success set.
///
//===----------------------------------------------------------------------===//

#ifndef LPABENCH_REFERENCE_H
#define LPABENCH_REFERENCE_H

#include <map>
#include <string>
#include <vector>

namespace lpabench {

/// Golden fingerprints: kind -> program -> fingerprint lines. One file per
/// kind; each line is "<program>\t<fingerprint line>", in result order.
class Golden {
public:
  /// Loads golden/<kind>.txt for every kind. Returns an error message, or
  /// the empty string on success.
  std::string load(const std::string &Dir);

  /// Writes the fingerprints of one kind. Returns false on I/O failure.
  static bool write(const std::string &Dir, const std::string &Kind,
                    const std::vector<std::pair<std::string,
                                                std::vector<std::string>>>
                        &Programs);

  /// Empty string when \p Got equals the golden lines of \p Program under
  /// \p Kind; otherwise a one-line description of the first difference.
  std::string check(const std::string &Kind, const std::string &Program,
                    const std::vector<std::string> &Got) const;

  /// The golden Prop success set of predicate \p Pred ("name/arity") of
  /// \p Program, as formatTruthTable renders it; empty when absent.
  std::string successSet(const std::string &Program,
                         const std::string &Pred) const;

  /// Predicates ("name/arity") with a groundness line for \p Program.
  std::vector<std::string> groundnessPreds(const std::string &Program) const;

private:
  std::map<std::string, std::map<std::string, std::vector<std::string>>> Lines;
};

/// Runs GaiaLikeAnalyzer on every Prolog corpus program and compares each
/// predicate's success set with the golden one. Appends one message per
/// failing program to \p Failures; adds each analysis' wall time to \p GaiaNs.
/// Returns the number of programs checked.
size_t checkGaiaOracle(const Golden &G, std::vector<std::string> &Failures,
                       uint64_t &GaiaNs);

/// Expands rendered solutions of an open call (e.g. "gp_app(true,_G1,_G1)")
/// into the truth table they denote and renders it like formatTruthTable.
/// Arguments must be true, false or variables; shared variables expand
/// consistently. Returns false (with \p Error set) on any other shape.
bool solutionsTruthTable(const std::vector<std::string> &Solutions,
                         unsigned Arity, std::string &Table,
                         std::string &Error);

} // namespace lpabench

#endif // LPABENCH_REFERENCE_H

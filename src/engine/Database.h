//===- Database.h - Dynamic clause database ---------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic clause database. The paper's analyzers load transformed
/// programs as *dynamic code* (XSB's assert) rather than compiling them,
/// because preprocessing time dominates total analysis time. Loading a
/// clause compiles it once, straight from the reader's store -- variables
/// numbered, head and goals as skeletons, goals classified -- and the
/// compiled form is all the database keeps: resolution renames a clause by
/// filling a frame (see Clause), and retract matches a variant by equal
/// skeletons.
/// Predicates may be marked tabled, either programmatically or with a
/// ":- table p/N." directive in the source.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_ENGINE_DATABASE_H
#define LPA_ENGINE_DATABASE_H

#include "engine/Builtins.h"
#include "support/Error.h"
#include "term/Symbol.h"
#include "term/TermSkel.h"
#include "term/TermStore.h"

#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace lpa {

/// Identifies a predicate by functor symbol and arity.
struct PredKey {
  SymbolId Sym;
  uint32_t Arity;

  bool operator==(const PredKey &O) const {
    return Sym == O.Sym && Arity == O.Arity;
  }
};

struct PredKeyHash {
  size_t operator()(const PredKey &K) const {
    return std::hash<uint64_t>()((uint64_t(K.Sym) << 32) | K.Arity);
  }
};

/// Where one clause variable occurs. Variables are numbered 0..N-1 in
/// first-occurrence order over the head, then the body goals left to
/// right. This single classification serves the engine's compiled clauses
/// (which variables a supplementary frontier state must keep) and the WAM
/// compiler (permanent vs temporary variables).
struct ClauseVarUse {
  static constexpr uint32_t NoGoal = ~uint32_t(0);
  TermRef Var;                 ///< The variable, in the classified store.
  bool InHead = false;
  uint32_t FirstGoal = NoGoal; ///< First body goal it occurs in.
  uint32_t LastGoal = NoGoal;  ///< Last body goal it occurs in.

  /// WAM permanent variable: occurs in more than one chunk, chunk 0 being
  /// the head together with the first body goal.
  bool permanent() const {
    uint32_t First = InHead ? 0 : FirstGoal;
    uint32_t Last = LastGoal == NoGoal ? 0 : LastGoal;
    return First != Last;
  }
  /// Live once \p Solved body goals are solved: some goal still to run
  /// mentions it.
  bool liveAt(uint32_t Solved) const {
    return LastGoal != NoGoal && Solved <= LastGoal;
  }
};

/// Classifies the variables of the clause \p Head :- \p Goals (terms in
/// \p Store) into \p Uses, one entry per distinct variable, indexed by
/// number; \p Numbering receives variable -> number. Both are cleared
/// first, so a loader can reuse them.
void classifyClauseVars(const TermStore &Store, TermRef Head,
                        std::span<const TermRef> Goals,
                        VarRenaming &Numbering,
                        std::vector<ClauseVarUse> &Uses);

/// One body goal of a compiled clause, classified at load time.
struct CompiledGoal {
  static constexpr uint32_t NoPred = ~uint32_t(0);
  uint32_t Code;        ///< Offset of the goal's skeleton in Clause::Code.
  PredKey Key;          ///< Callee; {0, 0} for a variable or number goal.
  uint32_t PredId;      ///< Database::predId(Key); NoPred if not callable.
  BuiltinKind Builtin;  ///< BuiltinKind::None for user predicates.
};

/// One stored clause, compiled once by loadClause: its variables numbered
/// 0..NumVars-1 in first-occurrence order, the head and each goal of the
/// flattened body as a skeleton over those numbers, each goal's callee and
/// builtin kind, the purity flag and the per-level liveness of
/// supplementary evaluation. FirstArgKey enables cheap clause filtering on
/// the first argument's principal functor (0 when the first argument is a
/// variable or the predicate is atomic).
/// Resolution renames the clause by filling a NumVars-slot frame; nothing
/// about a clause is recomputed while solving, so the database stays
/// read-only under concurrent eval workers.
struct Clause {
  uint64_t FirstArgKey = 0; ///< 0 = matches anything.

  uint32_t NumVars = 0;
  /// The head skeleton at offset 0, then each body goal's. Two clauses are
  /// variants exactly when their Code is equal.
  std::vector<SkelCell> Code;
  std::vector<CompiledGoal> Goals; ///< The body goals, in order.
  /// No cut, negation, disjunction, if-then(-else), call/1 or variable
  /// goal: the body can run set-at-a-time through supplementary frontiers.
  bool Pure = false;
  /// live(J), J = 0..Goals.size(): the variables (ascending numbers) a
  /// frontier state keeps once J goals are solved -- those some goal >= J
  /// mentions. live(Goals.size()) is empty.
  std::span<const uint32_t> live(size_t J) const {
    return std::span<const uint32_t>(LiveVars).subspan(
        LiveBegin[J], LiveBegin[J + 1] - LiveBegin[J]);
  }
  /// carry(J)[K]: the position in live(J) of live(J + 1)[K] (a variable
  /// live after goal J was live before it). Parallel to live(J + 1).
  std::span<const uint32_t> carry(size_t J) const {
    return std::span<const uint32_t>(CarryPos).subspan(
        LiveBegin[J + 1] - LiveBegin[1], LiveBegin[J + 2] - LiveBegin[J + 1]);
  }
  /// Flat storage of live() (LiveBegin has Goals.size() + 2 entries) and
  /// of carry(), which is laid out like live() from level 1 on.
  std::vector<uint32_t> LiveVars, LiveBegin, CarryPos;
};

/// Everything the database knows of one predicate: one record per dense
/// id (see Database::predId), whether the predicate is defined, only
/// called from a body, or only declared tabled.
struct Predicate {
  PredKey Key;
  uint32_t Id = 0; ///< Database::predId(Key).
  std::vector<Clause> Clauses;
  bool Tabled = false;
  /// A clause was loaded for it (retracting them all keeps it defined).
  bool Defined = false;
  /// Global revision of its last clause change; 0 if it never changed.
  uint64_t Revision = 0;
};

/// A set of predicates with their clauses, plus tabling declarations.
class Database {
public:
  explicit Database(SymbolTable &Symbols)
      : Symbols(Symbols), Builtins(Symbols) {}

  /// Loads one clause term (fact, Head :- Body rule, or directive) that
  /// lives in \p Src. Directives handled: ":- table p/N." (single spec or
  /// list). Unknown directives are ignored, matching a lenient toplevel.
  ErrorOr<bool> loadClause(const TermStore &Src, TermRef ClauseTerm);

  /// Loads every clause of \p Clauses (in order).
  ErrorOr<bool> loadProgram(const TermStore &Src,
                            const std::vector<TermRef> &Clauses);

  /// Parses and loads Prolog source text. All-or-nothing: the whole text is
  /// parsed and compiled before the first clause is stored, so a syntax or
  /// shape error mid-program leaves the database exactly as it was (a warm
  /// session must never end up with a half-loaded clause prefix).
  /// A text holding more than \p MaxClauses clauses (directives count) is
  /// rejected the same way, before anything is stored.
  ErrorOr<bool> consult(std::string_view Text, size_t MaxClauses = SIZE_MAX);

  /// Parses \p Text as exactly one clause (fact or rule; directives are
  /// rejected) and removes the first stored clause that is a variant of it
  /// (identical up to variable renaming, with head/body variable sharing
  /// respected). \returns the number of clauses removed (0 or 1).
  ErrorOr<size_t> retract(std::string_view Text);

  /// Removes every clause of \p Key. \returns the number removed. The
  /// predicate stays defined (with zero clauses), so calls to it fail
  /// rather than count as undefined-predicate misses.
  size_t retractAll(PredKey Key);

  /// Monotone revision clock. Every clause assert/retract bumps the global
  /// counter and stamps the affected predicate with it; completed tables
  /// record the revision they were derived under, and the incremental
  /// invalidation sweep asks which predicates changed since.
  uint64_t globalRevision() const { return RevCounter; }

  /// \returns every predicate whose clauses changed strictly after
  /// revision \p Rev (in no particular order).
  std::vector<PredKey> predsChangedSince(uint64_t Rev) const;

  /// Marks \p Sym / \p Arity as tabled.
  void setTabled(SymbolId Sym, uint32_t Arity);

  /// Marks every currently-defined predicate as tabled. The abstract
  /// programs of the paper's analyses table all predicates.
  void tableAllPredicates();

  /// \returns the predicate entry, or nullptr if no clause was ever loaded
  /// for it. The entry stays valid until the next load.
  const Predicate *lookup(PredKey Key) const;
  /// lookup by id (NoPredId allowed), counted the same way.
  const Predicate *predicate(uint32_t Id) const;

  /// Clause-index traffic: every lookup() is a hit on the predicate index;
  /// a miss is a call to an undefined predicate (which fails without
  /// touching any clause). Cheap enough to count unconditionally; the
  /// observability layer exports them as db_lookups / db_lookup_misses.
  /// Relaxed atomics: one database serves every intra-query eval worker
  /// concurrently, and pure counters are the only mutation lookup() does.
  struct LookupStats {
    uint64_t Lookups = 0; ///< Total predicate-index probes.
    uint64_t Misses = 0;  ///< Probes that found no predicate.
  };
  LookupStats lookupStats() const {
    return {LkLookups.load(std::memory_order_relaxed),
            LkMisses.load(std::memory_order_relaxed)};
  }
  void resetLookupStats() {
    LkLookups.store(0, std::memory_order_relaxed);
    LkMisses.store(0, std::memory_order_relaxed);
  }

  /// \returns true if the predicate is declared tabled.
  bool isTabled(PredKey Key) const;

  /// \name Dense predicate ids.
  /// Every predicate the database has seen -- defined, called from a
  /// clause body, or declared tabled -- gets an id 0..numPredIds()-1 when
  /// it is first seen at load time, so the solver keeps per-predicate
  /// state in flat arrays and a compiled goal carries its callee's id.
  /// @{
  static constexpr uint32_t NoPredId = CompiledGoal::NoPred;
  /// \returns the id of \p Key, or NoPredId if the database never saw it.
  uint32_t predId(PredKey Key) const;
  size_t numPredIds() const { return Preds.size(); }
  /// isTabled by id.
  bool isTabledId(uint32_t Id) const { return Preds[Id].Tabled; }
  /// @}

  /// Iterates over all predicates in definition order.
  const std::vector<PredKey> &predicates() const { return PredOrder; }

  SymbolTable &symbols() { return Symbols; }
  const SymbolTable &symbols() const { return Symbols; }

  /// Number of clauses across all predicates.
  size_t numClauses() const;

  /// Computes the first-argument filter key of a call with first argument
  /// \p Arg (0 if unbound).
  static uint64_t firstArgKey(const TermStore &Store, TermRef Arg);

private:
  /// What loading compiled but has not stored yet: clauses by predicate id,
  /// in load order, and the ids declared tabled.
  struct Staging {
    std::vector<std::pair<uint32_t, Clause>> Clauses;
    std::vector<uint32_t> Tabled;
  };
  /// Compiles \p ClauseTerm (a fact, rule or directive in \p Src) into
  /// \p Out. Only ids are assigned; nothing is stored.
  ErrorOr<bool> stage(const TermStore &Src, TermRef ClauseTerm, Staging &Out);
  ErrorOr<bool> stageTableSpec(const TermStore &Src, TermRef Spec,
                               Staging &Out);
  /// Stores everything \p S holds. Cannot fail.
  void commit(Staging &S);
  /// Splits \p ClauseTerm into its head and flattened body (LoadGoals),
  /// numbers its variables and compiles its skeletons into LoadCode, the
  /// head first. \returns the head, or a diagnostic if it is not callable.
  ErrorOr<TermRef> compileCode(const TermStore &Src, TermRef ClauseTerm);
  /// Fills the rest of \p C from the scratch compileCode left: the code,
  /// the classified goals and the liveness tables.
  void compileClause(const TermStore &Src, Clause &C);
  /// \returns the id of \p Key, assigning the next one if it is new.
  uint32_t internPredId(PredKey Key);
  /// Scratch of the compile steps: loading is single-threaded and happens
  /// between solves, and a program loads many clauses.
  VarRenaming LoadRen;
  SkelScratch LoadSkel;
  std::vector<TermRef> LoadGoals;
  std::vector<uint32_t> LoadGoalCode; ///< Each goal's offset in LoadCode.
  std::vector<ClauseVarUse> LoadUses;
  std::vector<SkelCell> LoadCode;
  Staging LoadStaged; ///< loadClause's, reused.
  /// Stamps predicate \p Id with a fresh global revision.
  void noteMutation(uint32_t Id) { Preds[Id].Revision = ++RevCounter; }

  SymbolTable &Symbols;
  BuiltinTable Builtins;
  /// Indexed by dense id (see predId()), with the one index into it.
  std::vector<Predicate> Preds;
  std::unordered_map<PredKey, uint32_t, PredKeyHash> IdByKey;
  std::vector<PredKey> PredOrder; ///< Defined predicates, in that order.
  /// Revision clock (see globalRevision()). Tabling declarations do not
  /// bump it: they change evaluation strategy, not the program's meaning.
  uint64_t RevCounter = 0;
  /// Mutable: lookup() is const but still counted (atomically — workers
  /// share the database).
  mutable std::atomic<uint64_t> LkLookups{0};
  mutable std::atomic<uint64_t> LkMisses{0};
};

/// Flattens a (possibly nested) ','/2 conjunction into a goal list.
void flattenConjunction(const TermStore &Store, const SymbolTable &Symbols,
                        TermRef Body, std::vector<TermRef> &Goals);

} // namespace lpa

#endif // LPA_ENGINE_DATABASE_H

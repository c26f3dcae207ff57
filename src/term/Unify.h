//===- Unify.h - Unification over TermStore ---------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First-order unification. Standard Prolog unification omits the occur
/// check; the analyses of the paper's Section 6 (Hindley-Milner types,
/// depth-k abstract unification) need it, so it is available as an option.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_TERM_UNIFY_H
#define LPA_TERM_UNIFY_H

#include "term/TermStore.h"

#include <utility>
#include <vector>

namespace lpa {

/// Unifies \p A and \p B in \p Store.
///
/// On failure some bindings may already have been made; callers must take a
/// Mark beforehand and undoTo() it when false is returned (the solver's
/// backtracking does this anyway).
///
/// \param OccursCheck when true, binding a variable to a term containing it
///        fails instead of building a cyclic term.
/// \returns true iff the terms are unifiable.
bool unify(TermStore &Store, TermRef A, TermRef B, bool OccursCheck = false);

/// Working stack of unify; a caller that unifies in a loop keeps one and
/// stops allocating.
using UnifyScratch = std::vector<std::pair<TermRef, TermRef>>;

/// As unify(), with caller-owned working storage.
bool unify(TermStore &Store, TermRef A, TermRef B, bool OccursCheck,
           UnifyScratch &Work);

/// \returns true iff variable \p Var occurs in term \p T (after deref).
bool occursIn(const TermStore &Store, TermRef Var, TermRef T);

/// \returns true iff \p T dereferences to a term with no unbound variables.
bool isGround(const TermStore &Store, TermRef T);

/// Structural equality of two terms in the same store (Prolog ==/2):
/// identical up to sharing, with unbound variables equal only to themselves.
bool termsEqual(const TermStore &Store, TermRef A, TermRef B);

} // namespace lpa

#endif // LPA_TERM_UNIFY_H

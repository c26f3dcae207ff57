//===- Variant.h - Canonical variant keys -----------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Variant checking is the heart of XSB-style tabling: a tabled subgoal hits
/// the table when a *variant* of it (identical up to variable renaming) was
/// called before, and only non-variant answers are entered. The tables
/// themselves decide variance by term-trie walks (table/TermTrie.h); the
/// canonical byte-string encoding here spells the same token sequence and
/// serves where a flat key is wanted (clause-variant checks, tests).
///
//===----------------------------------------------------------------------===//

#ifndef LPA_TERM_VARIANT_H
#define LPA_TERM_VARIANT_H

#include "term/TermStore.h"

#include <string>

namespace lpa {

/// Encodes \p T as a byte string such that two terms have equal encodings
/// iff they are variants. Variables are numbered in order of first
/// occurrence (left-to-right, depth-first).
std::string canonicalKey(const TermStore &Store, TermRef T);

/// As canonicalKey, but appends to \p Out (avoids reallocation in loops).
void appendCanonicalKey(const TermStore &Store, TermRef T, std::string &Out);

/// Collects the distinct unbound variables of \p T into \p Vars in
/// first-occurrence order (left-to-right, depth-first) -- the same order
/// canonicalKey numbers them and the same order copyTerm renames them.
/// Appends to \p Vars without clearing it.
void collectFreeVars(const TermStore &Store, TermRef T,
                     std::vector<TermRef> &Vars);

} // namespace lpa

#endif // LPA_TERM_VARIANT_H

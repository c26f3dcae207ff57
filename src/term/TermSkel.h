//===- TermSkel.h - Compiled term skeletons ---------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A term skeleton is a term flattened to preorder cells with its
/// variables numbered 0..N-1. The clause database compiles every clause
/// into skeletons once, at load time; renaming the clause apart is then
/// filling an N-slot frame rather than copying terms through a variable
/// map. Two operations run on a skeleton:
///
///   * instantiateSkeleton builds the instance under a frame (WAM put/set
///     instructions: a variable's first occurrence allocates it);
///   * matchSkeleton unifies a term against the skeleton without building
///     it (WAM get/unify instructions): a first-occurrence variable just
///     records the term it meets, and structure is built only where the
///     term has an unbound variable.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_TERM_TERMSKEL_H
#define LPA_TERM_TERMSKEL_H

#include "term/TermCopy.h"
#include "term/TermStore.h"
#include "term/Unify.h"

#include <span>
#include <vector>

namespace lpa {

/// One preorder cell of a skeleton.
struct SkelCell {
  enum Kind : uint8_t { Var, Atom, Int, Struct };
  Kind K;
  uint32_t Arity; ///< Struct: argument count (its arguments follow).
  int64_t Val;    ///< Var: number; Atom/Struct: symbol; Int: value.

  bool operator==(const SkelCell &) const = default;
};

/// Reusable working storage of the skeleton operations below.
struct SkelScratch {
  std::vector<TermRef> Slots; ///< Argument slots still to fill.
  std::vector<TermRef> Terms; ///< Terms still to compile or match.
  UnifyScratch Unify;
};

/// Appends the skeleton of \p T (a term in \p Store) to \p Code. Variables
/// are numbered through \p Numbering (variable -> number, stored as a
/// TermRef); a variable not yet numbered gets the next number,
/// Numbering.size(), so numbers follow first occurrence across every term
/// compiled with the same map.
void compileSkeleton(const TermStore &Store, TermRef T,
                     VarRenaming &Numbering, std::vector<SkelCell> &Code,
                     SkelScratch &Scratch);

/// Builds the instance of the skeleton at \p Code[PC] in \p Dst and
/// advances \p PC past it. \p Frame[n] is variable n's term, or
/// InvalidTerm until its first occurrence, which allocates a fresh
/// variable and records it in the frame.
TermRef instantiateSkeleton(TermStore &Dst, std::span<const SkelCell> Code,
                            uint32_t &PC, std::span<TermRef> Frame,
                            SkelScratch &Scratch);

/// Unifies \p T (a term in \p Store) with the skeleton at \p Code[PC],
/// reading and extending \p Frame as instantiateSkeleton does. Bindings go
/// on \p Store's trail; on failure the caller undoes them (and discards
/// the frame). \p PC is only meaningful after success.
bool matchSkeleton(TermStore &Store, TermRef T, std::span<const SkelCell> Code,
                   uint32_t &PC, std::span<TermRef> Frame, bool OccursCheck,
                   SkelScratch &Scratch);

} // namespace lpa

#endif // LPA_TERM_TERMSKEL_H
